"""Time-bounded stochastic-logic properties over molecule-count states.

The supported fragment is a single top-level probability operator around a
time-bounded until whose operands are boolean combinations of integer
linear comparisons over species counts:

    P>0.1 [ (I>0) U[100,150] (I=0) ]

Next-state and unbounded-until path operators, and nested probability
operators, are recognized and rejected with explicit "unsupported" errors.
"""

import re
from dataclasses import dataclass

import numpy as np

from .crn_text import Tokens
from .errors import ParseError

RELATIONS = ("<=", ">=", "<", ">")
COMPARATORS = ("<=", ">=", "!=", "<", ">", "=")


# ---------------------------------------------------------------------------
# State formulas


@dataclass(frozen=True)
class StateFormula:
    def mask(self, states: np.ndarray, index: dict[str, int]) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class BoolLiteral(StateFormula):
    value: bool

    def mask(self, states, index):
        return np.full(len(states), self.value)


@dataclass(frozen=True)
class Comparison(StateFormula):
    """Integer linear comparison: sum_i coeff_i * species_i  op  constant."""

    terms: tuple[tuple[str, int], ...]
    op: str
    constant: int

    def mask(self, states, index):
        """Each row's truth.  The terms are summed in the dtype of
        ``states``, which is exact for float states while every partial
        sum stays below 2**53 in magnitude."""
        lhs = None
        for name, coeff in self.terms:
            if name not in index:
                raise ParseError(f"unknown species {name!r} in property")
            term = coeff * states[:, index[name]]
            lhs = term if lhs is None else lhs + term
        match self.op:
            case "=":
                return lhs == self.constant
            case "!=":
                return lhs != self.constant
            case "<":
                return lhs < self.constant
            case "<=":
                return lhs <= self.constant
            case ">":
                return lhs > self.constant
            case ">=":
                return lhs >= self.constant
        raise AssertionError(self.op)


@dataclass(frozen=True)
class Not(StateFormula):
    operand: StateFormula

    def mask(self, states, index):
        return ~self.operand.mask(states, index)


@dataclass(frozen=True)
class And(StateFormula):
    left: StateFormula
    right: StateFormula

    def mask(self, states, index):
        return self.left.mask(states, index) & self.right.mask(states, index)


@dataclass(frozen=True)
class Or(StateFormula):
    left: StateFormula
    right: StateFormula

    def mask(self, states, index):
        return self.left.mask(states, index) | self.right.mask(states, index)


# ---------------------------------------------------------------------------
# Path formula and the top-level property


@dataclass(frozen=True)
class BoundedUntil:
    """phi1 U[t_lo, t_hi] phi2 over a right-continuous piecewise-constant path."""

    phi1: StateFormula
    phi2: StateFormula
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not 0 <= self.t_lo <= self.t_hi:  # NaN fails too
            raise ParseError(f"until interval [{self.t_lo}, {self.t_hi}] needs 0 <= t <= t'")


@dataclass(frozen=True)
class CslFormula:
    """Top-level ``P ~ p [ path ]`` property."""

    relation: str
    bound: float
    path: BoundedUntil

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ParseError(f"unsupported probability relation {self.relation!r}")
        if not 0.0 <= self.bound <= 1.0:
            raise ParseError(f"probability bound {self.bound} outside [0,1]")

    def compare(self, value: float) -> bool:
        match self.relation:
            case "<":
                return value < self.bound
            case "<=":
                return value <= self.bound
            case ">":
                return value > self.bound
            case ">=":
                return value >= self.bound
        raise AssertionError(self.relation)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|->|[<>=\[\](),&|!*+-]))"
)


def parse_csl(text: str) -> CslFormula:
    """Parse a property string into its AST.

    Raises ParseError, with its position, on malformed input or use of
    the unsupported fragment.  ``CslFormula`` rejects a bound outside
    [0,1] and ``BoundedUntil`` a reversed interval, without a position.
    """
    toks = Tokens(text, _TOKEN_RE)
    kind, val, pos = toks.next()
    if val != "P":
        toks.error("property must start with a top-level P operator", pos)
    relation = toks.next()[1]
    if relation not in RELATIONS:
        toks.error(f"unsupported probability relation {relation!r}; use <, <=, >, >=")
    bound = toks.number()
    toks.expect("[")
    path = _parse_path(toks)
    toks.expect("]")
    kind, val, pos = toks.peek()
    if kind != "eof":
        toks.error(f"trailing input {val!r}", pos)
    return CslFormula(relation=relation, bound=bound, path=path)


def _parse_path(toks: Tokens) -> BoundedUntil:
    phi1 = _parse_state(toks)
    kind, val, pos = toks.next()
    if not (kind == "ident" and val == "U"):
        toks.error(f"expected the until operator U, found {val or 'end of input'!r}", pos)
    kind, val, pos = toks.peek()
    if val != "[":
        toks.error("unbounded until is unsupported; give a time interval U[t,t']", pos)
    toks.expect("[")
    t_lo = toks.number()
    toks.expect(",")
    t_hi = toks.number()
    toks.expect("]")
    phi2 = _parse_state(toks)
    return BoundedUntil(phi1=phi1, phi2=phi2, t_lo=t_lo, t_hi=t_hi)


def _parse_state(toks: Tokens) -> StateFormula:
    return _parse_or(toks)


def _parse_or(toks: Tokens) -> StateFormula:
    left = _parse_and(toks)
    while toks.peek()[1] == "|":
        toks.next()
        left = Or(left, _parse_and(toks))
    return left


def _parse_and(toks: Tokens) -> StateFormula:
    left = _parse_unary(toks)
    while toks.peek()[1] == "&":
        toks.next()
        left = And(left, _parse_unary(toks))
    return left


def _parse_unary(toks: Tokens) -> StateFormula:
    kind, val, pos = toks.peek()
    if val == "!":
        toks.next()
        return Not(_parse_unary(toks))
    if val == "(":
        toks.next()
        inner = _parse_or(toks)
        toks.expect(")")
        return inner
    if kind == "ident" and val == "true":
        toks.next()
        return BoolLiteral(True)
    if kind == "ident" and val == "false":
        toks.next()
        return BoolLiteral(False)
    if kind == "ident" and val == "P":
        toks.error("nested probability operators are unsupported", pos)
    if kind == "ident" and val == "X":
        toks.error("the next operator X is unsupported", pos)
    return _parse_comparison(toks)


def _parse_comparison(toks: Tokens) -> Comparison:
    lhs_terms, lhs_const = _parse_linear(toks)
    kind, op, pos = toks.next()
    if op not in COMPARATORS:
        toks.error(f"expected a comparison operator, found {op or 'end of input'!r}", pos)
    rhs_terms, rhs_const = _parse_linear(toks)
    # normalize to  terms  op  constant
    terms: dict[str, int] = {}
    for name, coeff in lhs_terms:
        terms[name] = terms.get(name, 0) + coeff
    for name, coeff in rhs_terms:
        terms[name] = terms.get(name, 0) - coeff
    terms = {n: c for n, c in terms.items() if c != 0}
    if not terms:
        toks.error("comparison involves no species")
    return Comparison(
        terms=tuple(sorted(terms.items())),
        op=op,
        constant=rhs_const - lhs_const,
    )


def _parse_linear(toks: Tokens) -> tuple[list[tuple[str, int]], int]:
    """Parse  [-] term (('+'|'-') term)*  where term = INT ['*' IDENT] | IDENT."""
    terms: list[tuple[str, int]] = []
    const = 0
    sign = 1
    if toks.peek()[1] == "-":
        toks.next()
        sign = -1
    while True:
        kind, val, pos = toks.next()
        if kind == "num":
            if "." in val or "e" in val or "E" in val:
                toks.error("species comparisons must use integer coefficients", pos)
            if toks.peek()[1] == "*":
                toks.next()
                kind2, name, pos2 = toks.next()
                if kind2 != "ident":
                    toks.error("expected a species name after '*'", pos2)
                terms.append((name, sign * int(val)))
            else:
                const += sign * int(val)
        elif kind == "ident":
            terms.append((val, sign))
        else:
            toks.error(f"expected a species or integer, found {val or 'end of input'!r}", pos)
        nxt = toks.peek()[1]
        if nxt == "+":
            toks.next()
            sign = 1
        elif nxt == "-":
            toks.next()
            sign = -1
        else:
            return terms, const


# ---------------------------------------------------------------------------
# Printing


def format_csl(formula: CslFormula) -> str:
    """Canonical text for a property; parse(format(f)) == f."""
    p = formula.path
    return (
        f"P{formula.relation}{_fmt_num(formula.bound)} "
        f"[ {_fmt_state(p.phi1)} U[{_fmt_num(p.t_lo)},{_fmt_num(p.t_hi)}] {_fmt_state(p.phi2)} ]"
    )


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_state(f: StateFormula) -> str:
    match f:
        case BoolLiteral(value=v):
            return "true" if v else "false"
        case Comparison(terms=terms, op=op, constant=c):
            parts = []
            for i, (name, coeff) in enumerate(terms):
                mag = abs(coeff)
                body = name if mag == 1 else f"{mag}*{name}"
                if i == 0:
                    parts.append(body if coeff > 0 else f"-{body}")
                else:
                    parts.append(f"+{body}" if coeff > 0 else f"-{body}")
            return f"({''.join(parts)}{op}{c})"
        case Not(operand=inner):
            return f"!{_fmt_state(inner)}"
        case And(left=l, right=r):
            return f"({_fmt_state(l)} & {_fmt_state(r)})"
        case Or(left=l, right=r):
            return f"({_fmt_state(l)} | {_fmt_state(r)})"
    raise AssertionError(type(f))
