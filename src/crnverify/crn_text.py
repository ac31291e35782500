"""Text format for parametric reaction networks.

A ``.crn`` file is a sequence of ``;``-terminated statements; ``#`` starts
a comment.  The first statement must be the format version.

    format=1;
    species S I R;
    param ki in [5e-5, 0.003];
    param kr in [0.005, 0.2];
    reaction infect:  S + I -> I + I @ ki;
    reaction recover: I -> R @ kr;
    init S=95, I=5, R=0;
    conserve 100;

Reactant/product sides are ``+``-separated species, optionally with an
integer multiplicity (``2 I`` and ``I + I`` are equivalent); ``0`` denotes
the empty side.  Each reaction's rate is a single named parameter, which
keeps every transition rate linear in the parameters; anything else is
rejected here rather than given ad-hoc semantics.
"""

import re
from pathlib import Path

from .errors import ConfigError, ParseError
from .files import FORMAT_VERSION
from .model import PCRN, ParameterSpace, Reaction

_CRN_TOKEN_RE = re.compile(
    r"\s*(?:(?P<comment>#[^\n]*)"
    r"|(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>->|[;:,@=+\[\]]))"
)


class Tokens:
    """(kind, value, position) tokens of ``text`` under ``pattern``, whose
    named groups are the kinds; a ``comment`` group is skipped.  Errors
    raise ParseError with the line and column of the offending token."""

    def __init__(self, text: str, pattern: re.Pattern = _CRN_TOKEN_RE):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = pattern.match(text, pos)
            if not m:
                rest = text[pos:]
                if rest.strip():
                    offset = pos + (len(rest) - len(rest.lstrip()))
                    raise ParseError(f"unexpected character {rest.strip()[0]!r}", *_line_col(text, offset))
                break
            if m.lastgroup != "comment":
                self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def peek(self, ahead: int = 0):
        """The token ``ahead`` places past the next one, or end of input."""
        j = self.i + ahead
        return self.tokens[j] if j < len(self.tokens) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str, what: str = ""):
        kind, val, pos = self.next()
        if val != value:
            self.error(f"expected {what or value!r}, found {val or 'end of input'!r}", pos)
        return val

    def ident(self, what: str):
        kind, val, pos = self.next()
        if kind != "ident":
            self.error(f"expected {what}, found {val or 'end of input'!r}", pos)
        return val

    def number(self, what: str = "a number") -> float:
        kind, val, pos = self.next()
        if kind != "num":
            self.error(f"expected {what}, found {val or 'end of input'!r}", pos)
        return float(val)

    def integer(self, what: str = "an integer") -> int:
        kind, val, pos = self.next()
        if kind != "num" or not re.fullmatch(r"[+-]?\d+", val):
            self.error(f"expected {what}, found {val or 'end of input'!r}", pos)
        return int(val)

    def error(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.peek()[2]
        raise ParseError(message, *_line_col(self.text, pos))


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def parse_crn(text: str) -> PCRN:
    """Parse network source text into a validated PCRN, its reactions
    compiled to the index form once the last species is declared."""
    toks = Tokens(text)

    # version header
    kind, val, pos = toks.next()
    if not (kind == "ident" and val == "format"):
        toks.error("file must start with 'format=1;'", pos)
    toks.expect("=")
    version = toks.integer("the format version")
    if version != FORMAT_VERSION:
        toks.error(f"unsupported format version {version}")
    toks.expect(";")

    species_order: list[str] = []
    params: list[tuple[str, float, float]] = []
    reactions: list[tuple[str, dict[str, int], dict[str, int], int]] = []
    init: dict[str, int] = {}
    conserve: int | None = None

    while toks.peek()[0] != "eof":
        kind, stmt, pos = toks.next()
        if kind != "ident":
            toks.error(f"expected a statement keyword, found {stmt!r}", pos)
        if stmt == "species":
            while toks.peek()[0] == "ident":
                name = toks.ident("a species name")
                if name in species_order:
                    toks.error(f"duplicate species {name!r}")
                species_order.append(name)
            if not species_order:
                toks.error("species statement declares no species")
            toks.expect(";")
        elif stmt == "param":
            name_pos = toks.peek()[2]
            name = toks.ident("a parameter name")
            if any(p[0] == name for p in params):
                toks.error(f"duplicate parameter {name!r}", name_pos)
            kw = toks.ident("'in'")
            if kw != "in":
                toks.error(f"expected 'in', found {kw!r}")
            toks.expect("[")
            lo = toks.number("the lower bound")
            toks.expect(",")
            hi = toks.number("the upper bound")
            toks.expect("]")
            toks.expect(";")
            if not lo < hi:
                toks.error(f"parameter {name!r} needs lower < upper bound", name_pos)
            params.append((name, lo, hi))
        elif stmt == "reaction":
            rname = toks.ident("a reaction name")
            toks.expect(":")
            lhs = _parse_side(toks, species_order)
            toks.expect("->", "'->'")
            rhs = _parse_side(toks, species_order)
            toks.expect("@")
            rate = toks.ident("a rate parameter name")
            toks.expect(";")
            rates = [p[0] for p in params]
            if rate not in rates:
                toks.error(f"reaction {rname!r} uses undeclared parameter {rate!r}")
            reactions.append((rname, lhs, rhs, rates.index(rate)))
        elif stmt == "init":
            while True:
                name = toks.ident("a species name")
                if name not in species_order:
                    toks.error(f"init references unknown species {name!r}")
                if name in init:
                    toks.error(f"init assigns {name!r} twice")
                toks.expect("=")
                count = toks.integer("a molecule count")
                if count < 0:
                    toks.error(f"init count for {name!r} must be nonnegative")
                init[name] = count
                if toks.peek()[1] == ",":
                    toks.next()
                else:
                    break
            toks.expect(";")
        elif stmt == "conserve":
            conserve = toks.integer("a total molecule count")
            toks.expect(";")
        else:
            toks.error(f"unknown statement {stmt!r}", pos)

    if not species_order:
        raise ParseError("no species declared")
    index = {name: i for i, name in enumerate(species_order)}
    compiled = tuple(
        Reaction(
            reactants=tuple(sorted((index[s], count) for s, count in lhs.items())),
            change=tuple(rhs.get(s, 0) - lhs.get(s, 0) for s in species_order),
            rate=rate,
            name=rname,
        )
        for rname, lhs, rhs, rate in reactions
    )
    initial = tuple(init.get(n, 0) for n in species_order)
    try:
        return PCRN(
            species=tuple(species_order),
            reactions=compiled,
            params=ParameterSpace(tuple(params)),
            initial_state=initial,
            conserved_total=conserve,
        )
    except ConfigError as exc:
        raise ParseError(str(exc)) from exc


def _parse_side(toks: Tokens, species_order: list[str]) -> dict[str, int]:
    side: dict[str, int] = {}
    kind, val, pos = toks.peek()
    if kind == "num" and val == "0":
        toks.next()
        return side
    while True:
        kind, val, pos = toks.next()
        count = 1
        if kind == "num":
            if not re.fullmatch(r"\d+", val):
                toks.error(f"stoichiometric multiplicity must be a positive integer, found {val!r}", pos)
            count = int(val)
            if count <= 0:
                toks.error("stoichiometric multiplicity must be positive", pos)
            kind, val, pos = toks.next()
        if kind != "ident":
            toks.error(f"expected a species name, found {val or 'end of input'!r}", pos)
        if val not in species_order:
            toks.error(f"unknown species {val!r} in reaction", pos)
        side[val] = side.get(val, 0) + count
        if toks.peek()[1] == "+":
            toks.next()
        else:
            return side


def load_crn(path: str | Path) -> PCRN:
    """Read and parse a ``.crn`` file."""
    return parse_crn(Path(path).read_text(encoding="utf-8"))
