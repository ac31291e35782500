"""Property-language parsing, printing, and predicate evaluation."""

import numpy as np
import pytest

from crnverify import ParseError, format_csl, parse_csl
from crnverify.csl import (
    And,
    BoolLiteral,
    BoundedUntil,
    Comparison,
    CslFormula,
    Not,
    Or,
)

CASE_STUDY = "P>0.1 [ (I>0) U[100,150] (I=0) ]"


class TestParse:
    def test_case_study_property(self):
        f = parse_csl(CASE_STUDY)
        assert f.relation == ">"
        assert f.bound == 0.1
        assert f.path.t_lo == 100.0 and f.path.t_hi == 150.0
        assert f.path.phi1 == Comparison((("I", 1),), ">", 0)
        assert f.path.phi2 == Comparison((("I", 1),), "=", 0)

    def test_trivial_true_until(self):
        f = parse_csl("P>=0 [ true U[0,1] true ]")
        assert f.relation == ">=" and f.bound == 0.0
        assert f.path.phi1 == BoolLiteral(True)

    def test_bound_outside_unit_interval(self):
        with pytest.raises(ParseError):
            parse_csl("P>1.5 [ true U[0,1] true ]")

    def test_reversed_interval(self):
        with pytest.raises(ParseError):
            parse_csl("P>0.1 [ true U[5,1] true ]")

    @pytest.mark.parametrize("t_lo, t_hi", [(2.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0), (0.0, float("nan"))])
    def test_window_checked_where_the_path_is_built(self, t_lo, t_hi):
        # the one check of the window: the parser and the evaluators rely on it
        with pytest.raises(ParseError, match="needs 0 <= t <= t'"):
            BoundedUntil(BoolLiteral(True), BoolLiteral(True), t_lo, t_hi)

    def test_next_operator_unsupported(self):
        with pytest.raises(ParseError, match="unsupported"):
            parse_csl("P>0.1 [ X (I>0) ]")

    @pytest.mark.parametrize("prop, expected", [
        ("P>0.5 [ true U[0,30] (X<0) ]", Comparison((("X", 1),), "<", 0)),
        ("P>0.5 [ true U[0,30] (P>0) ]", Comparison((("P", 1),), ">", 0)),
        ("P>0.5 [ true U[0,30] (true+1>=2) ]", Comparison((("true", 1),), ">=", 1)),
        ("P>0.5 [ true U[0,30] (false-1=0) ]", Comparison((("false", 1),), "=", 1)),
        ("P>0.5 [ X (A>0) ]", "the next operator X is unsupported"),
        ("P>0.5 [ P>0 [ true U[0,1] true ] U[0,1] true ]", "nested probability operators are unsupported"),
    ], ids=["X", "P", "true", "false", "next-operator", "nested-probability"])
    def test_operator_names_are_species_before_a_comparison(self, prop, expected):
        # a species may be named like an operator: the token after it decides
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=expected):
                parse_csl(prop)
            return
        f = parse_csl(prop)
        assert f.path.phi1 == BoolLiteral(True) and f.path.phi2 == expected
        assert parse_csl(format_csl(f)) == f

    @pytest.mark.parametrize("window", ["[0.5,1e400]", "[1e400,1e400]"])
    def test_infinite_window_end_is_an_unbounded_until(self, window):
        with pytest.raises(ParseError, match="unbounded until is unsupported"):
            parse_csl(f"P>0.5 [ (B<25) U{window} (B>=25) ]")
        with pytest.raises(ParseError, match="unbounded until is unsupported"):
            BoundedUntil(BoolLiteral(True), BoolLiteral(True), 0.0, float("inf"))

    def test_unbounded_until_unsupported(self):
        with pytest.raises(ParseError, match="unsupported"):
            parse_csl("P>0.1 [ (I>0) U (I=0) ]")

    def test_nested_probability_unsupported(self):
        with pytest.raises(ParseError, match="unsupported"):
            parse_csl("P>0.1 [ P>0.5 [ true U[0,1] true ] U[0,1] true ]")

    def test_boolean_connectives_and_linear_terms(self):
        f = parse_csl("P<0.5 [ (S+I>50 & !(R=0)) | false U[1,2] (2*I<=10) ]")
        assert isinstance(f.path.phi1, Or)
        left = f.path.phi1.left
        assert isinstance(left, And) and isinstance(left.right, Not)
        assert f.path.phi2 == Comparison((("I", 2),), "<=", 10)

    def test_parse_errors_are_total_not_crashes(self):
        bad = [
            "", "P", "P>", "P>0.1", "P>0.1 [", "P>0.1 [ I>0 U[1,2] ]",
            "P=0.1 [ true U[0,1] true ]", "P>0.1 [ true U[0,1] true ] extra",
            "P>0.1 [ (I>%) U[0,1] true ]", "P>0.1 [ 3<4 U[0,1] true ]",
        ]
        for text in bad:
            with pytest.raises(ParseError):
                parse_csl(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_csl("P>0.1 [ (I>#) U[0,1] (I=0) ]")


class TestRoundTrip:
    def test_case_study_print_parse_identity_up_to_whitespace(self):
        printed = format_csl(parse_csl(CASE_STUDY))
        assert printed.replace(" ", "") == CASE_STUDY.replace(" ", "")

    def test_parse_of_print_is_identity_on_random_asts(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            ast = _random_formula(rng)
            assert parse_csl(format_csl(ast)) == ast


def _random_state(rng, depth=0):
    pick = rng.integers(0, 5 if depth < 3 else 2)
    if pick == 0:
        return BoolLiteral(bool(rng.integers(0, 2)))
    if pick == 1:
        names = ["S", "I", "R"]
        k = int(rng.integers(1, 3))
        chosen = sorted(rng.choice(names, size=k, replace=False))
        terms = tuple((n, int(rng.integers(-3, 4)) or 1) for n in chosen)
        op = str(rng.choice(["=", "!=", "<", "<=", ">", ">="]))
        return Comparison(terms, op, int(rng.integers(-20, 120)))
    if pick == 2:
        return Not(_random_state(rng, depth + 1))
    if pick == 3:
        return And(_random_state(rng, depth + 1), _random_state(rng, depth + 1))
    return Or(_random_state(rng, depth + 1), _random_state(rng, depth + 1))


def _random_formula(rng):
    t_lo = float(np.round(rng.uniform(0, 50), 3))
    return CslFormula(
        relation=str(rng.choice(["<", "<=", ">", ">="])),
        bound=float(np.round(rng.uniform(0, 1), 4)),
        path=BoundedUntil(
            phi1=_random_state(rng),
            phi2=_random_state(rng),
            t_lo=t_lo,
            t_hi=t_lo + float(np.round(rng.uniform(0, 100), 3)),
        ),
    )


class TestEvaluation:
    def test_mask_over_state_array(self):
        f = parse_csl(CASE_STUDY)
        states = np.array([[95, 5, 0], [95, 0, 5], [0, 100, 0]])
        index = {"S": 0, "I": 1, "R": 2}
        assert f.path.phi1.mask(states, index).tolist() == [True, False, True]
        assert f.path.phi2.mask(states, index).tolist() == [False, True, False]

    def test_linear_combination(self):
        f = parse_csl("P>0 [ (S+2*I>=100) U[0,1] true ]")
        states = np.array([[95, 5, 0], [90, 4, 6]])
        index = {"S": 0, "I": 1, "R": 2}
        assert f.path.phi1.mask(states, index).tolist() == [True, False]

    @pytest.mark.parametrize("op, want", [
        ("=", [True, False, False]), ("!=", [False, True, True]), ("<", [False, False, True]),
        ("<=", [True, False, True]), (">", [False, True, False]), (">=", [True, True, False]),
    ])
    def test_float_states(self, op, want):
        # the simulator's states are float counts: with a negative
        # coefficient, every operator answers as on integer states
        f = parse_csl(f"P>0 [ (S-3*I{op}80) U[0,1] true ]")
        states = np.array([[95, 5, 0], [95, 4, 1], [90, 5, 5]])
        index = {"S": 0, "I": 1, "R": 2}
        for x in (states, states.astype(float)):
            assert f.path.phi1.mask(x, index).tolist() == want

    def test_unknown_species_raises(self):
        f = parse_csl("P>0 [ (Z>0) U[0,1] true ]")
        with pytest.raises(ParseError, match="Z"):
            f.path.phi1.mask(np.array([[1, 2]]), {"A": 0, "B": 1})
