"""Network file grammar."""

import pytest

from crnverify import ParseError, parse_crn
from crnverify.crn_text import load_crn


def test_sir_file_parses(tmp_path):
    # mirrors the shipped model file
    src = (
        "format=1;\n"
        "species S I R;\n"
        "param ki in [5e-5, 0.003];\n"
        "param kr in [0.005, 0.2];\n"
        "reaction infect:  S + I -> I + I @ ki;\n"
        "reaction recover: I -> R @ kr;\n"
        "init S=95, I=5, R=0;\n"
        "conserve 100;\n"
    )
    pcrn = parse_crn(src)
    assert pcrn.species == ("S", "I", "R")
    assert pcrn.params.names == ("ki", "kr")
    assert pcrn.params.dims[0][1:] == (5e-5, 0.003)
    assert pcrn.initial_state == (95, 5, 0)
    assert pcrn.conserved_total == 100
    infect = pcrn.reactions[0]
    assert infect.reactants == ((0, 1), (1, 1))
    assert infect.change == (-1, 1, 0)
    assert infect.rate == 0 and infect.name == "infect"
    recover = pcrn.reactions[1]
    assert (recover.reactants, recover.change, recover.rate) == (((1, 1),), (0, -1, 1), 1)
    path = tmp_path / "m.crn"
    path.write_text(src)
    assert load_crn(path).species == ("S", "I", "R")


def test_empty_reaction_list_is_valid():
    pcrn = parse_crn("format=1; species A; param k in [0, 1]; init A=1;")
    assert pcrn.reactions == ()


def test_repeated_species_accumulates_count():
    pcrn = parse_crn(
        "format=1; species A B; param k in [0, 1]; reaction r: A + A -> B @ k; init A=2;"
    )
    assert pcrn.reactions[0].reactants == ((0, 2),)


def test_coefficient_prefix():
    pcrn = parse_crn(
        "format=1; species A B; param k in [0, 1]; reaction r: 2 A -> B @ k; init A=2;"
    )
    assert pcrn.reactions[0].reactants == ((0, 2),)
    assert pcrn.reactions[0].change == (-2, 1)


def test_reactions_compile_against_every_declared_species():
    # reactants sort by species index, and a species declared after the
    # reaction still gets its entry in the change
    pcrn = parse_crn(
        "format=1; species A B; param k in [0, 1]; reaction r: B + A -> 2 B @ k; species C; init A=1;"
    )
    assert pcrn.species == ("A", "B", "C")
    assert pcrn.reactions[0].reactants == ((0, 1), (1, 1))
    assert pcrn.reactions[0].change == (-1, 1, 0)


def test_empty_side_token():
    pcrn = parse_crn(
        "format=1; species A; param k in [0, 1]; reaction feed: 0 -> A @ k; init A=0; conserve 5;"
    )
    assert pcrn.reactions[0].reactants == ()
    assert pcrn.reactions[0].change == (1,)


def test_undeclared_species_in_reaction_names_it():
    with pytest.raises(ParseError, match="'Z'"):
        parse_crn("format=1; species A; param k in [0, 1]; reaction r: Z -> A @ k; init A=1;")


def test_negative_rate_bound_rejected():
    # every parameter is a rate constant, so a box reaching below zero
    # would let inference propose negative propensities
    with pytest.raises(ParseError, match="lower bound -1.0 must be nonnegative"):
        parse_crn("format=1; species A; param k in [-1, 1]; reaction r: A -> 0 @ k; init A=1;")
    parse_crn("format=1; species A; param k in [0, 1]; reaction r: A -> 0 @ k; init A=1;")


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError, match="duplicate parameter"):
        parse_crn("format=1; species A; param k in [0, 1]; param k in [0, 2]; init A=1;")


def test_malformed_arrow_rejected():
    with pytest.raises(ParseError, match="->"):
        parse_crn("format=1; species A B; param k in [0, 1]; reaction r: A B @ k; init A=1;")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_crn("format=1; species A B; param k in [0, 1]; reaction r: A => B @ k; init A=1;")


def test_missing_format_header_rejected():
    with pytest.raises(ParseError, match="format"):
        parse_crn("species A; param k in [0, 1]; init A=1;")


def test_wrong_format_version_rejected():
    with pytest.raises(ParseError, match="version"):
        parse_crn("format=2; species A; param k in [0, 1]; init A=1;")


def test_error_reports_line_and_column():
    try:
        parse_crn("format=1;\nspecies A;\nparam k in [2, 1];\ninit A=1;")
    except ParseError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected a parse error")


def test_zero_net_change_reaction_rejected():
    with pytest.raises(ParseError, match="zero net change"):
        parse_crn("format=1; species A; param k in [0, 1]; reaction r: A -> A @ k; init A=1;")


def test_undeclared_rate_parameter_rejected():
    with pytest.raises(ParseError, match="undeclared parameter"):
        parse_crn("format=1; species A B; param k in [0, 1]; reaction r: A -> B @ zz; init A=1;")


def test_comments_and_whitespace_ignored():
    pcrn = parse_crn(
        "# leading comment\nformat=1;  # trailing\n\nspecies A;\nparam k in [0, 1];\ninit A=1;"
    )
    assert pcrn.species == ("A",)


def test_no_partial_model_on_garbage():
    for text in ["", "format=1;", "format=1; species;", "format=1; species A; param k in [1];",
                 "format=1; species A; init A=;", "format=1; junk;"]:
        with pytest.raises(ParseError):
            parse_crn(text)
