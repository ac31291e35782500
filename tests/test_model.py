"""Domain types, propensities, and state-space enumeration."""

import numpy as np
import pytest

from crnverify import (
    ConfigError,
    ParameterSpace,
    PCRN,
    Reaction,
    StateSpaceCapError,
    enumerate_states,
    parse_crn,
)
from crnverify.transient import _chain_basis
from reference_model import propensity, rate_matrix_row

SIR_SOURCE = """
format=1;
species S I R;
param ki in [5e-5, 0.003];
param kr in [0.005, 0.2];
reaction infect:  S + I -> I + I @ ki;
reaction recover: I -> R @ kr;
init S=95, I=5, R=0;
conserve 100;
"""

AB_SOURCE = """
format=1;
species A B;
param k in [0.1, 10];
reaction decay: A -> B @ k;
init A=1, B=0;
"""

THETA_PHI = (0.002, 0.05)


@pytest.fixture(scope="module")
def sir():
    return parse_crn(SIR_SOURCE)


def brute_force_reachable(pcrn):
    """Independent reachability closure: plain set fixpoint over reaction effects."""
    effects = []
    for r in pcrn.reactions:
        need = dict(r.reactants)
        delta = {i: d for i, d in enumerate(r.change) if d}
        effects.append((need, delta))
    frontier = {tuple(pcrn.initial_state)}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for state in frontier:
            for need, delta in effects:
                if any(state[i] < c for i, c in need.items()):
                    continue
                succ = list(state)
                for i, d in delta.items():
                    succ[i] += d
                if any(c < 0 for c in succ):
                    continue
                if pcrn.conserved_total is not None and sum(succ) > pcrn.conserved_total:
                    continue
                succ = tuple(succ)
                if succ not in seen:
                    seen.add(succ)
                    nxt.add(succ)
        frontier = nxt
    return seen


def exit_rate(state, pcrn, point):
    """Total rate of leaving ``state``: the sum of all reaction propensities."""
    return sum(propensity(pcrn, state, j, point) for j in range(len(pcrn.reactions)))


class TestPropensity:
    def test_sir_infection_by_hand(self, sir):
        # 0.002 * 95 * 5
        a = propensity(sir, (95, 5, 0), 0, THETA_PHI)
        assert a == pytest.approx(0.95)

    def test_zero_reactant_count_forces_zero(self, sir):
        assert propensity(sir, (95, 0, 5), 0, THETA_PHI) == 0.0

    def test_sir_recovery_by_hand(self, sir):
        a = propensity(sir, (0, 5, 95), 1, THETA_PHI)
        assert a == pytest.approx(0.25)

    def test_bimolecular_same_species_uses_falling_factorial(self):
        net = parse_crn(
            "format=1; species A B; param k in [0.1, 10];"
            "reaction dimerize: A + A -> B @ k; init A=4;"
        )
        a = propensity(net, (4, 0), 0, (1.0,))
        assert a == pytest.approx(4 * 3)
        # fewer molecules than the reaction's order: no combination exists
        assert propensity(net, (1, 0), 0, (1.0,)) == 0.0
        assert propensity(net, (0, 0), 0, (1.0,)) == 0.0

    def test_unknown_parameter_is_config_error(self, sir):
        with pytest.raises(ConfigError):
            propensity(sir, (95, 5, 0), 0, (1.0,))


class TestExitRate:
    def test_sir_initial_state(self, sir):
        assert exit_rate((95, 5, 0), sir, THETA_PHI) == pytest.approx(1.20)

    def test_absorbing_state_has_zero_exit(self, sir):
        assert exit_rate((100, 0, 0), sir, THETA_PHI) == 0.0

    def test_single_reaction_identity_case(self):
        net = parse_crn(AB_SOURCE)
        assert exit_rate((1, 0), net, (1.0,)) == pytest.approx(1.0)

    def test_exit_rate_equals_row_sum(self, sir):
        # the scalar kernel against the row map and the vectorized rate basis
        space, basis = _chain_basis(sir)
        R = sum(B * value for B, value in zip(basis, THETA_PHI))
        rng = np.random.default_rng(5)
        for i in rng.choice(len(space), size=40, replace=False):
            state = tuple(int(c) for c in space.states[i])
            row = rate_matrix_row(state, sir, THETA_PHI, space)
            assert exit_rate(state, sir, THETA_PHI) == pytest.approx(sum(row.values()), abs=1e-12)
            assert exit_rate(state, sir, THETA_PHI) == pytest.approx(R[i].sum(), abs=1e-12)


class TestEnumerateStates:
    def test_sir_count_matches_brute_force_closure(self, sir):
        space = enumerate_states(sir)
        oracle = brute_force_reachable(sir)
        assert set(map(tuple, space.states.tolist())) == oracle
        # frozen from the oracle: reachable (S, I) pairs with S <= 95, S+I <= 100
        assert len(space) == 5136

    def test_sir_states_conserve_total(self, sir):
        space = enumerate_states(sir)
        assert np.all(space.states.sum(axis=1) == 100)

    def test_two_state_decay_net(self):
        net = parse_crn(AB_SOURCE)
        space = enumerate_states(net)
        assert len(space) == 2

    def test_no_reactions_single_state(self):
        net = parse_crn("format=1; species A; param k in [0, 1] ; init A=3;")
        space = enumerate_states(net)
        assert len(space) == 1
        assert tuple(space.states[0]) == (3,)

    def test_cap_exceeded_is_explicit(self):
        net = parse_crn(
            "format=1; species A; param k in [0.1, 1];"
            "reaction grow: A -> 2 A @ k; init A=1;"
        )
        with pytest.raises(StateSpaceCapError):
            enumerate_states(net, max_states=50)

    def test_contains_initial_state_and_is_indexed(self, sir):
        space = enumerate_states(sir)
        i = space.ordinal((95, 5, 0))
        assert tuple(space.states[i]) == (95, 5, 0)

    def test_ordinals_invert_states(self, sir):
        space = enumerate_states(sir)
        assert np.array_equal(space.ordinals(space.states), np.arange(len(space)))
        assert np.all(np.diff(space.keys) > 0)

    def test_absent_states_are_minus_one(self, sir):
        space = enumerate_states(sir)
        # (96, 4, 0) is in range but unreachable; the others leave the key ranges
        absent = [(96, 4, 0), (-1, 5, 96), (95, 5, 0 + int(space.radices[2]))]
        assert space.ordinals(absent).tolist() == [-1, -1, -1]
        with pytest.raises(KeyError):
            space.ordinal((96, 4, 0))

    def test_out_of_range_rows_do_not_alias(self, sir):
        # each row below has the same mixed-radix number as a reachable state
        space = enumerate_states(sir)
        r1, r2 = (int(r) for r in space.radices[1:])
        s, i, r = (int(c) for c in space.states[len(space) // 2])
        aliases = [(s + 1, i - r1, r), (s, i - 1, r + r2)]
        assert space.ordinals(aliases).tolist() == [-1, -1]

    def test_keys_overflowing_int64_are_explicit(self):
        names = [f"X{i}" for i in range(20)]
        net = parse_crn(
            f"format=1; species {' '.join(names)}; param k in [0.1, 1];"
            f"init {', '.join(f'{n}=8' for n in names)};"
        )
        # radix 9 per species: 9**20 > 2**63 - 1
        with pytest.raises(StateSpaceCapError):
            enumerate_states(net)


class TestRateMatrixRow:
    def test_sir_initial_row_by_hand(self, sir):
        space = enumerate_states(sir)
        row = rate_matrix_row((95, 5, 0), sir, THETA_PHI, space)
        assert row == {
            (94, 6, 0): pytest.approx(0.95),
            (95, 4, 1): pytest.approx(0.25),
        }

    def test_absorbing_state_has_empty_row(self, sir):
        space = enumerate_states(sir)
        assert rate_matrix_row((95, 0, 5), sir, THETA_PHI, space) == {}

    def test_same_effect_reactions_sum(self):
        net = parse_crn(
            "format=1; species A B; param k1 in [0.1, 10]; param k2 in [0.1, 10];"
            "reaction r1: A -> B @ k1; reaction r2: A -> B @ k2; init A=1;"
        )
        space = enumerate_states(net)
        point = (0.3, 0.4)
        row = rate_matrix_row((1, 0), net, point, space)
        assert row == {(0, 1): pytest.approx(0.7)}


class TestTypes:
    def test_parameter_space_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            ParameterSpace((("k", 2.0, 1.0),))
        with pytest.raises(ConfigError):
            ParameterSpace((("k", 0.0, float("inf")),))
        with pytest.raises(ConfigError):
            ParameterSpace((("k", 0.0, 1.0), ("k", 0.0, 2.0)))

    def test_reaction_rejects_zero_net_change(self):
        with pytest.raises(ConfigError, match="reaction 'k' has zero net change"):
            PCRN(
                species=("A",),
                reactions=(Reaction(reactants=((0, 1),), change=(0,), rate=0),),
                params=ParameterSpace((("k", 0.0, 1.0),)),
                initial_state=(1,),
            )

    def test_pcrn_rejects_undeclared_rate_parameter(self):
        with pytest.raises(ConfigError, match="reaction 'r' uses undeclared parameter number 1"):
            PCRN(
                species=("A",),
                reactions=(Reaction(reactants=((0, 1),), change=(-1,), rate=1, name="r"),),
                params=ParameterSpace((("k", 0.0, 1.0),)),
                initial_state=(1,),
            )

    @pytest.mark.parametrize(
        "reaction, message",
        [
            (Reaction(reactants=((1, 1),), change=(-1,), rate=0, name="r"), "reaction 'r' has a reactant outside"),
            (Reaction(reactants=((0, 0),), change=(-1,), rate=0, name="r"), "reaction 'r' has a reactant outside"),
            (Reaction(reactants=((0, 1),), change=(-1, 0), rate=0, name="r"), "changes 2 species of 1"),
            (Reaction(reactants=((0, 1),), change=(-1,), rate=-1, name="r"), "undeclared parameter number -1"),
        ],
        ids=["species-index", "order", "change-length", "negative-rate"],
    )
    def test_pcrn_checks_the_index_form(self, reaction, message):
        with pytest.raises(ConfigError, match=message):
            PCRN(
                species=("A",),
                reactions=(reaction,),
                params=ParameterSpace((("k", 0.0, 1.0),)),
                initial_state=(1,),
            )

    def test_enumeration_is_order_independent(self, sir):
        # reversing the reaction list must yield the same set
        flipped = PCRN(
            species=sir.species,
            reactions=tuple(reversed(sir.reactions)),
            params=sir.params,
            initial_state=sir.initial_state,
            conserved_total=sir.conserved_total,
        )
        a = enumerate_states(sir)
        b = enumerate_states(flipped)
        assert set(map(tuple, a.states.tolist())) == set(map(tuple, b.states.tolist()))
