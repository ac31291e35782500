"""Uniformization against closed forms, a dense matrix-exponential oracle,
and the one-lane Poisson series the package ran before its lanes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from crnverify import (
    CrnVerifyError,
    UniformizedChain,
    bounded_until_prob,
    build_chain,
    check_threshold,
    parse_crn,
    parse_csl,
    rate_matrix_row,
    transient,
)
from crnverify.csl import BoolLiteral, Comparison
from crnverify.model import point_values
from crnverify.transient import _combine, _poisson_weights, evaluator_for

REPO = Path(__file__).resolve().parents[1]
# crnverify.transient the attribute is the re-exported function
TRANSIENT = sys.modules["crnverify.transient"]

AB = parse_crn("format=1; species A B; param k in [0.1, 10]; reaction decay: A -> B @ k; init A=1;")
K_ONE = (1.0,)


def random_generator_matrix(rng, n):
    """Dense random CTMC rates in [0.1, 5] with some transitions knocked out."""
    R = rng.uniform(0.1, 5.0, size=(n, n))
    R[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(R, 0.0)
    return R


def expm_distribution(R, pi0, t):
    """Oracle: dense matrix exponential of the generator."""
    Q = R - np.diag(R.sum(axis=1))
    return pi0 @ expm(Q * t)


class TestTransient:
    def test_time_zero_returns_initial(self):
        R = np.array([[0.0, 2.0], [1.0, 0.0]])
        chain = UniformizedChain.from_rate_matrix(R)
        pi0 = np.array([0.3, 0.7])
        assert np.array_equal(transient(chain, pi0, 0.0), pi0)

    def test_two_state_closed_form(self):
        R = np.array([[0.0, 1.0], [0.0, 0.0]])
        chain = UniformizedChain.from_rate_matrix(R)
        pi = transient(chain, np.array([1.0, 0.0]), 1.0, tol=1e-12)
        assert pi[1] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)

    def test_three_state_birth_chain_vs_expm(self):
        R = np.zeros((3, 3))
        R[0, 1] = 1.3
        R[1, 2] = 0.4
        chain = UniformizedChain.from_rate_matrix(R)
        pi0 = np.array([1.0, 0.0, 0.0])
        got = transient(chain, pi0, 0.7, tol=1e-12)
        want = expm_distribution(R, pi0, 0.7)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_no_transitions_returns_initial(self):
        chain = UniformizedChain.from_rate_matrix(np.zeros((3, 3)))
        pi0 = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(transient(chain, pi0, 5.0), pi0)

    def test_matches_expm_oracle_on_random_chains(self):
        rng = np.random.default_rng(1234)
        for trial in range(120):
            n = int(rng.integers(2, 7))
            R = random_generator_matrix(rng, n)
            chain = UniformizedChain.from_rate_matrix(R)
            pi0 = rng.dirichlet(np.ones(n))
            for t in (0.1, 1.0, 10.0):
                got = transient(chain, pi0, t)
                want = expm_distribution(R, pi0, t)
                assert np.max(np.abs(got - want)) < 1e-8

    def test_probability_conservation_before_renormalization(self):
        rng = np.random.default_rng(77)
        tol = 1e-10
        for _ in range(20):
            R = random_generator_matrix(rng, 5)
            chain = UniformizedChain.from_rate_matrix(R)
            pi = transient(chain, np.eye(5)[0], 3.0, tol=tol)
            assert abs(pi.sum() - 1.0) <= 2 * tol

    def test_row_stochastic_within_tolerance(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            chain = UniformizedChain.from_rate_matrix(random_generator_matrix(rng, 6))
            assert chain.row_sum_defect() <= 1e-12
            assert chain.P.min() >= 0.0
            assert chain.P.max() <= 1.0


class TestPoissonWeights:
    @pytest.mark.parametrize("qt", [1e-3, 0.5, 7.0, 150.0, 3000.0])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_bit_equal_to_scipy_stats(self, qt, tol):
        from scipy.stats import poisson  # the reference only

        k_max = int(poisson.isf(tol, qt)) + 1
        while poisson.sf(k_max, qt) > tol:
            k_max += max(1, k_max // 10)
        want = poisson.pmf(np.arange(k_max + 1), qt)
        got = _poisson_weights(qt, tol)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, crnverify.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "False"


def until_oracle(R, phi1_mask, phi2_mask, init_idx, t_lo, t_hi):
    """Independent two-phase computation built on the dense matrix exponential."""
    n = R.shape[0]
    phi1 = np.asarray(phi1_mask, dtype=bool)
    phi2 = np.asarray(phi2_mask, dtype=bool)
    R2 = R.copy()
    R2[~phi1 | phi2, :] = 0.0
    values = expm_distribution(R2, np.eye(n), t_hi - t_lo) @ phi2.astype(float)
    if t_lo == 0:
        if phi2[init_idx]:
            return 1.0
        if not phi1[init_idx]:
            return 0.0
        return float(values[init_idx])
    R1 = R.copy()
    R1[~phi1, :] = 0.0
    pi_t = expm_distribution(R1, np.eye(n)[init_idx], t_lo)
    return float(pi_t[phi1] @ values[phi1])


class TestBoundedUntil:
    def test_two_state_reach_closed_form(self):
        f = parse_csl("P>0.5 [ true U[1,2] (B=1) ]")
        got = bounded_until_prob(AB, K_ONE, f.path.phi1, f.path.phi2, 1.0, 2.0, tol=1e-12)
        assert got == pytest.approx(1.0 - np.exp(-2.0), abs=1e-9)

    def test_immediate_witness_at_time_zero(self):
        phi2 = Comparison((("A", 1),), "=", 1)  # holds in the initial state
        got = bounded_until_prob(AB, K_ONE, BoolLiteral(False), phi2, 0.0, 0.0)
        assert got == 1.0

    def test_matches_dense_oracle_on_random_chains(self):
        # random chains come from random two-reaction networks so the same
        # machinery builds both the production chain and the oracle input
        rng = np.random.default_rng(555)
        nets = [
            (
                "format=1; species A B C;"
                "param k1 in [0.01, 10]; param k2 in [0.01, 10];"
                "reaction r1: A -> B @ k1; reaction r2: B -> C @ k2;"
                "init A=2; conserve 2;"
            ),
            (
                "format=1; species A B;"
                "param k1 in [0.01, 10]; param k2 in [0.01, 10];"
                "reaction r1: A -> B @ k1; reaction r2: B -> A @ k2;"
                "init A=3, B=0; conserve 3;"
            ),
        ]
        for src in nets:
            pcrn = parse_crn(src)
            chain, space = build_chain(pcrn, (1.0, 1.0))
            n = len(space)
            for _ in range(25):
                point = tuple(rng.uniform(0.1, 5.0, size=2))
                R = np.zeros((n, n))
                for i in range(n):
                    row = rate_matrix_row(tuple(space.states[i]), pcrn, point, space)
                    for target, rate in row.items():
                        R[i, space.ordinal(target)] = rate
                phi1_mask = rng.random(n) < 0.7
                phi2_mask = rng.random(n) < 0.4
                t_lo = float(rng.uniform(0, 1.5)) if rng.random() < 0.7 else 0.0
                t_hi = t_lo + float(rng.uniform(0, 2.0))
                want = until_oracle(R, phi1_mask, phi2_mask, space.ordinal(pcrn.initial_state), t_lo, t_hi)
                got = _evaluate_with_masks(pcrn, point, phi1_mask, phi2_mask, space, t_lo, t_hi)
                assert got == pytest.approx(want, abs=1e-8)

    def test_monotone_in_window_end(self):
        rng = np.random.default_rng(666)
        pcrn = parse_crn(
            "format=1; species A B;"
            "param k1 in [0.01, 10]; param k2 in [0.01, 10];"
            "reaction r1: A -> B @ k1; reaction r2: B -> A @ k2;"
            "init A=2, B=0; conserve 2;"
        )
        space = build_chain(pcrn, (1.0, 1.0))[1]
        n = len(space)
        for _ in range(20):
            point = tuple(rng.uniform(0.1, 5.0, size=2))
            phi1_mask = rng.random(n) < 0.8
            phi2_mask = rng.random(n) < 0.4
            t_lo = float(rng.uniform(0, 1.0))
            ends = t_lo + np.sort(rng.uniform(0, 3.0, size=3))
            vals = [
                _evaluate_with_masks(pcrn, point, phi1_mask, phi2_mask, space, t_lo, t)
                for t in ends
            ]
            assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9

    def test_values_stay_in_unit_interval(self):
        f = parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]")
        sir = parse_crn(
            "format=1; species S I R;"
            "param ki in [5e-5, 0.003]; param kr in [0.005, 0.2];"
            "reaction infect: S + I -> I + I @ ki; reaction recover: I -> R @ kr;"
            "init S=95, I=5, R=0; conserve 100;"
        )
        ev = evaluator_for(sir, f)
        for vals in [(5e-5, 0.005), (0.003, 0.2), (0.003, 0.005), (5e-5, 0.2)]:
            v = ev.probability(vals, tol=1e-8)
            assert 0.0 <= v <= 1.0


class TestNumericalDefect:
    F = parse_csl("P>0.5 [ true U[1,2] (B=1) ]")

    def _fake_series(self, monkeypatch, value):
        monkeypatch.setattr(TRANSIENT, "_poisson_series", lambda Ps, V, qts, tol: np.full(V.shape, value))

    def test_excess_within_tolerance_is_clipped(self, monkeypatch):
        self._fake_series(monkeypatch, 1.0 + 5e-11)
        assert evaluator_for(AB, self.F).probability(K_ONE, tol=1e-10) == 1.0
        self._fake_series(monkeypatch, -5e-11)
        assert evaluator_for(AB, self.F).probability(K_ONE, tol=1e-10) == 0.0

    @pytest.mark.parametrize("value", [1.0 + 1e-6, -1e-6, float("nan")])
    def test_excess_beyond_tolerance_raises(self, monkeypatch, value):
        self._fake_series(monkeypatch, value)
        with pytest.raises(CrnVerifyError, match="'k': 1.0"):
            evaluator_for(AB, self.F).probability(K_ONE, tol=1e-10)

    def test_error_names_the_bad_lane(self, monkeypatch):
        # every lane's series reads 0.5 except the lane at k = 3
        bad_qt = UniformizedChain.from_rate_matrix(np.array([[0.0, 3.0], [0.0, 0.0]])).q
        monkeypatch.setattr(
            TRANSIENT, "_poisson_series",
            lambda Ps, V, qts, tol: np.where(np.array(qts)[:, None] == bad_qt, 1.5, 0.5) * np.ones(V.shape),
        )
        evaluator = evaluator_for(AB, self.F)
        assert evaluator.probabilities([(1.0,), (2.0,), (4.0,)], tol=1e-10).tolist() == [0.5] * 3
        with pytest.raises(CrnVerifyError, match=r"1\.5 at \{'k': 3\.0\}"):
            evaluator.probabilities([(1.0,), (2.0,), (3.0,), (4.0,)], tol=1e-10)


# ---------------------------------------------------------------------------
# Lanes against the one-lane series.


def reference_series(M, v, qt, tol):
    """The one-lane loop: sum_k pois(k; qt) M^k v through scipy's ``M @ v``."""
    if qt == 0:
        return v
    acc = np.zeros_like(v)
    for k, w in enumerate(_poisson_weights(qt, tol)):
        if k:
            v = M @ v
        if w > 0.0:
            acc += w * v
    return acc


def reference_until(evaluator, point, tol):
    """One point's until probability from ``reference_series``, both
    phases on chains built by ``UniformizedChain.from_rate_matrix``."""
    rates = point_values(evaluator.pcrn.params.names, point)
    init = evaluator.init_idx
    chain2 = UniformizedChain.from_rate_matrix(_combine(evaluator._basis2, rates))
    values = reference_series(
        chain2.P, evaluator.mask2.astype(float), chain2.q * (evaluator.t_hi - evaluator.t_lo), tol
    )
    if evaluator.t_lo == 0:
        result = values[init]
        if evaluator.mask2[init]:
            result = 1.0
        elif not evaluator.mask1[init]:
            result = 0.0
    else:
        chain1 = UniformizedChain.from_rate_matrix(_combine(evaluator._basis1, rates))
        result = reference_series(chain1.P, evaluator.mask1 * values, chain1.q * evaluator.t_lo, tol)[init]
    return float(min(max(result, 0.0), 1.0))


DECAY = parse_crn(
    "format=1; species A B; param k in [0, 10];"
    "reaction decay: A -> B @ k; init A=50; conserve 50;"
)
SIR = parse_crn(
    "format=1; species S I R;"
    "param ki in [5e-5, 0.003]; param kr in [0.005, 0.2];"
    "reaction infect: S + I -> I + I @ ki; reaction recover: I -> R @ kr;"
    "init S=95, I=5, R=0; conserve 100;"
)
DECAY_FORMULAS = [
    "P>0.5 [ (B<25) U[0.5,1.5] (B>=25) ]",
    "P>0.5 [ true U[0,2] (B>=25) ]",  # t_lo = 0: phase 2 alone
    "P>0.5 [ (B>=1) U[0,2] (B>=25) ]",  # t_lo = 0 with the initial state outside phi1
]


def _assert_lanes_match_reference(pcrn, formula, points, tol=1e-8):
    evaluator = evaluator_for(pcrn, parse_csl(formula))
    got = evaluator.probabilities(points, tol)
    want = [reference_until(evaluator, p, tol) for p in points]
    assert got.shape == (len(points),)
    # bit for bit, so every lane's value equals its evaluation alone
    assert got.tolist() == want
    return evaluator


class TestLanesMatchReference:
    @pytest.mark.parametrize("formula", DECAY_FORMULAS)
    def test_random_decay_points(self, formula):
        points = np.random.default_rng(1).uniform(0.0, 10.0, size=(40, 1))
        _assert_lanes_match_reference(DECAY, formula, points)

    def test_random_sir_points(self):
        rng = np.random.default_rng(2)
        points = SIR.params.lower + (SIR.params.upper - SIR.params.lower) * rng.random((6, 2))
        _assert_lanes_match_reference(SIR, "P>0.1 [ (I>0) U[100,150] (I=0) ]", points)

    def test_unsorted_lanes_of_different_lengths(self):
        points = [(0.5,), (9.0,), (2.0,), (0.05,), (7.0,), (0.5,)]
        evaluator = _assert_lanes_match_reference(DECAY, DECAY_FORMULAS[0], points)
        qs = [UniformizedChain.from_rate_matrix(_combine(evaluator._basis2, p)).q for p in points]
        assert len({len(_poisson_weights(q, 1e-8)) for q in qs}) == 5

    @pytest.mark.parametrize("formula", DECAY_FORMULAS)
    def test_zero_rate_lane(self, formula):
        # k = 0: q = 0 in both phases, so the lane's series is its vector
        _assert_lanes_match_reference(DECAY, formula, [(3.0,), (0.0,), (1.0,), (0.0,)])

    def test_duplicates_and_empty(self):
        evaluator = _assert_lanes_match_reference(DECAY, DECAY_FORMULAS[0], [(2.0,), (2.0,), (5.0,), (2.0,)])
        assert evaluator.probabilities([], 1e-8).shape == (0,)

    @pytest.mark.parametrize("cap", [1, 250, 1000])
    def test_level_spans_several_blocks(self, monkeypatch, cap):
        # a decay lane stores at most 101 entries: 1, 2 and 9 lanes a block
        monkeypatch.setattr(TRANSIENT, "_BLOCK_NNZ", cap)
        points = np.random.default_rng(3).uniform(0.0, 10.0, size=(23, 1))
        points[[4, 17]] = 0.0
        for formula in DECAY_FORMULAS:
            _assert_lanes_match_reference(DECAY, formula, points)

    def test_probability_is_the_one_lane_call(self):
        evaluator = evaluator_for(SIR, parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]"))
        assert evaluator.probability((0.002, 0.05), 1e-8) == reference_until(evaluator, (0.002, 0.05), 1e-8)

    def test_transient_matches_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            chain = UniformizedChain.from_rate_matrix(random_generator_matrix(rng, n))
            pi0 = rng.dirichlet(np.ones(n))
            for t in (0.0, 0.3, 4.0):
                want = reference_series(chain.P.T, pi0, chain.q * t, 1e-10)
                assert transient(chain, pi0, t, tol=1e-10).tolist() == want.tolist()

    def test_transient_rejects_mismatched_initial(self):
        chain = UniformizedChain.from_rate_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="length 3"):
            transient(chain, np.ones(3) / 3, 1.0)


def _evaluate_with_masks(pcrn, point, phi1_mask, phi2_mask, space, t_lo, t_hi):
    """Drive the production evaluator with arbitrary state-set masks."""
    from crnverify.transient import UntilEvaluator

    phi1 = _MaskFormula(space, phi1_mask)
    phi2 = _MaskFormula(space, phi2_mask)
    return UntilEvaluator(pcrn, phi1, phi2, t_lo, t_hi).probability(point, tol=1e-12)


class _MaskFormula:
    """State formula given directly as a membership mask over a state space."""

    def __init__(self, space, mask):
        self._index = {tuple(s): bool(m) for s, m in zip(space.states.tolist(), mask)}

    def mask(self, states, index):
        return np.array([self._index[tuple(s)] for s in states.tolist()])

    def holds(self, state, index):
        return self._index[tuple(state)]


class TestCheckThreshold:
    def test_sir_ground_truth_points(self):
        sir = parse_crn(
            "format=1; species S I R;"
            "param ki in [5e-5, 0.003]; param kr in [0.005, 0.2];"
            "reaction infect: S + I -> I + I @ ki; reaction recover: I -> R @ kr;"
            "init S=95, I=5, R=0; conserve 100;"
        )
        f = parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]")
        assert check_threshold(sir, (0.002, 0.05), f, tol=1e-8)
        assert not check_threshold(sir, (0.002, 0.18), f, tol=1e-8)

    def test_zero_bound_with_geq_always_true(self):
        f = parse_csl("P>=0 [ (B=1) U[0,1] (A=1) ]")
        assert check_threshold(AB, K_ONE, f)
