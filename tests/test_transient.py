"""Uniformization against closed forms, a dense matrix-exponential oracle,
and the one-lane Poisson series the package ran before its lanes; the
chain builder against an independent one made of scipy's sparse
constructors."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

import crnverify.transient as TRANSIENT
from crnverify import ConfigError, CrnVerifyError, enumerate_states, parse_crn, parse_csl
from crnverify.csl import BoolLiteral, BoundedUntil, Comparison
from crnverify.model import point_values
from crnverify.transient import (
    DEFAULT_TOL,
    RATE_MARGIN,
    UntilEvaluator,
    _LanePattern,
    _poisson_weights,
    evaluator_for,
)
from reference_chain import combine, reference_chain
from reference_model import rate_matrix_row

REPO = Path(__file__).resolve().parents[1]

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


def lane_chain(rates):
    """The lane builder's one-lane call on off-diagonal rates (diagonal
    entries and zeros dropped), the rates its one basis matrix at
    theta = 1: (pattern, q, P as CSR)."""
    R = sparse.coo_matrix(rates, dtype=float)
    keep = (R.row != R.col) & (R.data != 0)
    n = R.shape[0]
    lanes = _LanePattern((sparse.csr_matrix((R.data[keep], (R.row[keep], R.col[keep])), shape=(n, n)),), n)
    P, q = lanes.jump(np.ones((1, 1)))
    return lanes, float(q[0]), sparse.csr_matrix((P[0], lanes.indices, lanes.indptr), shape=(n, n))


def lane_series(rates, v, t, tol=DEFAULT_TOL):
    """The one-lane backward series sum_k pois(k; qt) P^k v of ``rates``."""
    lanes, _, _ = lane_chain(rates)
    return lanes.series(np.ones((1, 1)), np.asarray(v, dtype=float)[None, :], t, tol)[0]


class TestTransient:
    """The series every until evaluation runs, one lane at theta = 1,
    against closed forms and exp(Qt) v."""

    def test_time_zero_returns_initial(self):
        R = np.array([[0.0, 2.0], [1.0, 0.0]])
        v = np.array([0.3, 0.7])
        assert np.array_equal(lane_series(R, v, 0.0), v)

    def test_two_state_closed_form(self):
        R = np.array([[0.0, 1.0], [0.0, 0.0]])
        values = lane_series(R, np.array([0.0, 1.0]), 1.0, tol=1e-12)
        assert values[0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)

    def test_three_state_birth_chain_vs_expm(self):
        R = np.zeros((3, 3))
        R[0, 1] = 1.3
        R[1, 2] = 0.4
        v = np.array([0.2, 0.5, 1.0])
        got = lane_series(R, v, 0.7, tol=1e-12)
        want = expm_distribution(R, np.eye(3), 0.7) @ v
        assert np.max(np.abs(got - want)) < 1e-8

    def test_no_transitions_returns_initial(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(lane_series(np.zeros((3, 3)), v, 5.0), v)

    def test_matches_expm_oracle_on_random_chains(self):
        rng = np.random.default_rng(1234)
        for trial in range(120):
            n = int(rng.integers(2, 7))
            R = random_generator_matrix(rng, n)
            v = rng.dirichlet(np.ones(n))
            for t in (0.1, 1.0, 10.0):
                got = lane_series(R, v, t)
                want = expm_distribution(R, np.eye(n), t) @ v
                assert np.max(np.abs(got - want)) < 1e-8

    def test_probability_conservation_before_renormalization(self):
        # exp(Qt) 1 = 1: each state's truncated sum misses 1 by at most the
        # tail mass plus rounding
        rng = np.random.default_rng(77)
        tol = 1e-10
        for _ in range(20):
            values = lane_series(random_generator_matrix(rng, 5), np.ones(5), 3.0, tol=tol)
            assert np.abs(values - 1.0).max() <= 2 * tol

    def test_row_stochastic_within_tolerance(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            _, _, P = lane_chain(random_generator_matrix(rng, 6))
            assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
            assert P.min() >= 0.0
            assert P.max() <= 1.0


class TestChainBuilder:
    """``_LanePattern.jump``'s one-lane call must store what the
    scipy-constructor reference stores, bit for bit."""

    @staticmethod
    def _assert_same_chain(rates):
        (_, q, P), (want_q, want_P) = lane_chain(rates), reference_chain(rates)
        assert q == want_q
        for name in ("indptr", "indices", "data"):
            a, b = getattr(P, name), getattr(want_P, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        return q, P

    def test_random_chains(self):
        rng = np.random.default_rng(9)
        for trial in range(300):
            n = int(rng.integers(1, 9))
            R = rng.uniform(0.0, 5.0, (n, n)) * (rng.random((n, n)) < rng.random())
            if trial % 2:  # a given diagonal is ignored
                np.fill_diagonal(R, rng.uniform(0.0, 5.0, n))
            self._assert_same_chain(R if trial % 3 else sparse.csr_matrix(R))

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_rates_give_the_identity(self, n):
        for R in (np.zeros((n, n)), np.diag(np.arange(1.0, n + 1))):
            q, P = self._assert_same_chain(R)
            assert q == 0.0 and P.toarray().tolist() == np.eye(n).tolist()


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
        got = evaluator_for(AB, f).probability(K_ONE, tol=1e-12)
        assert got == pytest.approx(1.0 - np.exp(-2.0), abs=1e-9)

    def test_immediate_witness_at_time_zero(self):
        phi2 = Comparison((("A", 1),), "=", 1)  # holds in the initial state
        got = UntilEvaluator(AB, BoundedUntil(BoolLiteral(False), phi2, 0.0, 0.0)).probability(K_ONE)
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
            space = enumerate_states(pcrn)
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
        space = enumerate_states(pcrn)
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
        monkeypatch.setattr(
            TRANSIENT, "_poisson_series",
            lambda indptr, indices, data, V, qts, tol, cols=slice(None): np.full(V[:, cols].shape, value),
        )

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
        _, bad_qt, _ = lane_chain(np.array([[0.0, 3.0], [0.0, 0.0]]))
        monkeypatch.setattr(
            TRANSIENT, "_poisson_series",
            lambda indptr, indices, data, V, qts, tol, cols=slice(None):
                np.where(np.array(qts)[:, None] == bad_qt, 1.5, 0.5) * np.ones(V[:, cols].shape),
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
    phases on chains built by ``reference_chain``, which shares no code
    with the lanes' builder."""
    rates = point_values(evaluator.pcrn.params.names, point)
    init = evaluator.init_idx
    q2, P2 = reference_chain(combine(evaluator._basis2, rates))
    values = reference_series(P2, evaluator.mask2.astype(float), q2 * (evaluator.t_hi - evaluator.t_lo), tol)
    if evaluator.t_lo == 0:
        result = values[init]
        if evaluator.mask2[init]:
            result = 1.0
        elif not evaluator.mask1[init]:
            result = 0.0
    else:
        q1, P1 = reference_chain(combine(evaluator._basis1, rates))
        result = reference_series(P1, evaluator.mask1 * values, q1 * evaluator.t_lo, tol)[init]
    return float(min(max(result, 0.0), 1.0))


DECAY_TEXT = "format=1; species A B; param k in [0, 10]; reaction decay: A -> B @ k; init A=50; conserve 50;"
DECAY = parse_crn(DECAY_TEXT)
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
        qs = [reference_chain(combine(evaluator._basis2, p))[0] for p in points]
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

    def test_evaluator_is_built_once_per_process(self):
        # a network and a property parsed anew are equal keys: the second
        # call returns the first call's evaluator, so a forked worker reuses
        # its parent's
        first = evaluator_for(DECAY, parse_csl(DECAY_FORMULAS[0]))
        assert evaluator_for(parse_crn(DECAY_TEXT), parse_csl(DECAY_FORMULAS[0])) is first
        assert evaluator_for(DECAY, parse_csl(DECAY_FORMULAS[1])) is not first

    def test_probability_is_the_one_lane_call(self):
        evaluator = evaluator_for(SIR, parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]"))
        assert evaluator.probability((0.002, 0.05), 1e-8) == reference_until(evaluator, (0.002, 0.05), 1e-8)

    def test_transient_matches_reference(self):
        # the one-lane series against the loop through scipy's ``P @ v``
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            lanes, q, P = lane_chain(random_generator_matrix(rng, n))
            v = rng.dirichlet(np.ones(n))
            for t in (0.0, 0.3, 4.0):
                got = lanes.series(np.ones((1, 1)), v[None, :], t, 1e-10)[0]
                assert got.tolist() == reference_series(P, v, q * t, 1e-10).tolist()

    def test_transient_rejects_mismatched_initial(self):
        with pytest.raises(ValueError, match="length 3"):
            lane_series(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(3) / 3, 1.0)


class TestTolerance:
    @pytest.mark.parametrize("tol", [1e-17, 0.0, 1.0, float("nan")])
    def test_tolerance_out_of_range_is_rejected_before_any_series(self, monkeypatch, tol):
        # below machine epsilon, 1 - tol rounds to 1 and the Poisson
        # quantile is not finite
        monkeypatch.setattr(TRANSIENT, "_poisson_series", None)  # any series call would raise TypeError
        evaluator = evaluator_for(DECAY, parse_csl("P>0.5 [ true U[0,1] (B=1) ]"))
        with pytest.raises(ConfigError, match="machine epsilon"):
            evaluator.probability(K_ONE, tol=tol)

    def test_machine_epsilon_is_accepted(self):
        value = evaluator_for(AB, parse_csl("P>0.5 [ true U[0,1] (B=1) ]")).probability(K_ONE, tol=2.0**-52)
        assert value == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)


class TestSeriesBound:
    # 50 molecules at a rate bound of 2e10: qt near 1e12 over the unit window
    HUGE = DECAY_TEXT.replace("[0, 10]", "[0, 2e10]")

    def test_series_beyond_the_bound_fails_before_allocating(self):
        evaluator = evaluator_for(parse_crn(self.HUGE), parse_csl("P>0.5 [ true U[0,1] (B>=25) ]"))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="narrow the rate bounds"):
                evaluator.probabilities([(2e10,), (1.0,)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the weights alone would take terabytes

    def test_bound_counts_every_lane(self, monkeypatch):
        # three lanes of decay's longest series fit a bound of three lanes'
        # weights and fail one of two
        evaluator = evaluator_for(DECAY, parse_csl(DECAY_FORMULAS[1]))
        points = [(10.0,)] * 3
        want = evaluator.probabilities(points)
        terms = len(_poisson_weights(RATE_MARGIN * 500.0 * 2.0, DEFAULT_TOL))
        monkeypatch.setattr(TRANSIENT, "_MAX_WEIGHTS", 3 * terms)
        assert evaluator.probabilities(points).tolist() == want.tolist()
        monkeypatch.setattr(TRANSIENT, "_MAX_WEIGHTS", 2 * terms)
        with pytest.raises(ConfigError, match="x 3 lane"):
            evaluator.probabilities(points)


THREE_WAY = parse_crn(
    "format=1; species A B C; param k1 in [0, 2]; param k2 in [0, 2]; param k3 in [0, 2];"
    "reaction ab: A -> B @ k1; reaction ac: A -> C @ k2; reaction back: B -> A @ k3;"
    "init A=6; conserve 6;"
)


class TestLaneAssembly:
    def test_rows_of_three_entries_with_zero_rates(self):
        # each state has up to three exits, so rows hold three entries and
        # a zero rate leaves an explicit zero among them
        points = np.random.default_rng(5).uniform(0.0, 2.0, size=(12, 3))
        points[[1, 4, 9], [0, 1, 2]] = 0.0
        points[[7, 9]] = 0.0
        for formula in ("P>0.5 [ (C<3) U[0.5,2] (C>=3) ]", "P>0.5 [ true U[0,1] (B>=2) ]"):
            _assert_lanes_match_reference(THREE_WAY, formula, points)


def _evaluate_with_masks(pcrn, point, phi1_mask, phi2_mask, space, t_lo, t_hi):
    """Drive the production evaluator with arbitrary state-set masks."""
    phi1 = _MaskFormula(space, phi1_mask)
    phi2 = _MaskFormula(space, phi2_mask)
    return UntilEvaluator(pcrn, BoundedUntil(phi1, phi2, t_lo, t_hi)).probability(point, tol=1e-12)


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
        evaluator = evaluator_for(sir, f)
        assert f.compare(evaluator.probability((0.002, 0.05), tol=1e-8))
        assert not f.compare(evaluator.probability((0.002, 0.18), tol=1e-8))

    def test_zero_bound_with_geq_always_true(self):
        f = parse_csl("P>=0 [ (B=1) U[0,1] (A=1) ]")
        assert f.compare(evaluator_for(AB, f).probability(K_ONE))
