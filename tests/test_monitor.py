"""Path checking of the bounded until, and the statistical estimator."""

import numpy as np
import pytest

from crnverify import Trajectory, estimate_lambda, parse_crn, parse_csl
from crnverify.rng import stream
from reference_ssa import check_until_paths

SIR = parse_crn(
    "format=1; species S I R;"
    "param ki in [5e-5, 0.003]; param kr in [0.005, 0.2];"
    "reaction infect: S + I -> I + I @ ki; reaction recover: I -> R @ kr;"
    "init S=95, I=5, R=0; conserve 100;"
)
INDEX = SIR.species_index()
CASE = parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]")
PHI1, PHI2 = CASE.path.phi1, CASE.path.phi2


def sir_path(jumps, horizon=200.0):
    """Build a path from (time, S, I, R) rows; first row must be at 0."""
    arr = np.array(jumps, dtype=float)
    return Trajectory(states=arr[:, 1:].astype(np.int64), times=arr[:, 0], horizon=horizon)


class TestCheckUntil:
    def test_extinction_inside_window(self):
        path = sir_path([(0, 95, 5, 0), (60, 50, 10, 40), (120, 50, 0, 50)])
        (sat,), (witness,) = check_until_paths([path], PHI1, PHI2, 100.0, 150.0, INDEX)
        assert sat and witness == pytest.approx(120.0)

    def test_extinction_before_window_violates(self):
        path = sir_path([(0, 95, 5, 0), (90, 60, 0, 40)])
        (sat,), (witness,) = check_until_paths([path], PHI1, PHI2, 100.0, 150.0, INDEX)
        assert not sat and np.isnan(witness)

    def test_never_extinct_violates(self):
        path = sir_path([(0, 95, 5, 0), (80, 40, 30, 30)])
        (sat,), (witness,) = check_until_paths([path], PHI1, PHI2, 100.0, 150.0, INDEX)
        assert not sat and np.isnan(witness)

    def test_witness_at_window_start_when_already_satisfying(self):
        # phi2 state entered before the window while phi1 held: the jump
        # into phi2 is itself the earliest candidate, but the state at the
        # window start is what fulfils the interval
        true_f = parse_csl("P>0 [ true U[10,20] (I=0) ]")
        path = sir_path([(0, 95, 5, 0), (5, 95, 0, 5)])
        (sat,), (witness,) = check_until_paths([path], true_f.path.phi1, true_f.path.phi2, 10.0, 20.0, INDEX)
        assert sat and witness == pytest.approx(10.0)

    def test_short_horizon_raises(self):
        path = sir_path([(0, 95, 5, 0)], horizon=100.0)
        with pytest.raises(ValueError):
            check_until_paths([path], PHI1, PHI2, 100.0, 150.0, INDEX)

    def test_refinement_invariance(self):
        rng = np.random.default_rng(414)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            times = np.concatenate([[0.0], np.sort(rng.uniform(0, 190, size=n - 1))]) if n > 1 else np.array([0.0])
            times = np.unique(times)
            i_counts = rng.integers(0, 3, size=len(times))
            rows = [(t, 50, i, 50 - i) for t, i in zip(times, i_counts)]
            path = sir_path(rows)
            t_lo = float(rng.uniform(0, 100))
            t_hi = t_lo + float(rng.uniform(0, 90))
            (base,), _ = check_until_paths([path], PHI1, PHI2, t_lo, t_hi, INDEX)
            # insert a redundant sample point inside a random interval
            k = int(rng.integers(0, len(times)))
            upper = times[k + 1] if k + 1 < len(times) else 200.0
            extra_t = float(rng.uniform(times[k], upper))
            if extra_t in path.times:
                continue
            new_rows = rows[: k + 1] + [(extra_t, *rows[k][1:])] + rows[k + 1:]
            (refined,), _ = check_until_paths([sir_path(new_rows)], PHI1, PHI2, t_lo, t_hi, INDEX)
            assert refined == base

    def test_window_widening_preserves_satisfaction(self):
        rng = np.random.default_rng(515)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            times = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, 190, size=n - 1))]))
            i_counts = rng.integers(0, 3, size=len(times))
            path = sir_path([(t, 50, i, 50 - i) for t, i in zip(times, i_counts)])
            t_lo = float(rng.uniform(0, 100))
            t_hi = t_lo + float(rng.uniform(0, 80))
            (sat,), _ = check_until_paths([path], PHI1, PHI2, t_lo, t_hi, INDEX)
            if not sat:
                continue
            (wider,), _ = check_until_paths([path], PHI1, PHI2, max(0.0, t_lo - 5.0), t_hi + 5.0, INDEX)
            assert wider

    def test_witness_lies_in_window(self):
        path = sir_path([(0, 95, 5, 0), (110, 60, 0, 40)])
        (sat,), (witness,) = check_until_paths([path], PHI1, PHI2, 100.0, 150.0, INDEX)
        assert sat and 100.0 <= witness <= 150.0


def binomial_halfwidth(p: float, n: int) -> float:
    """The 95% normal-approximation half-width of a fraction p of n runs."""
    return 1.96 * float(np.sqrt(p * (1.0 - p) / n))


class TestEstimateLambda:
    def test_trivially_true_formula(self):
        f = parse_csl("P>=0 [ true U[0,1] true ]")
        est = estimate_lambda(SIR, [(0.002, 0.05)], f, 50, [stream(1, 1)])
        assert est.dtype == float and est.tolist() == [1.0]
        assert binomial_halfwidth(est[0], 50) == 0.0

    def test_unsatisfiable_target(self):
        f = parse_csl("P>0 [ true U[0,5] (I>1000) ]")
        est = estimate_lambda(SIR, [(0.002, 0.05)], f, 50, [stream(2, 1)])[0]
        assert est == 0.0

    def test_reproducible_under_fixed_seed(self):
        point = (0.002, 0.05)
        a = estimate_lambda(SIR, [point], CASE, 200, [stream(3, 9)])[0]
        b = estimate_lambda(SIR, [point], CASE, 200, [stream(3, 9)])[0]
        assert a == b

    def test_mean_in_unit_interval(self):
        point = (0.001, 0.1)
        est = estimate_lambda(SIR, [point], CASE, 100, [stream(4, 1)])
        assert est.shape == (1,)
        assert 0.0 <= est[0] <= 1.0
        # a fraction of 100 runs
        assert est[0] * 100 == round(est[0] * 100)

    def test_agrees_with_exact_engine_on_case_study(self):
        # the two backends implement the same satisfaction probability
        from crnverify.transient import evaluator_for

        point = (0.002, 0.05)
        exact = evaluator_for(SIR, CASE).probability(point, tol=1e-8)
        est = estimate_lambda(SIR, [point], CASE, 1000, [stream(6, 2)])[0]
        assert abs(exact - est) <= binomial_halfwidth(est, 1000) + 0.02
