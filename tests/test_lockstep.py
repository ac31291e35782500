"""The lockstep SSA kernel and the array until check against one-path
reference implementations.

The references are the one-path Gillespie loop (``reference_ssa``) and the
interval scan below, which the package used before its paths ran in
lockstep.  Every lane of
``simulate_paths`` must equal the reference path bit for bit and leave its
generator at the same position; every path's until verdict and witness
must equal the scan's.
"""

import importlib

import numpy as np
import pytest

from crnverify import (
    ConfigError,
    ExperimentConfig,
    Trajectory,
    abcseq,
    check_until,
    discrepancy,
    estimate_lambda,
    observe,
    parse_crn,
    parse_csl,
    perturb,
    simulate,
)
from crnverify.abcsmc import (
    STATUS_ABORTED,
    STATUS_CONVERGED_EARLY,
    _STALL_FRACTION,
    _kernel_mixture_density,
    adaptive_threshold,
    kernel_covariance,
)
from crnverify.monitor import check_until_paths
from crnverify.rng import stream
from crnverify.simulate import simulate_paths
from reference_ssa import reference_simulate

SIM = importlib.import_module("crnverify.simulate")

DECAY = parse_crn(
    "format=1; species A B; param k in [0.1, 10];"
    "reaction decay: A -> B @ k; init A=50; conserve 50;"
)
SHORT_DECAY = parse_crn("format=1; species A B; param k in [0.1, 10]; reaction decay: A -> B @ k; init A=4;")
SIR = parse_crn(
    "format=1; species S I R;"
    "param ki in [5e-5, 0.003]; param kr in [0.005, 0.2];"
    "reaction infect: S + I -> I + I @ ki; reaction recover: I -> R @ kr;"
    "init S=95, I=5, R=0; conserve 100;"
)
INDEX = SIR.species_index()


# ---------------------------------------------------------------------------
# Reference implementations: one path at a time (the one-path Gillespie
# loop is ``reference_ssa.reference_simulate``).


def reference_until(traj, phi1, phi2, t_lo, t_hi, index):
    """(satisfied, witness time or None) by scanning the jump intervals."""
    m1 = phi1.mask(traj.states, index)
    m2 = phi2.mask(traj.states, index)
    times = traj.times
    n = len(times)
    for i in range(n):
        a = times[i]
        b = times[i + 1] if i + 1 < n else t_hi + 1.0
        if a > t_hi:
            break
        if m2[i]:
            lo = max(a, t_lo)
            if lo <= t_hi and lo < b and (lo == a or m1[i]):
                return True, float(lo)
        if not m1[i]:
            return False, None
    return False, None


def reference_abcseq(pcrn, data, config, batch=0):
    """The slot-by-slot sampler: every attempt simulated on its own."""
    m = config.abc_particles
    space = pcrn.params
    lo, hi = space.lower, space.upper
    t_end = float(data.times[-1])
    points = np.empty((m, len(lo)))
    distances = np.empty(m)
    for i in range(m):
        s = stream(config.seed, batch, 0, i)
        points[i] = lo + (hi - lo) * s.random(len(lo))
        distances[i] = discrepancy(data, reference_simulate(pcrn, points[i], t_end, s))
    attempts = m
    weights = np.full(m, 1.0 / m)
    thresholds = [float("inf")]
    result = dict(points=points, weights=weights, distances=distances, attempts=attempts,
                  thresholds=tuple(thresholds), status="ok")
    stall = 0
    for r in range(1, config.abc_rounds):
        eps = adaptive_threshold(distances)
        if np.isfinite(thresholds[-1]) and eps >= thresholds[-1] * (1.0 - _STALL_FRACTION):
            stall += 1
            if stall >= 2:
                return {**result, "status": STATUS_CONVERGED_EARLY}
        else:
            stall = 0
        thresholds.append(float(eps))
        cov = kernel_covariance(points, weights)
        chol = np.linalg.cholesky(cov)
        cum_weights = np.cumsum(weights)
        cum_weights[-1] = 1.0
        new_points = np.empty_like(points)
        new_distances = np.empty(m)
        for i in range(m):
            s = stream(config.seed, batch, r, i)
            for _ in range(config.abc_max_attempts):
                attempts += 1
                proposal = perturb(points[np.searchsorted(cum_weights, s.random())], chol, s)
                if not np.all((lo <= proposal) & (proposal <= hi)):
                    continue
                rho = discrepancy(data, reference_simulate(pcrn, proposal, t_end, s))
                if rho <= eps:
                    new_points[i], new_distances[i] = proposal, rho
                    break
            else:
                return {**result, "status": STATUS_ABORTED}
        new_weights = (1.0 / space.volume()) / _kernel_mixture_density(new_points, points, weights, cov)
        new_weights /= new_weights.sum()
        points, weights, distances = new_points, new_weights, new_distances
        result = dict(points=points, weights=weights, distances=distances, attempts=attempts,
                      thresholds=tuple(thresholds), status="ok")
    return result


# ---------------------------------------------------------------------------
# The kernel against the one-path loop.


def _assert_lanes_match_reference(pcrn, points, t_end, key):
    lanes = [stream(key, i) for i in range(len(points))]
    solo = [stream(key, i) for i in range(len(points))]
    paths = simulate_paths(pcrn, points, t_end, lanes)
    for i, (path, point) in enumerate(zip(paths, points)):
        ref = reference_simulate(pcrn, point, t_end, solo[i])
        assert path.states.dtype == ref.states.dtype
        assert np.array_equal(path.states, ref.states), f"lane {i}"
        assert np.array_equal(path.times, ref.times), f"lane {i}"
        assert path.horizon == ref.horizon
        # the generator sits where the one-path loop left it
        assert lanes[i].random() == solo[i].random(), f"lane {i}"
    return paths


def _sir_points(n, seed):
    rng = np.random.default_rng(seed)
    lo, hi = SIR.params.lower, SIR.params.upper
    return lo + (hi - lo) * rng.random((n, 2))


class TestKernelMatchesReference:
    def test_decay_lanes(self):
        points = np.linspace(0.1, 10.0, 40)[:, None]
        _assert_lanes_match_reference(DECAY, points, 3.0, 1)

    def test_sir_lanes(self):
        _assert_lanes_match_reference(SIR, _sir_points(30, 2), 150.0, 2)

    def test_refills_mid_path(self, monkeypatch):
        # three draws per block: both blocks refill many times within a path
        monkeypatch.setattr(SIM, "_BLOCK", 3)
        paths = _assert_lanes_match_reference(SIR, _sir_points(20, 3), 150.0, 3)
        assert max(len(p.times) for p in paths) > 10
        _assert_lanes_match_reference(DECAY, np.linspace(0.5, 5.0, 12)[:, None], 3.0, 4)

    def test_absorbing_lanes_end_on_different_steps(self):
        # A = 4 decays to 0 and absorbs; slow rates leave lanes that are
        # still running at the horizon
        points = np.array([[0.1], [0.3], [1.0], [3.0], [10.0], [10.0], [0.2]])
        paths = _assert_lanes_match_reference(SHORT_DECAY, points, 5.0, 5)
        events = [len(p.times) - 1 for p in paths]
        assert 4 in events and min(events) < 4
        assert paths[4].states[-1].tolist() == [0, 4]

    def test_absorbed_from_the_start(self):
        net = parse_crn("format=1; species A B; param k in [0.1, 10]; reaction decay: A -> B @ k; init B=2;")
        paths = _assert_lanes_match_reference(net, [[1.0], [2.0]], 5.0, 6)
        assert all(len(p.times) == 1 for p in paths)

    def test_no_reactions(self):
        net = parse_crn("format=1; species A; param k in [0, 1]; init A=3;")
        paths = _assert_lanes_match_reference(net, [[0.5], [0.1], [0.9]], 10.0, 7)
        assert [p.states.tolist() for p in paths] == [[[3]]] * 3

    def test_one_lane_call_is_simulate(self):
        ref = reference_simulate(SIR, (0.002, 0.05), 150.0, stream(8, 0))
        path = simulate(SIR, (0.002, 0.05), 150.0, stream(8, 0))
        assert np.array_equal(path.states, ref.states) and np.array_equal(path.times, ref.times)

    def test_shared_generator_rejected(self):
        rng = stream(9, 0)
        with pytest.raises(ValueError, match="own generator"):
            simulate_paths(DECAY, [[1.0], [1.0]], 3.0, [rng, rng])

    def test_points_must_match_lanes(self):
        with pytest.raises(ConfigError):
            simulate_paths(DECAY, [[1.0], [1.0]], 3.0, [stream(9, 1)])
        with pytest.raises(ConfigError):
            simulate_paths(SIR, [[1.0]], 3.0, [stream(9, 1)])

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigError):
            simulate_paths(DECAY, [[1.0]], 0.0, [stream(9, 2)])


class TestAbcseqMatchesReference:
    @pytest.fixture(scope="class")
    def data(self):
        traj = reference_simulate(DECAY, (1.0,), 3.0, stream(100, 0))
        return observe(traj, np.linspace(0.3, 3.0, 10), 0.0, stream(100, 1), species=DECAY.species_names())

    def _check(self, data, config):
        got = abcseq(DECAY, data, config)
        want = reference_abcseq(DECAY, data, config)
        assert got.status == want["status"]
        assert got.attempts == want["attempts"]
        assert got.thresholds == want["thresholds"]
        for name in ("points", "weights", "distances"):
            assert np.array_equal(getattr(got, name), want[name]), name
        return got

    def test_rounds(self, data):
        got = self._check(data, ExperimentConfig(seed=3, abc_particles=40, abc_rounds=4))
        assert got.status == "ok" and got.attempts > 40 * 4

    @pytest.mark.parametrize("max_attempts, last_round", [(3, 0), (8, 1)])
    def test_abort_at_tiny_max_attempts(self, data, max_attempts, last_round):
        # 8 attempts complete round 1 in waves, then abort round 2
        config = ExperimentConfig(seed=3, abc_particles=40, abc_rounds=6, abc_max_attempts=max_attempts)
        got = self._check(data, config)
        assert got.status == STATUS_ABORTED and got.round == last_round


# ---------------------------------------------------------------------------
# The array until check against the interval scan.

CASE = parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]").path
PHI1, PHI2 = CASE.phi1, CASE.phi2
TRUE = parse_csl("P>0 [ true U[0,1] (I=0) ]").path.phi1


def path_of(rows, horizon=200.0):
    """A path from (time, I) rows on a 100-molecule SIR manifold."""
    arr = np.array(rows, dtype=float)
    i = arr[:, 1].astype(np.int64)
    return Trajectory(states=np.stack([np.full_like(i, 50), i, 50 - i], axis=1), times=arr[:, 0], horizon=horizon)


def _assert_array_check_matches(paths, phi1, phi2, t_lo, t_hi):
    satisfied, witness = check_until_paths(paths, phi1, phi2, t_lo, t_hi, INDEX)
    assert satisfied.shape == witness.shape == (len(paths),)
    for k, path in enumerate(paths):
        ok, when = reference_until(path, phi1, phi2, t_lo, t_hi, INDEX)
        assert bool(satisfied[k]) == ok, k
        if ok:
            assert witness[k] == when, k
        else:
            assert np.isnan(witness[k]), k
        v = check_until(path, phi1, phi2, t_lo, t_hi, INDEX)
        assert (v.satisfied, v.witness_time) == (ok, when)
    return satisfied, witness


class TestArrayUntilCheck:
    def test_random_paths(self):
        rng = np.random.default_rng(616)
        paths = []
        for _ in range(300):
            n = int(rng.integers(1, 9))
            times = np.unique(np.concatenate([[0.0], rng.uniform(0, 190, size=n - 1)]))
            paths.append(path_of(list(zip(times, rng.integers(0, 3, size=len(times))))))
        for t_lo, t_hi in ((100.0, 150.0), (0.0, 50.0), (30.0, 30.0), (0.0, 190.0)):
            for phi1 in (PHI1, TRUE):
                _assert_array_check_matches(paths, phi1, PHI2, t_lo, t_hi)

    def test_witness_exactly_at_t_lo(self):
        sat, when = _assert_array_check_matches([path_of([(0, 5), (100, 0)])], PHI1, PHI2, 100.0, 150.0)
        assert sat[0] and when[0] == 100.0

    def test_jump_exactly_at_t_hi(self):
        sat, when = _assert_array_check_matches([path_of([(0, 5), (150, 0)])], PHI1, PHI2, 100.0, 150.0)
        assert sat[0] and when[0] == 150.0
        # a jump into phi2 just past the window is too late
        sat, _ = _assert_array_check_matches([path_of([(0, 5), (150.5, 0)])], PHI1, PHI2, 100.0, 150.0)
        assert not sat[0]

    def test_phi1_false_at_time_zero(self):
        # I = 0 from the start: phi1 fails at once, so only a witness at
        # time 0 could hold, and it needs t_lo = 0
        paths = [path_of([(0, 0), (20, 3)]), path_of([(0, 0)])]
        sat, _ = _assert_array_check_matches(paths, PHI1, PHI2, 10.0, 150.0)
        assert not sat.any()
        sat, when = _assert_array_check_matches(paths, PHI1, PHI2, 0.0, 150.0)
        assert sat.all() and (when == 0.0).all()

    def test_t_lo_zero(self):
        paths = [path_of([(0, 4), (3, 0)]), path_of([(0, 4), (3, 1), (9, 2)]), path_of([(0, 1), (0.5, 0)])]
        sat, when = _assert_array_check_matches(paths, PHI1, PHI2, 0.0, 5.0)
        assert sat.tolist() == [True, False, True] and when[0] == 3.0 and when[2] == 0.5

    def test_t_hi_zero_on_initial_state_paths(self):
        # the one-state paths estimate_lambda checks when the window is [0, 0]
        at_zero = path_of([(0, 0)], horizon=0.0)
        alive = path_of([(0, 2)], horizon=0.0)
        sat, when = _assert_array_check_matches([at_zero, alive], PHI1, PHI2, 0.0, 0.0)
        assert sat.tolist() == [True, False] and when[0] == 0.0

    def test_path_without_initial_state_rejected(self):
        # every path has a first interval, which the per-path reductions need
        with pytest.raises(ValueError, match="initial state"):
            Trajectory(states=np.empty((0, 3), dtype=np.int64), times=np.empty(0), horizon=1.0)

    def test_short_horizon_raises(self):
        with pytest.raises(ValueError):
            check_until_paths([path_of([(0, 1)], horizon=200.0), path_of([(0, 1)], horizon=90.0)],
                              PHI1, PHI2, 100.0, 150.0, INDEX)

    def test_simulated_paths(self):
        paths = [reference_simulate(SIR, (0.002, 0.05), 150.0, child) for child in stream(10, 0).spawn(200)]
        sat, _ = _assert_array_check_matches(paths, PHI1, PHI2, 100.0, 150.0)
        assert 0 < sat.sum() < 200


class TestEstimateLambdaMatchesReference:
    @pytest.mark.parametrize("prop", [
        "P>0.1 [ (I>0) U[100,150] (I=0) ]",
        "P>0.1 [ (I>0) U[0,40] (I<=2) ]",
        "P>0.1 [ (I>0) U[0,0] (I=5) ]",
    ])
    @pytest.mark.parametrize("lanes", [1024, 7])
    def test_same_count_as_one_path_at_a_time(self, prop, lanes, monkeypatch):
        # seven lanes per block: the 150 runs span 22 blocks
        monkeypatch.setattr(importlib.import_module("crnverify.monitor"), "_LANES", lanes)
        formula = parse_csl(prop)
        path = formula.path
        point = (0.002, 0.05)
        est = estimate_lambda(SIR, point, formula, 150, stream(11, 0))
        if path.t_hi > 0:
            paths = [reference_simulate(SIR, point, path.t_hi, c) for c in stream(11, 0).spawn(150)]
        else:
            start = Trajectory(states=np.array([SIR.initial_state]), times=np.array([0.0]), horizon=0.0)
            paths = [start] * 150
        hits = sum(reference_until(p, path.phi1, path.phi2, path.t_lo, path.t_hi, INDEX)[0] for p in paths)
        assert est.mean == hits / 150
