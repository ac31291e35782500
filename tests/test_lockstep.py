"""The lockstep SSA kernel, the wave sampler and the array until check
against one-path reference implementations.

The references are the one-path Gillespie loop (``reference_ssa``), which
reads only its own lane's column of a call's draw blocks, a sampler that
runs the wave contract one attempt at a time, and the interval scan
below.  Every lane of ``simulate_visits`` must equal the reference path bit
for bit; a one-lane call must also leave its generator where the loop
does.  Early rejection must accept exactly the lanes a run without it
accepts, with the same distances.  Every path's until verdict and witness
must equal the scan's, and the verdicts ``simulate_until`` reaches as its
lanes run must equal those of the stored paths.
"""

import importlib

import numpy as np
import pytest

import crnverify.simulate as SIM
from crnverify import (
    BoundedUntil,
    ConfigError,
    Dataset,
    ExperimentConfig,
    Trajectory,
    abcseq,
    estimate_lambda,
    observe,
    parse_crn,
    parse_csl,
    perturb,
)
from crnverify.abcsmc import (
    STATUS_ABORTED,
    STATUS_CONVERGED_EARLY,
    _STALL_FRACTION,
    _kernel_mixture_density,
    adaptive_threshold,
    kernel_covariance,
)
from crnverify.rng import STAGE_INFER, stream
from crnverify.simulate import simulate, simulate_distances
from reference_ssa import (
    _DrawBuffer,
    check_until_paths,
    discrepancy,
    reference_call,
    reference_simulate,
    simulate_paths,
)

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
    """The wave sampler, one attempt at a time: each lane's path from the
    one-path loop on its column of the wave's blocks, and each slot's
    attempts counted in lane order up to its first acceptance."""
    m = config.abc_particles
    space = pcrn.params
    lo, hi = space.lower, space.upper
    k = len(lo)
    t_end = float(data.times[-1])
    rng = stream(config.seed, STAGE_INFER, batch, 0, 0)
    points = lo + (hi - lo) * rng.random((m, k))
    paths = reference_call(pcrn, points, t_end, rng)
    distances = np.array([discrepancy(data, p) for p in paths])
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
        tries = [0] * m
        pending = list(range(m))
        want = 2 * m
        wave = 0
        while pending:
            if any(tries[i] >= config.abc_max_attempts for i in pending):
                return {**result, "status": STATUS_ABORTED}
            width = max(len(pending), min(want, SIM._LANES))
            slots = [pending[j % len(pending)] for j in range(width)
                     if j // len(pending) < config.abc_max_attempts - tries[pending[j % len(pending)]]]
            n = len(slots)
            rng = stream(config.seed, STAGE_INFER, batch, r, wave)
            ancestors = points[np.searchsorted(cum_weights, rng.random(n))]
            proposals = perturb(ancestors, chol, rng)
            inside = [bool(np.all((lo <= p) & (p <= hi))) for p in proposals]
            paths = iter(reference_call(pcrn, proposals[inside], t_end, rng) if any(inside) else [])
            won, accepted = set(), 0
            for j, slot in enumerate(slots):
                ok = False
                if inside[j]:
                    rho = discrepancy(data, next(paths))
                    ok = rho <= eps
                accepted += ok
                if slot in won:
                    continue  # a lane after the slot's winner: waste
                tries[slot] += 1
                if ok:
                    won.add(slot)
                    new_points[slot], new_distances[slot] = proposals[j], rho
            pending = [i for i in pending if i not in won]
            want = int(np.ceil(len(pending) / (accepted / n))) if accepted else SIM._LANES
            wave += 1
        attempts += sum(tries)
        new_weights = (1.0 / space.volume()) / _kernel_mixture_density(new_points, points, weights, cov)
        new_weights /= new_weights.sum()
        points, weights, distances = new_points, new_weights, new_distances
        result = dict(points=points, weights=weights, distances=distances, attempts=attempts,
                      thresholds=tuple(thresholds), status="ok")
    return result


# ---------------------------------------------------------------------------
# The kernel against the one-path loop.


def _assert_lanes_match_reference(pcrn, points, t_end, key):
    rng, solo = stream(key, 0), stream(key, 0)
    paths = simulate_paths(pcrn, points, t_end, rng)
    refs = reference_call(pcrn, points, t_end, solo)
    for i, (path, ref) in enumerate(zip(paths, refs)):
        assert path.states.dtype == ref.states.dtype
        assert np.array_equal(path.states, ref.states), f"lane {i}"
        assert np.array_equal(path.times, ref.times), f"lane {i}"
        assert path.horizon == ref.horizon
    # the call drew exactly the blocks its lanes needed
    assert rng.random() == solo.random()
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
        # one or three rows per block of 20 lanes: blocks refill many times
        # within a path
        for block in (3, 60):
            monkeypatch.setattr(SIM, "_BLOCK", block)
            paths = _assert_lanes_match_reference(SIR, _sir_points(20, 3), 150.0, 3)
            assert max(len(p.times) for p in paths) > 10
            _assert_lanes_match_reference(DECAY, np.linspace(0.5, 5.0, 12)[:, None], 3.0, 4)
            _assert_lanes_match_reference(SIR, _sir_points(1, 5), 150.0, 5)

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
        rng, solo = stream(8, 0), stream(8, 0)
        path = simulate(SIR, (0.002, 0.05), 150.0, rng)
        ref = reference_simulate(SIR, (0.002, 0.05), 150.0, solo)
        assert np.array_equal(path.states, ref.states) and np.array_equal(path.times, ref.times)
        # the generator sits where the one-path loop left it
        assert rng.random() == solo.random()

    @pytest.mark.parametrize("pcrn, point, t_end", [
        (SIR, (0.002, 0.05), 150.0),
        (SHORT_DECAY, (3.0,), 5.0),  # absorbs before the horizon
        (DECAY, (0.1,), 3.0),
    ])
    def test_simulate_is_lane_0_of_simulate_paths(self, pcrn, point, t_end):
        rng, paths_rng = stream(13, 0), stream(13, 0)
        path = simulate(pcrn, point, t_end, rng)
        (lane,) = simulate_paths(pcrn, [point], t_end, paths_rng)
        assert path.states.dtype == lane.states.dtype and path.horizon == lane.horizon
        assert np.array_equal(path.states, lane.states) and np.array_equal(path.times, lane.times)
        # the generator sits where the paths call left it
        assert rng.random(4).tolist() == paths_rng.random(4).tolist()

    @pytest.mark.parametrize("block", [256, 3])
    def test_one_lane_call_draws_single_blocks(self, monkeypatch, block):
        # one lane reads ``_BLOCK``-draw blocks of exponentials and uniforms,
        # refilled only when a draw needs them, as one path alone always has
        monkeypatch.setattr(SIM, "_BLOCK", block)
        for key, t_end in ((0, 150.0), (1, 20.0), (2, 400.0)):
            rng = stream(12, key)
            path = simulate(SIR, (0.002, 0.05), t_end, rng)
            solo = stream(12, key)
            draws, exps, unis = _DrawBuffer(solo), [], []
            for _ in range(len(path.times)):
                exps.append(draws.exponential())
                unis.append(draws.uniform())
            plain = stream(12, key)
            blocks = []
            while sum(map(len, blocks)) < 2 * len(exps):
                blocks += [plain.standard_exponential(block), plain.random(block)]
            assert exps == list(np.concatenate(blocks[0::2])[:len(exps)])
            assert unis == list(np.concatenate(blocks[1::2])[:len(unis)])
            ref = reference_simulate(SIR, (0.002, 0.05), t_end, stream(12, key))
            assert np.array_equal(path.times, ref.times) and np.array_equal(path.states, ref.states)

    def test_other_lanes_unchanged_when_one_absorbs(self):
        points = _sir_points(12, 9)
        paths = simulate_paths(SIR, points, 150.0, stream(9, 3))
        frozen = points.copy()
        frozen[[2, 7]] = 0.0  # no reaction can fire: absorbed from the start
        other = simulate_paths(SIR, frozen, 150.0, stream(9, 3))
        assert len(other[2].times) == len(other[7].times) == 1
        for i in set(range(12)) - {2, 7}:
            assert np.array_equal(paths[i].times, other[i].times), i
            assert np.array_equal(paths[i].states, other[i].states), i

    def test_points_must_match_lanes(self):
        with pytest.raises(ConfigError):
            simulate_paths(SIR, [[1.0]], 3.0, stream(9, 1))
        with pytest.raises(ConfigError):
            simulate_paths(DECAY, np.empty((0, 1)), 3.0, stream(9, 1))

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigError):
            simulate_paths(DECAY, [[1.0]], 0.0, stream(9, 2))


# ---------------------------------------------------------------------------
# The step cap: a network that is not conserved fails instead of growing.

GROWTH = parse_crn("format=1; species X; param k in [0.1, 10]; reaction split: X -> X + X @ k; init X=1;")


@pytest.mark.parametrize("mode", ["visits", "distances", "until"])
def test_growth_stops_at_the_step_cap(monkeypatch, mode):
    monkeypatch.setattr(SIM, "_MAX_STEPS", 64)
    call = {
        "visits": lambda rng: SIM.simulate_visits(GROWTH, [[1.0]], 30.0, rng),
        "distances": lambda rng: SIM.simulate_distances(GROWTH, [[1.0]], _dataset(GROWTH, [30.0], [[1.0]]),
                                                        np.inf, rng),
        "until": lambda rng: SIM.simulate_until(GROWTH, [[1.0]], parse_csl("P>0.5 [ true U[0,30] false ]").path,
                                                rng),
    }[mode]
    with pytest.raises(ConfigError, match="more than 64 steps to reach time 30"):
        call(stream(46, 0))


def test_a_call_may_take_exactly_the_cap(monkeypatch):
    # four molecules decay in four steps, then the lane absorbs
    monkeypatch.setattr(SIM, "_MAX_STEPS", 4)
    states, _, _ = SIM.simulate_visits(SHORT_DECAY, [[1.0]], 1e3, stream(47, 0))
    assert states[-1].tolist() == [0, 4]
    monkeypatch.setattr(SIM, "_MAX_STEPS", 3)
    with pytest.raises(ConfigError, match="more than 3 steps"):
        SIM.simulate_visits(SHORT_DECAY, [[1.0]], 1e3, stream(47, 0))


# ---------------------------------------------------------------------------
# Grouped calls against one call per group.


def _group_points():
    """Groups of 1, 3 and 300 SIR lanes, and a group of 3 whose fast
    recovery absorbs them long before the horizon."""
    fast = np.tile([[5e-5, 0.2]], (3, 1))
    return [_sir_points(1, 40), _sir_points(3, 41), _sir_points(300, 42), fast]


GROUP_EPS = [60.0, 90.0, 120.0, np.inf]  # one threshold per group


def _assert_groups_match_own_calls(run, key):
    """``run(points, eps, rng)`` on every group at once equals one call
    per group, and leaves each group's generator where its own call does."""
    groups = _group_points()
    rngs, solos = [stream(key, g) for g in range(len(groups))], [stream(key, g) for g in range(len(groups))]
    sizes = [len(points) for points in groups]
    together = run(np.concatenate(groups), np.repeat(GROUP_EPS, sizes), list(zip(rngs, sizes)))
    alone = [run(points, eps, solo) for points, eps, solo in zip(groups, GROUP_EPS, solos)]
    for rng, solo in zip(rngs, solos):
        assert rng.random() == solo.random()
    return together, alone


class TestGroupedCalls:
    @pytest.mark.parametrize("block", [256, 60, 3])
    def test_visits(self, monkeypatch, block):
        # 60 and 3 draws per block refill every group's blocks mid-path
        monkeypatch.setattr(SIM, "_BLOCK", block)
        (states, times, ends), alone = _assert_groups_match_own_calls(
            lambda points, eps, rng: SIM.simulate_visits(SIR, points, 150.0, rng), 30)
        lane = 0
        for g_states, g_times, g_ends in alone:
            rows = slice(ends[lane - 1] if lane else 0, ends[lane + len(g_ends) - 1])
            assert np.array_equal(states[rows], g_states) and np.array_equal(times[rows], g_times)
            lane += len(g_ends)
        # the fast group absorbed early: its paths end long before the horizon
        assert times[ends[-4]:].max() < 75.0

    @pytest.mark.parametrize("block", [256, 60, 3])
    def test_distances(self, monkeypatch, block):
        monkeypatch.setattr(SIM, "_BLOCK", block)
        truth = reference_simulate(SIR, (0.002, 0.05), 150.0, stream(31, 0))
        data = observe(truth, np.linspace(7.5, 150.0, 20), 0.0, stream(31, 1), species=SIR.species)
        together, alone = _assert_groups_match_own_calls(
            lambda points, eps, rng: simulate_distances(SIR, points, data, eps, rng), 32)
        assert together.tolist() == np.concatenate(alone).tolist()
        assert np.isinf(together).any() and np.isfinite(together).any()

    @pytest.mark.parametrize("block", [256, 60, 3])
    def test_until(self, monkeypatch, block):
        # runs stop once decided, and each group still draws what its own
        # call draws
        monkeypatch.setattr(SIM, "_BLOCK", block)
        together, alone = _assert_groups_match_own_calls(
            lambda points, eps, rng: SIM.simulate_until(SIR, points, CASE, rng), 45)
        stored = [_stored_verdicts(SIR, points, CASE, stream(45, g)) for g, points in enumerate(_group_points())]
        assert together.tolist() == np.concatenate(alone).tolist() == np.concatenate(stored).tolist()
        assert together.any() and not together.all()

    def test_groups_must_split_the_lanes(self):
        with pytest.raises(ConfigError, match="do not split"):
            SIM.simulate_visits(DECAY, [[1.0]] * 3, 3.0, [(stream(33, 0), 2)])
        with pytest.raises(ConfigError, match="do not split"):
            SIM.simulate_visits(DECAY, [[1.0]] * 3, 3.0, [(stream(33, 0), 3), (stream(33, 1), 0)])

    def test_thresholds_one_per_lane_and_nonnegative(self):
        data = _dataset(DECAY, [1.0, 2.0], [[40, 10], [30, 20]])
        with pytest.raises(ConfigError, match="thresholds"):
            simulate_distances(DECAY, [[1.0]] * 3, data, [1.0, 2.0], stream(34, 0))
        with pytest.raises(ConfigError, match="nonnegative"):
            simulate_distances(DECAY, [[1.0]] * 2, data, [1.0, np.nan], stream(34, 0))


# ---------------------------------------------------------------------------
# Verdicts decided in the kernel against the stored paths.

# per network: the case property, t_lo = 0, true U, an initial state
# outside phi1, and U[0,0] both ways
UNTIL_PROPS = {
    "decay": (DECAY, [
        "(B<25) U[0.5,1.5] (B>=25)", "(B<25) U[0,1.5] (B>=25)", "true U[0.5,1.5] (B>=25)",
        "(B>0) U[0.5,1.5] (B>=25)", "(B<25) U[0,0] (A>=50)", "(B<25) U[0,0] (B>=25)",
    ]),
    # A = 4 absorbs at [0, 4], at the fast rates long before t'
    "short-decay": (SHORT_DECAY, [
        "(A>0) U[2,5] (A=0)", "(A>0) U[0,5] (B>=3)", "true U[4,5] (A=0)",
        "(B>0) U[1,5] (A=0)", "(A>0) U[0,0] (A=4)", "(A>0) U[0,0] (A=0)",
    ]),
    "sir": (SIR, [
        "(I>0) U[100,150] (I=0)", "(I>0) U[0,40] (I<=2)", "true U[100,150] (I=0)",
        "(I>5) U[10,150] (I=0)", "(I>0) U[0,0] (I=5)", "(I>0) U[0,0] (I=0)",
    ]),
}


def _random_points(pcrn, n, rng):
    lo, hi = pcrn.params.lower, pcrn.params.upper
    return lo + (hi - lo) * rng.random((n, len(lo)))


def _stored_verdicts(pcrn, points, path, rng):
    """Each lane's verdict on its stored path from one call on ``rng``, by
    the moved checker, which must agree with the interval scan."""
    if path.t_hi > 0:
        paths = simulate_paths(pcrn, points, path.t_hi, rng)
    else:  # every run is its initial state alone
        start = Trajectory(states=np.array([pcrn.initial_state]), times=np.array([0.0]), horizon=0.0)
        paths = [start] * len(points)
    index = pcrn.species_index()
    stored, _ = check_until_paths(paths, path.phi1, path.phi2, path.t_lo, path.t_hi, index)
    assert stored.tolist() == [reference_until(p, path.phi1, path.phi2, path.t_lo, path.t_hi, index)[0]
                               for p in paths]
    return stored


class TestUntilMatchesStoredPaths:
    @pytest.mark.parametrize("network", list(UNTIL_PROPS))
    def test_random_points(self, network):
        pcrn, props = UNTIL_PROPS[network]
        rng = np.random.default_rng(707)
        for k, prop in enumerate(props):
            path = parse_csl(f"P>0.1 [ {prop} ]").path
            points = _random_points(pcrn, int(rng.integers(1, 90)), rng)
            want = _stored_verdicts(pcrn, points, path, stream(40, k))
            got = SIM.simulate_until(pcrn, points, path, stream(40, k))
            assert got.dtype == bool and got.tolist() == want.tolist(), prop

    @pytest.mark.parametrize("network", list(UNTIL_PROPS))
    def test_case_property_decides_both_ways(self, network):
        pcrn, props = UNTIL_PROPS[network]
        path = parse_csl(f"P>0.1 [ {props[0]} ]").path
        points = _random_points(pcrn, 200, np.random.default_rng(708))
        got = SIM.simulate_until(pcrn, points, path, stream(41, 0))
        assert got.tolist() == _stored_verdicts(pcrn, points, path, stream(41, 0)).tolist()
        assert got.any() and not got.all()

    def test_decided_lane_stops_at_once(self, monkeypatch):
        # phi1 fails at time 0: the lane leaves on its first step, before its
        # uniform, so the generator moves past the two first blocks only
        monkeypatch.setattr(SIM, "_BLOCK", 3)
        path = parse_csl("P>0.1 [ (B>0) U[0.5,1.5] (B>=25) ]").path
        rng, plain = stream(43, 0), stream(43, 0)
        assert SIM.simulate_until(DECAY, [[1.0]], path, rng).tolist() == [False]
        plain.standard_exponential(3)
        plain.random(3)
        assert rng.random() == plain.random()

    def test_t_hi_zero_draws_nothing(self):
        path = parse_csl("P>0.1 [ (I>0) U[0,0] (I=5) ]").path
        rng = stream(44, 0)
        assert SIM.simulate_until(SIR, _sir_points(5, 44), path, rng).tolist() == [True] * 5
        assert rng.random() == stream(44, 0).random()


# ---------------------------------------------------------------------------
# Early rejection against full distances.


def _dataset(pcrn, times, observations):
    return Dataset(times=np.asarray(times, dtype=float), observations=np.asarray(observations, dtype=float),
                   species=pcrn.species, sigma=0.0)


def _assert_early_rejection_exact(pcrn, points, data, eps, key):
    """One wave with and without early rejection, and its full paths; a
    float ``eps`` below 1 is taken as that quantile of the full distances."""
    t_end = float(data.times[-1])
    full = simulate_distances(pcrn, points, data, np.inf, stream(key, 0))
    if eps < 1:
        eps = float(np.quantile(full, eps))
    paths = simulate_paths(pcrn, points, t_end, stream(key, 0))
    assert full.tolist() == [discrepancy(data, p) for p in paths]
    refs = reference_call(pcrn, points, t_end, stream(key, 0))
    assert full.tolist() == [discrepancy(data, p) for p in refs]
    early = simulate_distances(pcrn, points, data, eps, stream(key, 0))
    accepted = early <= eps
    assert np.array_equal(accepted, full <= eps)
    assert np.array_equal(early[accepted], full[accepted])
    stopped = np.isinf(early)
    assert np.all(full[stopped] > eps)
    # a rejected lane that ran to the end keeps its full distance
    assert np.array_equal(early[~stopped], full[~stopped])
    assert accepted.any() and stopped.any()
    return full, early


class TestEarlyRejection:
    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    def test_decay_wave(self, sigma):
        truth = reference_simulate(DECAY, (1.0,), 3.0, stream(20, 0))
        data = observe(truth, np.linspace(0.3, 3.0, 10), sigma, stream(20, 1), species=DECAY.species)
        points = np.linspace(0.2, 4.0, 60)[:, None]
        _assert_early_rejection_exact(DECAY, points, data, 0.5, 21)
        _assert_early_rejection_exact(DECAY, points, data, 0.1, 22)

    @pytest.mark.parametrize("sigma", [0.0, 3.0])
    def test_sir_wave(self, sigma):
        truth = reference_simulate(SIR, (0.002, 0.05), 150.0, stream(23, 0))
        data = observe(truth, np.linspace(7.5, 150.0, 20), sigma, stream(23, 1), species=SIR.species)
        points = _sir_points(80, 24)
        _assert_early_rejection_exact(SIR, points, data, 0.5, 25)
        _assert_early_rejection_exact(SIR, points, data, 0.1, 25)

    def test_observation_at_a_jump_instant(self):
        points = np.linspace(0.5, 2.0, 8)[:, None]
        paths = simulate_paths(DECAY, points, 3.0, stream(26, 0))
        states, times = paths[3].states, paths[3].times
        # lane 3's post-jump state at its fifth jump matches exactly; the
        # pre-jump state would miss by one in each species
        data = _dataset(DECAY, [times[4], times[5], 3.0], [states[4], states[5], states[-1]])
        full, early = _assert_early_rejection_exact(DECAY, points, data, 0.5, 26)
        assert full[3] == early[3] == 0.0

    def test_lane_absorbed_before_the_last_observation(self):
        points = np.array([[10.0], [8.0], [0.1], [0.2], [6.0]])
        paths = simulate_paths(SHORT_DECAY, points, 5.0, stream(27, 0))
        assert paths[0].states[-1].tolist() == [0, 4] and paths[0].times[-1] < 2.0
        data = _dataset(SHORT_DECAY, [1.0, 2.0, 4.0, 5.0], [[1, 3], [0, 4], [0, 4], [0, 4]])
        full, early = _assert_early_rejection_exact(SHORT_DECAY, points, data, 1.5, 27)
        # the absorbed lane holds [0, 4] through the last three observations
        assert full[0] == discrepancy(data, paths[0]) and full[0] <= 1.5

    def test_one_lane_and_no_reactions(self):
        net = parse_crn("format=1; species A; param k in [0, 1]; init A=3;")
        data = _dataset(net, [1.0, 2.0], [[3.0], [5.0]])
        assert simulate_distances(net, [[0.5], [0.1]], data, np.inf, stream(28, 0)).tolist() == [2.0, 2.0]
        # absorbed from the start, the lane reads every observation on its
        # first step: rejected with its full distance, never stopped
        assert simulate_distances(net, [[0.5]], data, 1.0, stream(28, 0)).tolist() == [2.0]


class TestAbcseqMatchesReference:
    @pytest.fixture(scope="class")
    def data(self):
        traj = reference_simulate(DECAY, (1.0,), 3.0, stream(100, 0))
        return observe(traj, np.linspace(0.3, 3.0, 10), 0.0, stream(100, 1), species=DECAY.species)

    def _check(self, data, config):
        (got,) = abcseq(DECAY, data, config)
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

    def test_narrow_waves(self, data, monkeypatch):
        # waves capped below the slot count still serve every pending slot
        monkeypatch.setattr(importlib.import_module("crnverify.abcsmc"), "_LANES", 16)
        monkeypatch.setattr(SIM, "_LANES", 16)
        got = self._check(data, ExperimentConfig(seed=4, abc_particles=40, abc_rounds=3))
        assert got.status == "ok"

    def test_infinite_threshold(self, data, monkeypatch):
        # every proposal inside the box is accepted; one outside never is
        monkeypatch.setattr(importlib.import_module("crnverify.abcsmc"), "adaptive_threshold", lambda d: np.inf)
        monkeypatch.setitem(globals(), "adaptive_threshold", lambda d: np.inf)
        got = self._check(data, ExperimentConfig(seed=5, abc_particles=40, abc_rounds=3))
        assert got.attempts > 40 * 3 and np.all((0.1 <= got.points) & (got.points <= 10.0))

    @pytest.mark.parametrize("max_attempts, last_round", [(3, 0), (8, 1)])
    def test_abort_at_tiny_max_attempts(self, data, max_attempts, last_round):
        # under seed 2, 8 attempts complete round 1 in waves, then abort round 2
        config = ExperimentConfig(seed=2, abc_particles=40, abc_rounds=6, abc_max_attempts=max_attempts)
        got = self._check(data, config)
        assert got.status == STATUS_ABORTED and got.round == last_round


class TestBatchesInLockstep:
    @pytest.mark.parametrize("config", [
        ExperimentConfig(seed=3, abc_particles=40, abc_rounds=4),
        # tiny attempt budgets: batches abort in different rounds
        ExperimentConfig(seed=2, abc_particles=40, abc_rounds=6, abc_max_attempts=8),
    ])
    def test_equal_one_call_per_batch(self, config):
        traj = reference_simulate(DECAY, (1.0,), 3.0, stream(100, 0))
        data = observe(traj, np.linspace(0.3, 3.0, 10), 0.0, stream(100, 1), species=DECAY.species)
        together = abcseq(DECAY, data, config, [0, 1, 101])
        for batch, got in zip([0, 1, 101], together):
            (want,) = abcseq(DECAY, data, config, [batch])
            assert (got.status, got.round, got.attempts, got.thresholds) == \
                (want.status, want.round, want.attempts, want.thresholds)
            for name in ("points", "weights", "distances"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # the batches took different numbers of waves
        assert len({(s.round, s.attempts) for s in together}) > 1


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
        # the path checked alone gets the same verdict and witness
        (alone,), (alone_when,) = check_until_paths([path], phi1, phi2, t_lo, t_hi, INDEX)
        assert bool(alone) == ok and (alone_when == when if ok else np.isnan(alone_when)), k
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
        paths = simulate_paths(SIR, [(0.002, 0.05)] * 200, 150.0, stream(10, 0))
        sat, _ = _assert_array_check_matches(paths, PHI1, PHI2, 100.0, 150.0)
        assert 0 < sat.sum() < 200


def stepwise_until(traj, phi1, phi2, t_lo, t_hi):
    """The kernel's reading of a stored path: the production rule
    (``simulate._until_step``) on one interval at a time, in order, the
    first decision final and a path that ends undecided violated."""
    path = BoundedUntil(phi1=phi1, phi2=phi2, t_lo=t_lo, t_hi=t_hi)
    times = traj.times
    for i in range(len(times)):
        b = times[i + 1] if i + 1 < len(times) else np.inf
        state = traj.states[i:i + 1]
        witness, failure = SIM._until_step(path, phi1.mask(state, INDEX), phi2.mask(state, INDEX), times[i:i + 1],
                                           np.array([b]))
        if witness[0] or failure[0]:
            return bool(witness[0])
    return False


class TestUntilStepOnIntervals:
    @pytest.mark.parametrize("rows, t_lo, t_hi, want", [
        ([(0, 5), (100, 0)], 100.0, 150.0, True),  # witness exactly at t_lo
        ([(0, 5), (150, 0)], 100.0, 150.0, True),  # jump exactly at t'
        ([(0, 5), (150.5, 0)], 100.0, 150.0, False),  # just past the window
        ([(0, 0), (20, 3)], 10.0, 150.0, False),  # phi1 false at time 0
        ([(0, 0)], 10.0, 150.0, False),
        ([(0, 0), (20, 3)], 0.0, 150.0, True),  # ... which a witness at 0 beats
        ([(0, 0)], 0.0, 150.0, True),
        ([(0, 4), (3, 0)], 0.0, 5.0, True),
        ([(0, 4), (3, 1), (9, 2)], 0.0, 5.0, False),
        ([(0, 2)], 0.0, 0.0, False),  # the one-state paths of t' = 0
        ([(0, 0)], 0.0, 0.0, True),
    ])
    def test_hand_built_paths(self, rows, t_lo, t_hi, want):
        traj = path_of(rows)
        assert stepwise_until(traj, PHI1, PHI2, t_lo, t_hi) == want
        assert reference_until(traj, PHI1, PHI2, t_lo, t_hi, INDEX)[0] == want
        (stored,), _ = check_until_paths([traj], PHI1, PHI2, t_lo, t_hi, INDEX)
        assert stored == want

    def test_random_paths(self):
        rng = np.random.default_rng(717)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            times = np.unique(np.concatenate([[0.0], rng.uniform(0, 190, size=n - 1)]))
            traj = path_of(list(zip(times, rng.integers(0, 3, size=len(times)))))
            for t_lo, t_hi in ((100.0, 150.0), (0.0, 50.0), (30.0, 30.0)):
                for phi1 in (PHI1, TRUE):
                    want = reference_until(traj, phi1, PHI2, t_lo, t_hi, INDEX)[0]
                    assert stepwise_until(traj, phi1, PHI2, t_lo, t_hi) == want


def _piece_generators(rng, n_sims, lanes):
    """Each piece's generator under ``estimate_lambda``'s draw contract:
    piece 0 draws from ``rng``, piece p >= 1 from child p - 1 of it."""
    return [rng, *rng.spawn(-(-n_sims // lanes) - 1)]


class TestEstimateLambdaMatchesReference:
    @pytest.mark.parametrize("prop", [
        "P>0.1 [ (I>0) U[100,150] (I=0) ]",
        "P>0.1 [ (I>0) U[0,40] (I<=2) ]",
        "P>0.1 [ (I>0) U[0,0] (I=5) ]",
    ])
    @pytest.mark.parametrize("lanes", [1024, 7])
    def test_same_count_as_one_path_at_a_time(self, prop, lanes, monkeypatch):
        # seven lanes per piece: the 150 runs span 22 pieces and calls
        monkeypatch.setattr(importlib.import_module("crnverify.monitor"), "_LANES", lanes)
        formula = parse_csl(prop)
        path = formula.path
        point = (0.002, 0.05)
        (est,) = estimate_lambda(SIR, [point], formula, 150, [stream(11, 0)])
        if path.t_hi > 0:
            paths = []
            for start, rng in zip(range(0, 150, lanes), _piece_generators(stream(11, 0), 150, lanes)):
                paths += reference_call(SIR, [point] * min(lanes, 150 - start), path.t_hi, rng)
        else:
            start = Trajectory(states=np.array([SIR.initial_state]), times=np.array([0.0]), horizon=0.0)
            paths = [start] * 150
        hits = sum(reference_until(p, path.phi1, path.phi2, path.t_lo, path.t_hi, INDEX)[0] for p in paths)
        assert est == hits / 150

    def test_later_pieces_draw_from_spawned_children(self, monkeypatch):
        # 20 runs per point at 7 lanes a call: pieces of 7, 7 and 6, each a
        # call of its own; one row per block refills it every step
        monitor = importlib.import_module("crnverify.monitor")
        monkeypatch.setattr(monitor, "_LANES", 7)
        monkeypatch.setattr(SIM, "_BLOCK", 3)
        calls = []

        def spy(pcrn, points, path, groups):
            seeds = [rng.bit_generator.seed_seq for rng, _ in groups]
            calls.append([(ss.entropy, ss.spawn_key, n) for ss, (_, n) in zip(seeds, groups)])
            return SIM.simulate_until(pcrn, points, path, groups)

        monkeypatch.setattr(monitor, "simulate_until", spy)
        # B reaches 25 near t = ln 2 / k = 0.5: about half the runs satisfy
        formula = parse_csl("P>0.1 [ (B<25) U[0.5,1.5] (B>=25) ]")
        points = [(1.39,), (1.2,)]
        estimates = estimate_lambda(DECAY, points, formula, 20, [stream(47, i) for i in range(2)])
        assert calls == [[((47, i), key, runs)] for i in range(2) for key, runs in (((), 7), ((0,), 7), ((1,), 6))]
        for i, (point, est) in enumerate(zip(points, estimates)):
            pieces = zip(_piece_generators(stream(47, i), 20, 7), (7, 7, 6))
            hits = sum(int(_stored_verdicts(DECAY, [point] * runs, formula.path, rng).sum()) for rng, runs in pieces)
            assert est == hits / 20 and 0 < hits < 20
