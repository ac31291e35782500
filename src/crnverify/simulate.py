"""Exact stochastic simulation and noisy discrete-time observation of networks.

Trajectories are right-continuous piecewise-constant paths produced by the
Gillespie direct method: the holding time in a state is exponential in the
total propensity and the next reaction is chosen proportionally to its
propensity.  Observation turns a trajectory into the kind of data the
inference machinery consumes: molecule counts at chosen times plus
independent Gaussian noise.

Draw contract.  ``simulate_visits`` runs many paths ("lanes") in lockstep.
The lanes of a call split, in order, into groups, each drawing from its
own generator: a call given one generator makes one group of every lane,
and ``simulate_visits``, ``simulate_distances`` and ``simulate_until``
also take a list of (generator, lanes) groups.  Lane ``j`` of a group
owns column ``j`` of every draw block of its group for the whole call:

- at the start, a (rows x lanes) block of standard exponentials, then a
  (rows x lanes) block of uniforms, with rows = ceil(``_BLOCK`` / lanes)
  over the group's lanes;
- per step, a lane reads one exponential for its holding time, then one
  uniform for its reaction, from the row the call's step count selects;
  once every row of a group's block is spent, the step that needs a
  fresh row refills the whole block, for every lane of the group, live
  or not: the exponentials if a lane of the group draws one at that
  step, the uniforms if one of its lanes then still runs;
- a lane whose total propensity is zero (absorbing) stops before drawing,
  and a lane whose next jump time is at or past the horizon stops after
  its exponential, without a uniform.

A lane's numbers are fixed by its group and column, so a lane that
absorbs or stops early never shifts another lane's path, and a group
draws exactly what a call of its lanes alone would draw: its paths are
that call's bit for bit, and its generator ends where that call leaves
it, whatever groups run beside it.  A one-lane call (``simulate``) reads
256-draw blocks from its generator in the order a one-path loop would,
and leaves it where that loop leaves it: ``generate`` observes its path
with the same generator.  Propensities come from
``model._falling_product`` and their totals and the reaction choice from
sequential sums, as in a one-path loop.

``simulate_distances`` runs the same kernel against a dataset without
keeping paths.  A lane's distance is the Euclidean distance between the
observations and its states at the observation times: each lane adds its
squared errors at an observation time as its clock passes it,
observation by observation and species in order, and stops once its
partial distance exceeds its threshold (one per call, or one per lane).
Partial sums of nonnegative terms never decrease, so a stopped lane is
exactly one that would have been rejected, and a finished lane's
distance is the same bits as that sum taken over its stored path.

``simulate_until`` runs the same kernel up to t' and decides a bounded
until  phi1 U[t, t'] phi2  on each lane as it runs, without keeping
paths.  Every step applies ``_until_step`` to the interval each lane
holds, its state on [entry time, next jump), the next jump at infinity
for a lane that leaves: a witness (phi2 at max(entry, t) <= t', phi1 on
any stretch before it) satisfies the run, and phi1 failing violates it;
a run still undecided when it leaves is violated.  A decided lane stops
at once, with its exponential drawn and no uniform.  A lane's verdict is
the rule's over its stored path, since the rule reads the intervals in
order and the first decision is final; a stopped lane only ends its
group's draws earlier, so a group's generator ends wherever its lanes
stop drawing, and the caller reads it no further.
"""

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csl import BoundedUntil
from .errors import ConfigError, ParseError
from .files import finite_number, read_csv, write_csv
from .model import PCRN, _falling_product, compiled_reactions, point_values

_BLOCK = 256  # draws per block of a call, over all its lanes: cuts per-call overhead
# widest call an estimate makes, and widest ABC wave unless it has more
# pending slots; neither keeps paths, so a call's memory is O(lanes)
_LANES = 1024
# steps of one kernel call.  A one-lane call keeping its visits holds about
# 460 B a step, so 2^18 steps stay within 128 MiB; a network that is not
# conserved (X -> X + X) reaches the cap instead of growing without bound
_MAX_STEPS = 1 << 18


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One sample path: states and their entry times, up to a horizon.

    ``states`` has shape (events+1, n); ``times`` holds the entry time of
    each state, starting at 0.  The state at a jump instant is the
    post-jump state.
    """

    states: np.ndarray
    times: np.ndarray
    horizon: float

    def __post_init__(self):
        if len(self.states) != len(self.times):
            raise ValueError("states and times length mismatch")
        if len(self.times) == 0:
            raise ValueError("a trajectory starts with its initial state")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Noisy observations of a path at fixed times.

    ``observations`` has one row per observation time and one column per
    species, in ``species`` order.
    """

    times: np.ndarray
    observations: np.ndarray
    species: tuple[str, ...]
    sigma: float

    def __post_init__(self):
        if len(self.times) < 1:
            raise ConfigError("a dataset needs at least one observation")
        if len(self.times) != len(self.observations):
            raise ConfigError("observation count does not match time count")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("observation times must be strictly increasing")


def simulate(pcrn: PCRN, point: Sequence[float], t_end: float, rng: np.random.Generator) -> Trajectory:
    """Sample one exact path of the chain instantiated at ``point`` (rates in
    ``pcrn.params.names`` order) on [0, t_end]: the one-lane call of
    ``simulate_visits``.

    Absorbing states simply hold to the horizon.  Identical generator state
    and inputs reproduce the trajectory bit-exactly.
    """
    states, times, _ = simulate_visits(pcrn, [point_values(pcrn.params.names, point)], t_end, rng)
    return Trajectory(states=states, times=times, horizon=float(t_end))


def simulate_visits(pcrn: PCRN, points, t_end: float, rng):
    """Sample one exact path per lane on [0, t_end], lane ``i`` running the
    chain at ``points[i]`` (rates in ``pcrn.params.names`` order), as flat
    arrays rather than a ``Trajectory`` per lane: ``(states, times,
    ends)``, lane ``i``'s visits in rows ``ends[i-1]:ends[i]`` (from 0 for
    lane 0), in step order.  ``rng`` is one generator for every lane, or a
    list of (generator, lanes) groups as the module docstring states."""
    values = _lane_values(pcrn, points)
    lane_of, states, times = _lockstep(pcrn, values, float(t_end), _groups(rng, len(values)))
    order = np.argsort(lane_of, kind="stable")
    return states[order].astype(np.int64), times[order], np.cumsum(np.bincount(lane_of, minlength=len(values)))


def simulate_distances(pcrn: PCRN, points, data: Dataset, eps, rng) -> np.ndarray:
    """The distance between ``data`` and one path per lane, simulated up to
    the last observation time as ``simulate_visits`` would, without keeping
    the paths.  ``eps`` is one threshold for every lane or one per
    lane.  A lane stops as soon as its partial distance exceeds its
    threshold and reads infinity; every other lane's distance is that of
    its full path."""
    values = _lane_values(pcrn, points)
    try:
        eps = np.broadcast_to(np.asarray(eps, dtype=float), len(values))
    except ValueError as exc:
        raise ConfigError(f"{np.shape(eps)} thresholds for {len(values)} lanes") from exc
    if not np.all(eps >= 0):  # NaN fails too
        raise ConfigError("distance thresholds must be nonnegative")
    return _lockstep(pcrn, values, float(data.times[-1]), _groups(rng, len(values)), data, eps)


def simulate_until(pcrn: PCRN, points, path: BoundedUntil, rng) -> np.ndarray:
    """Whether one path per lane, simulated up to ``path.t_hi`` as
    ``simulate_visits`` would, satisfies ``path``, decided as the lane
    runs, as the module docstring states, without keeping the paths: a
    lane stops once its verdict is known.  At t' = 0 every run is its
    initial state alone, which the rule decides without a draw."""
    values = _lane_values(pcrn, points)
    groups = _groups(rng, len(values))
    if path.t_hi == 0:
        initial, index = np.asarray([pcrn.initial_state], dtype=np.int64), pcrn.species_index()
        witness, _ = _until_step(path, path.phi1.mask(initial, index), path.phi2.mask(initial, index),
                                 np.zeros(1), np.full(1, np.inf))
        return np.repeat(witness, len(values))
    return _lockstep(pcrn, values, float(path.t_hi), groups, path=path)


def _until_step(path: BoundedUntil, m1: np.ndarray, m2: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The until rule on intervals: interval ``i`` is [a[i], b[i]), held
    in a state where phi1 is ``m1[i]`` and phi2 is ``m2[i]``.  Returns
    (witness, failure).  The interval witnesses ``path`` when phi2 holds
    at lo = max(a, t_lo) <= t_hi, lo falls before b, and phi1 holds on
    the stretch [a, lo) if it is not empty; it fails when phi1 does not
    hold and a <= t_hi.  A path satisfies ``path`` iff its first
    witnessing interval comes no later than its first failing one."""
    lo = np.maximum(a, path.t_lo)
    witness = m2 & (lo <= path.t_hi) & (lo < b) & ((lo == a) | m1)
    failure = ~m1 & (a <= path.t_hi)
    return witness, failure


def _lane_values(pcrn: PCRN, points) -> np.ndarray:
    names = pcrn.params.names
    values = np.asarray(points, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(names) or not len(values):
        raise ConfigError(f"parameter points of shape {values.shape} are not rows of parameters {list(names)}")
    return values


def _groups(rng, m: int) -> list:
    """One (generator, lanes) group for all ``m`` lanes, or the given
    groups, which must split them into nonempty runs."""
    if isinstance(rng, np.random.Generator):
        return [(rng, m)]
    groups = [(g, operator.index(n)) for g, n in rng]
    if any(n < 1 for _, n in groups) or sum(n for _, n in groups) != m:
        raise ConfigError(f"groups of {[n for _, n in groups]} lanes do not split {m} lanes")
    return groups


def _lockstep(pcrn: PCRN, values: np.ndarray, t_end: float, groups: list,
              data: Dataset | None = None, eps: np.ndarray | None = None,
              path: BoundedUntil | None = None):
    """The Gillespie kernel: every lane of ``values`` advances together as
    arrays of states (lanes, n), clocks and rates (R, lanes).  A lane leaves
    them once its next jump falls at or past ``t_end``; an absorbing
    lane's next jump is at infinity.  All active lanes have taken the same
    number of steps, so each group's lanes read the same row of its draw
    blocks.  ``groups`` splits the lanes, in order, into (generator, lanes)
    runs.

    With ``data``, returns each lane's distance to the data (infinity for
    a lane stopped past its entry of ``eps``).  With ``path``, returns
    whether each lane satisfies it (``t_end`` is its t'), a lane leaving
    once decided.  With neither, returns every visit as (lane, state,
    entry time) arrays in step order.  A call that would take more than
    ``_MAX_STEPS`` steps fails with a ``ConfigError``.
    """
    if t_end <= 0:
        raise ConfigError("simulation horizon must be positive")
    m = len(values)
    compiled = compiled_reactions(pcrn)
    reactants = [r for r, _, _ in compiled]
    last = len(compiled) - 1
    delta = np.zeros((len(compiled), len(pcrn.initial_state)))
    for j, (_, changes, _) in enumerate(compiled):
        for i, d in changes:
            delta[j, i] = d

    # every group's (rows x lanes) blocks lie side by side in flat buffers,
    # drawn as its own call draws them: lane j of group g reads row r at
    # spans[g].start + r * sizes[g] + j
    rngs = [rng for rng, _ in groups]
    sizes = [n for _, n in groups]
    rows = [-(-_BLOCK // n) for n in sizes]
    ends = np.cumsum([r * n for r, n in zip(rows, sizes)]).tolist()
    spans = [slice(end - r * n, end) for end, r, n in zip(ends, rows, sizes)]
    exps, unis = np.empty(ends[-1]), np.empty(ends[-1])
    for rng, span in zip(rngs, spans):
        rng.standard_exponential(out=exps[span])
        rng.random(out=unis[span])
    group = np.repeat(np.arange(len(groups)), sizes)
    # each lane's index in row 0 of its group's blocks, and its row stride
    base = np.repeat([span.start - j for span, j in zip(spans, np.cumsum([0, *sizes]).tolist())], sizes) + np.arange(m)
    width = np.repeat(sizes, sizes)
    active = sizes  # each group's lanes still running
    fresh_at = min(rows)  # the next step at which some group starts a fresh row

    # counts are exact in float64, the propensity kernel's column type
    lanes = np.arange(m)
    rates = values[:, [k for _, _, k in compiled]].T
    states = np.tile(np.asarray(pcrn.initial_state, dtype=float), (m, 1))
    t = np.zeros(m)
    visits = [(lanes, states, t)]
    if path is not None:
        index = pcrn.species_index()
        satisfied, undecided = np.zeros(m, dtype=bool), np.ones(m, dtype=bool)
    if data is not None:
        obs_times, observed = np.append(data.times, np.inf), data.observations
        nxt = np.zeros(m, dtype=np.intp)  # each lane's next observation
        due = np.full(m, obs_times[0])  # and its time
        partial = np.zeros(m)
    at, step, fresh = base, 0, None
    # an absorbing lane's holding time divides by a zero total
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            # propensities and their running sums, added in reaction order
            x = states.T
            total = rates[0] * _falling_product(reactants[0], x) if compiled else np.zeros(len(lanes))
            cum = [total]
            for j in range(1, last + 1):
                total = total + rates[j] * _falling_product(reactants[j], x)
                cum.append(total)
            # an absorbing lane draws nothing: its next jump is at infinity
            live = total > 0.0
            if step == fresh_at:
                # groups past their last row go back to row 0, and refill it
                # if a lane of theirs still draws
                fresh = [g for g, r in enumerate(rows) if step % r == 0]
                fresh_at = step + min(r - step % r for r in rows)
                if len(fresh) == len(rows):
                    at = base
                else:
                    back = np.zeros(len(rows), dtype=bool)
                    back[fresh] = True
                    at = np.where(back[group], base, at)
                drawing = active
                if np.count_nonzero(live) < len(live):
                    drawing = np.bincount(group[live], minlength=len(rows))
                for g in fresh:
                    if drawing[g]:
                        rngs[g].standard_exponential(out=exps[spans[g]])
            t_next = t + exps[at] / total
            keep = live & (t_next < t_end)
            if data is not None:
                # the state held on [t, t_next) is the one every observation
                # before t_next reads; a lane leaving holds it to the end
                reach = np.where(keep, t_next, np.inf)
                crossed = (due[lanes] < reach).nonzero()[0]
                if len(crossed):
                    cross = crossed
                    while len(cross):
                        idx = lanes[cross]
                        diff = observed[nxt[idx]] - states[cross]
                        sq = diff * diff
                        acc = partial[idx]
                        for s in range(sq.shape[1]):
                            acc = acc + sq[:, s]
                        partial[idx] = acc
                        nxt[idx] += 1
                        due[idx] = obs_times[nxt[idx]]
                        cross = cross[due[idx] < reach[cross]]
                    # only a lane that crossed has a new partial distance
                    idx = lanes[crossed]
                    keep[crossed] &= np.sqrt(partial[idx]) <= eps[idx]
            elif path is not None:
                # the state held on [t, t_next), to the end for a lane
                # leaving; only a state outside phi1 or in phi2 decides
                m1, m2 = path.phi1.mask(states, index), path.phi2.mask(states, index)
                if m2.any() or not m1.all():
                    witness, failure = _until_step(path, m1, m2, t, np.where(keep, t_next, np.inf))
                    decided = (witness | failure) & undecided[lanes]
                    if decided.any():
                        idx = lanes[decided]
                        satisfied[idx] = witness[decided]
                        undecided[idx] = False
                        keep &= ~decided
            if np.count_nonzero(keep) < len(keep):
                # one index array and take() cost less than a boolean mask
                # applied to each array
                sel = keep.nonzero()[0]
                lanes, t_next, group, at, base, width = (v.take(sel) for v in (lanes, t_next, group, at, base, width))
                rates, states = rates.take(sel, axis=1), states.take(sel, axis=0)
                cum = [c.take(sel) for c in cum]
                if not len(lanes):
                    break
                active = np.bincount(group, minlength=len(rows))
            if step == _MAX_STEPS:
                raise ConfigError(
                    f"a simulation call needs more than {_MAX_STEPS} steps to reach time {t_end:g}: narrow the rate "
                    "bounds or the time window, or check that the network cannot grow without bound"
                )
            if fresh is not None:
                for g in fresh:
                    if active[g]:
                        rngs[g].random(out=unis[spans[g]])
                fresh = None
            # the first reaction whose running sum exceeds u, else the last;
            # one row of delta per lane, as a broadcast row adds far slower
            chosen = np.full(len(lanes), last)
            if last:
                u = unis[at] * cum[-1]
                for j in range(last - 1, -1, -1):
                    chosen = np.where(u < cum[j], j, chosen)
            states = states + delta.take(chosen, axis=0)
            t = t_next
            if data is None and path is None:
                visits.append((lanes, states, t))
            at = at + width
            step += 1

    if path is not None:
        return satisfied
    if data is None:
        return tuple(np.concatenate(v) for v in zip(*visits))
    distances = np.sqrt(partial)
    distances[nxt < len(data.times)] = np.inf
    return distances


def states_at(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """States occupied at many query times (post-jump state at jump instants)."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(times > traj.horizon):
        raise ValueError("observation times outside trajectory horizon")
    idx = np.searchsorted(traj.times, times, side="right") - 1
    return traj.states[idx]


def observe(
    traj: Trajectory,
    times,
    sigma: float,
    rng: np.random.Generator,
    species: tuple[str, ...] = (),
) -> Dataset:
    """Observe a path at ``times`` with additive N(0, sigma) noise per component."""
    times = np.asarray(times, dtype=float)
    x = states_at(traj, times).astype(float)
    y = x if sigma == 0 else x + rng.normal(0.0, sigma, size=x.shape)
    return Dataset(times=times, observations=y, species=species, sigma=float(sigma))


# ---------------------------------------------------------------------------
# Dataset file format: versioned CSV, one row per observation time.


def save_dataset(data: Dataset, path: str | Path, meta: dict | None = None) -> None:
    """Write ``time,<species...>`` CSV with shortest round-trip floats."""
    comments = {"meta": meta} if meta else {}
    comments["meta-sigma"] = data.sigma
    rows = ([repr(float(t)), *(repr(float(v)) for v in row)] for t, row in zip(data.times, data.observations))
    write_csv(path, comments, ["time", *data.species], rows)


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset CSV written by ``save_dataset``.

    Times must be finite and nonnegative, and observations finite.  Noisy
    observations may fall below zero, but noiseless ones are counts, so a
    dataset whose ``meta-sigma`` is 0 (or absent) needs them nonnegative.
    """
    comments, header, rows = read_csv(path, "dataset")
    if not header or header[0] != "time" or len(header) < 2:
        raise ParseError("dataset file missing 'time,<species...>' header row")
    if not rows:
        raise ParseError("dataset file contains no observations")
    sigma = comments.get("meta-sigma", 0.0)
    if not (finite_number(sigma) and sigma >= 0):
        raise ParseError(f"dataset file {path}: meta-sigma must be a finite nonnegative number, got {sigma!r}")
    try:
        arr = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise ParseError(f"dataset file {path}: malformed rows ({exc})") from exc
    if not np.isfinite(arr).all():
        raise ParseError(f"dataset file {path}: times and observations must be finite")
    if np.any(arr[:, 0] < 0):
        raise ParseError(f"dataset file {path}: observation times must be nonnegative")
    if sigma == 0 and np.any(arr[:, 1:] < 0):
        raise ParseError(f"dataset file {path}: noiseless observations are counts and must be nonnegative")
    return Dataset(
        times=arr[:, 0],
        observations=arr[:, 1:],
        species=tuple(header[1:]),
        sigma=float(sigma),
    )
