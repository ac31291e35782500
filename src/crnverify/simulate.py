"""Exact stochastic simulation and noisy discrete-time observation of networks.

Trajectories are right-continuous piecewise-constant paths produced by the
Gillespie direct method: the holding time in a state is exponential in the
total propensity and the next reaction is chosen proportionally to its
propensity.  Observation turns a trajectory into the kind of data the
inference machinery consumes: molecule counts at chosen times plus
independent Gaussian noise.

Draw contract.  ``simulate_paths`` runs many paths ("lanes") in lockstep
on one generator per call.  Lane ``j`` owns column ``j`` of every draw
block for the whole call:

- at the start, a (rows x lanes) block of standard exponentials, then a
  (rows x lanes) block of uniforms, with rows = ceil(``_BLOCK`` / lanes);
- per step, a lane reads one exponential for its holding time, then one
  uniform for its reaction, from the row the call's step count selects;
  once every row is spent, the step that needs a fresh row refills the
  whole block, for every lane of the call, live or not;
- a lane whose total propensity is zero (absorbing) stops before drawing,
  and a lane whose next jump time is at or past the horizon stops after
  its exponential, without a uniform.

A lane's numbers are fixed by its column, so a lane that absorbs or stops
early never shifts another lane's path.  A one-lane call reads 256-draw
blocks from its generator in the order a one-path loop would, and leaves
it where that loop leaves it: ``generate`` observes its path with the
same generator.  Propensities come from ``model._falling_product`` and
their totals and the reaction choice from sequential sums, as in a
one-path loop.

``simulate_distances`` runs the same kernel against a dataset without
keeping paths: each lane adds its squared error at an observation time
as its clock passes it, in the order ``discrepancy`` sums, and stops once
its partial distance exceeds the threshold.  Partial sums of nonnegative
terms never decrease, so a stopped lane is exactly one that would have
been rejected, and a finished lane's distance is ``discrepancy`` of its
path, bit for bit.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .files import read_csv, write_csv
from .model import PCRN, _falling_product, compiled_reactions, point_values

_BLOCK = 256  # draws per block of a call, over all its lanes: cuts per-call overhead
# widest call an estimate makes, which bounds its memory at O(_LANES x
# events), and widest ABC wave unless it has more pending slots
_LANES = 1024


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
    ``simulate_paths``.

    Absorbing states simply hold to the horizon.  Identical generator state
    and inputs reproduce the trajectory bit-exactly.
    """
    return simulate_paths(pcrn, [point_values(pcrn.params.names, point)], t_end, rng)[0]


def simulate_paths(pcrn: PCRN, points, t_end: float, rng: np.random.Generator) -> list[Trajectory]:
    """Sample one exact path per lane on [0, t_end]: lane ``i`` runs the
    chain at ``points[i]`` (rates in ``pcrn.params.names`` order), all lanes
    drawing from ``rng`` as the module docstring states."""
    states, times, ends = simulate_visits(pcrn, points, t_end, rng)
    ends = ends.tolist()
    return [
        Trajectory(states=states[start:end], times=times[start:end], horizon=float(t_end))
        for start, end in zip([0, *ends], ends)
    ]


def simulate_visits(pcrn: PCRN, points, t_end: float, rng: np.random.Generator):
    """The paths of ``simulate_paths`` as flat arrays, without building a
    ``Trajectory`` per lane: ``(states, times, ends)``, lane ``i``'s visits
    in rows ``ends[i-1]:ends[i]`` (from 0 for lane 0), in step order."""
    values = _lane_values(pcrn, points)
    lane_of, states, times = _lockstep(pcrn, values, float(t_end), rng)
    order = np.argsort(lane_of, kind="stable")
    return states[order].astype(np.int64), times[order], np.cumsum(np.bincount(lane_of, minlength=len(values)))


def simulate_distances(pcrn: PCRN, points, data: Dataset, eps: float, rng: np.random.Generator) -> np.ndarray:
    """``discrepancy`` between ``data`` and one path per lane, simulated up
    to the last observation time as ``simulate_paths`` would, without
    keeping the paths.  A lane stops as soon as its partial distance
    exceeds ``eps`` and reads infinity; every other lane's distance is
    that of its full path."""
    return _lockstep(pcrn, _lane_values(pcrn, points), float(data.times[-1]), rng, data, float(eps))


def _lane_values(pcrn: PCRN, points) -> np.ndarray:
    names = pcrn.params.names
    values = np.asarray(points, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(names) or not len(values):
        raise ConfigError(f"parameter points of shape {values.shape} are not rows of parameters {list(names)}")
    return values


def _lockstep(pcrn: PCRN, values: np.ndarray, t_end: float, rng: np.random.Generator,
              data: Dataset | None = None, eps: float = np.inf):
    """The Gillespie kernel: every lane of ``values`` advances together as
    arrays of states (lanes, n), clocks and rates (R, lanes).  A lane leaves
    them once its next jump falls at or past ``t_end``; an absorbing
    lane's next jump is at infinity.  All active lanes have taken the same
    number of steps, so they read the same row of the draw blocks.

    Without ``data``, returns every visit as (lane, state, entry time)
    arrays in step order.  With it, returns each lane's distance to the
    data (infinity for a lane stopped past ``eps``).
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

    rows = -(-_BLOCK // m)
    exps = rng.standard_exponential((rows, m))
    unis = rng.random((rows, m))

    # counts are exact in float64, the propensity kernel's column type
    lanes = np.arange(m)
    rates = values[:, [k for _, _, k in compiled]].T
    states = np.tile(np.asarray(pcrn.initial_state, dtype=float), (m, 1))
    t = np.zeros(m)
    visits = [(lanes, states, t)]
    if data is not None:
        obs_times, observed = np.append(data.times, np.inf), data.observations
        nxt = np.zeros(m, dtype=np.intp)  # each lane's next observation
        due = np.full(m, obs_times[0])  # and its time
        partial = np.zeros(m)
    step = 0
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
        col = step % rows
        if col == 0 and step and live.any():
            exps = rng.standard_exponential((rows, m))
        t_next = t + np.divide(exps[col, lanes], total, out=np.full(len(lanes), np.inf), where=live)
        keep = t_next < t_end
        if data is not None:
            # the state held on [t, t_next) is the one every observation
            # before t_next reads; a lane leaving holds it to the end
            reach = np.where(keep, t_next, np.inf)
            cross = due[lanes] < reach
            if cross.any():
                while cross.any():
                    idx = lanes[cross]
                    diff = observed[nxt[idx]] - states[cross]
                    sq = diff * diff
                    acc = partial[idx]
                    for s in range(sq.shape[1]):
                        acc = acc + sq[:, s]
                    partial[idx] = acc
                    nxt[idx] += 1
                    due[idx] = obs_times[nxt[idx]]
                    cross = due[lanes] < reach
                keep &= np.sqrt(partial[lanes]) <= eps
        if not keep.all():
            lanes, rates, states, t_next = lanes[keep], rates[:, keep], states[keep], t_next[keep]
            cum = [c[keep] for c in cum]
            if not len(lanes):
                break
        if col == 0 and step:
            unis = rng.random((rows, m))
        u = unis[col, lanes] * cum[-1]
        # the first reaction whose running sum exceeds u, else the last
        chosen = last
        for j in range(last - 1, -1, -1):
            chosen = np.where(u < cum[j], j, chosen)
        states = states + delta.take(chosen, axis=0)
        t = t_next
        if data is None:
            visits.append((lanes, states, t))
        step += 1

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


def discrepancy(data: Dataset, sim: Trajectory) -> float:
    """Euclidean distance between observed and simulated counts.

    Square root of the sum, over every observation time and component, of
    squared differences, added observation by observation.  The simulated path must reach the last
    observation time.
    """
    last = float(data.times[-1])
    if sim.horizon < last:
        raise ValueError(f"simulation horizon {sim.horizon} ends before last observation at {last}")
    x = states_at(sim, data.times).astype(float)
    diff = data.observations - x
    # added in sequence, observation by observation and species in order,
    # as ``simulate_distances`` adds them
    return float(np.sqrt(np.cumsum(diff * diff)[-1]))


# ---------------------------------------------------------------------------
# Dataset file format: versioned CSV, one row per observation time.


def save_dataset(data: Dataset, path: str | Path, meta: dict | None = None) -> None:
    """Write ``time,<species...>`` CSV with shortest round-trip floats."""
    comments = {"meta": meta} if meta else {}
    comments["meta-sigma"] = data.sigma
    rows = ([repr(float(t)), *(repr(float(v)) for v in row)] for t, row in zip(data.times, data.observations))
    write_csv(path, comments, ["time", *data.species], rows)


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset CSV written by ``save_dataset``."""
    comments, header, rows = read_csv(path, "dataset")
    if not header or header[0] != "time" or len(header) < 2:
        raise ParseError("dataset file missing 'time,<species...>' header row")
    if not rows:
        raise ParseError("dataset file contains no observations")
    arr = np.array(rows, dtype=float)
    return Dataset(
        times=arr[:, 0],
        observations=arr[:, 1:],
        species=tuple(header[1:]),
        sigma=float(comments.get("meta-sigma", 0.0)),
    )
