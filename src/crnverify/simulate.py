"""Exact stochastic simulation and noisy discrete-time observation of networks.

Trajectories are right-continuous piecewise-constant paths produced by the
Gillespie direct method: the holding time in a state is exponential in the
total propensity and the next reaction is chosen proportionally to its
propensity.  Observation turns a trajectory into the kind of data the
inference machinery consumes: molecule counts at chosen times plus
independent Gaussian noise.

Draw order.  ``simulate_paths`` runs many paths ("lanes") in lockstep, and
each lane draws from its own generator in the order one path alone would:

- at the start, a block of ``_BLOCK`` standard exponentials, then a block
  of ``_BLOCK`` uniforms;
- per step, one exponential for the holding time, then one uniform for the
  reaction; a spent block is refilled from the generator only when a draw
  needs it;
- a lane whose total propensity is zero (absorbing) stops before drawing,
  and a lane whose next jump time is at or past the horizon stops after
  its exponential, without a uniform.

Propensities come from ``model._falling_product`` and their totals and the
reaction choice from sequential sums, as in a one-path loop, so a lane's
path is the same bits whatever lanes share its call, and its generator ends
at the same position.  Callers that reuse a generator after a path (ABC
draws its next proposal from the same stream) rely on that position.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .files import read_csv, write_csv
from .model import PCRN, _falling_product, compiled_reactions, point_values

_BLOCK = 256  # RNG draws consumed in blocks to cut per-call overhead


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
    return simulate_paths(pcrn, [point_values(pcrn.params.names, point)], t_end, [rng])[0]


def simulate_paths(pcrn: PCRN, points, t_end: float, rngs: Sequence[np.random.Generator]) -> list[Trajectory]:
    """Sample one exact path per lane on [0, t_end]: lane ``i`` runs the
    chain at ``points[i]`` (rates in ``pcrn.params.names`` order) on its own
    generator ``rngs[i]``.

    The active lanes advance in lockstep as arrays: states (m, n), clocks
    (m,) and rates (R, m).  A lane leaves them once its next jump falls at
    or past ``t_end``; an absorbing lane's next jump is at infinity.  Every
    active lane has taken the same number of steps, so all of them read
    the same position of their draw blocks.  Each lane's path and its generator's final position are those
    of the lane sampled alone; the module docstring states the draw order.
    """
    if t_end <= 0:
        raise ConfigError("simulation horizon must be positive")
    names = pcrn.params.names
    rngs = list(rngs)
    m = len(rngs)
    values = np.asarray(points, dtype=float)
    if values.shape != (m, len(names)):
        raise ConfigError(f"parameter points of shape {values.shape} do not match {m} lanes of parameters {list(names)}")
    if len({id(r) for r in rngs}) != m:
        raise ValueError("every lane needs its own generator")
    compiled = compiled_reactions(pcrn)
    reactants = [r for r, _, _ in compiled]
    last = len(compiled) - 1
    delta = np.zeros((len(compiled), len(pcrn.initial_state)))
    for j, (_, changes, _) in enumerate(compiled):
        for i, d in changes:
            delta[j, i] = d

    # draw blocks, one column per lane
    exps, unis = np.empty((_BLOCK, m)), np.empty((_BLOCK, m))
    for lane, rng in enumerate(rngs):
        exps[:, lane] = rng.standard_exponential(_BLOCK)
        unis[:, lane] = rng.random(_BLOCK)

    # counts are exact in float64, the propensity kernel's column type
    lanes = np.arange(m)
    rates = values[:, [k for _, _, k in compiled]].T
    states = np.tile(np.asarray(pcrn.initial_state, dtype=float), (m, 1))
    t = np.zeros(m)
    visits = [(lanes, states, t)]
    if not compiled:
        lanes = lanes[:0]  # nothing can fire: every lane holds its initial state
    step = 0
    while len(lanes):
        # propensities and their running sums, added in reaction order
        x = states.T
        total = rates[0] * _falling_product(reactants[0], x)
        cum = [total]
        for j in range(1, last + 1):
            total = total + rates[j] * _falling_product(reactants[j], x)
            cum.append(total)
        # an absorbing lane draws nothing: its next jump is at infinity
        live = total > 0.0
        col = step % _BLOCK
        if col == 0 and step:
            for lane in lanes[live].tolist():
                exps[:, lane] = rngs[lane].standard_exponential(_BLOCK)
        t = t + np.divide(exps[col][lanes], total, out=np.full(len(lanes), np.inf), where=live)
        keep = t < t_end
        if not keep.all():
            lanes, rates, states, t = lanes[keep], rates[:, keep], states[keep], t[keep]
            cum = [c[keep] for c in cum]
            if not len(lanes):
                break
        if col == 0 and step:
            for lane in lanes.tolist():
                unis[:, lane] = rngs[lane].random(_BLOCK)
        u = unis[col][lanes] * cum[-1]
        # the first reaction whose running sum exceeds u, else the last
        chosen = last
        for j in range(last - 1, -1, -1):
            chosen = np.where(u < cum[j], j, chosen)
        states = states + delta.take(chosen, axis=0)
        visits.append((lanes, states, t))
        step += 1

    lane_of, all_states, all_times = (np.concatenate(v) for v in zip(*visits))
    order = np.argsort(lane_of, kind="stable")
    all_states, all_times = all_states[order].astype(np.int64), all_times[order]
    ends = np.cumsum(np.bincount(lane_of, minlength=m)).tolist()
    return [
        Trajectory(states=all_states[start:end], times=all_times[start:end], horizon=float(t_end))
        for start, end in zip([0, *ends], ends)
    ]


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
    squared differences.  The simulated path must reach the last
    observation time.
    """
    last = float(data.times[-1])
    if sim.horizon < last:
        raise ValueError(f"simulation horizon {sim.horizon} ends before last observation at {last}")
    x = states_at(sim, data.times).astype(float)
    diff = data.observations - x
    return float(np.sqrt(np.sum(diff * diff)))


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
