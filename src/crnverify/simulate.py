"""Exact stochastic simulation and noisy discrete-time observation of networks.

Trajectories are right-continuous piecewise-constant paths produced by the
Gillespie direct method: the holding time in a state is exponential in the
total propensity and the next reaction is chosen proportionally to its
propensity.  Observation turns a trajectory into the kind of data the
inference machinery consumes: molecule counts at chosen times plus
independent Gaussian noise.
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


class _DrawBuffer:
    """Blocked draws from one generator, consumed in a fixed order."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._exp = rng.standard_exponential(_BLOCK)
        self._uni = rng.random(_BLOCK)
        self._ei = 0
        self._ui = 0

    def exponential(self) -> float:
        if self._ei == len(self._exp):
            self._exp = self.rng.standard_exponential(_BLOCK)
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return v

    def uniform(self) -> float:
        if self._ui == len(self._uni):
            self._uni = self.rng.random(_BLOCK)
            self._ui = 0
        v = self._uni[self._ui]
        self._ui += 1
        return v


def simulate(pcrn: PCRN, point: Sequence[float], t_end: float, rng: np.random.Generator) -> Trajectory:
    """Sample one exact path of the chain instantiated at ``point`` (rates in
    ``pcrn.params.names`` order) on [0, t_end].

    Absorbing states simply hold to the horizon.  Identical generator state
    and inputs reproduce the trajectory bit-exactly.
    """
    if t_end <= 0:
        raise ConfigError("simulation horizon must be positive")
    compiled = compiled_reactions(pcrn)
    values = point_values(pcrn.params.names, point)
    rates = [values[k] for _, _, k in compiled]
    reactants = [r for r, _, _ in compiled]
    n_reactions = len(compiled)
    state = list(pcrn.initial_state)
    t = 0.0
    states = [tuple(state)]
    times = [0.0]
    draws = _DrawBuffer(rng)
    props = [0.0] * n_reactions
    while True:
        total = 0.0
        for j in range(n_reactions):
            a = rates[j] * _falling_product(reactants[j], state)
            props[j] = a
            total += a
        if total <= 0.0:
            break
        t += draws.exponential() / total
        if t >= t_end:
            break
        u = draws.uniform() * total
        acc = 0.0
        chosen = n_reactions - 1
        for j in range(n_reactions):
            acc += props[j]
            if u < acc:
                chosen = j
                break
        for i, d in compiled[chosen][1]:
            state[i] += d
        states.append(tuple(state))
        times.append(t)
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        times=np.array(times, dtype=float),
        horizon=float(t_end),
    )


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
