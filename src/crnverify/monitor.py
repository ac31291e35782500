"""Decide time-bounded until formulas on sampled paths and estimate the
satisfaction probability by simulation.

The until check is exact on the piecewise-constant path: it scans jump
intervals rather than sampling a time grid, so verdicts carry no
discretization error.  At a jump instant the post-jump state governs,
matching the simulator's right-continuous convention.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .csl import CslFormula, StateFormula
from .model import PCRN, point_values
# ``simulate`` is unused here but stays importable: crnperf/spans.py wraps it by name
from .simulate import Trajectory, simulate, simulate_paths  # noqa: F401


# paths simulated and checked together: bounds the memory of one block at
# O(_LANES x events) however many runs an estimate takes
_LANES = 1024


@dataclass(frozen=True)
class Verdict:
    """Outcome of one path check; the witness is the earliest fulfilling time."""

    satisfied: bool
    witness_time: float | None = None


@dataclass(frozen=True)
class LambdaEstimate:
    """Monte Carlo estimate of the satisfaction probability at one parameter point."""

    mean: float
    n: int
    ci_halfwidth: float


def check_until(
    traj: Trajectory,
    phi1: StateFormula,
    phi2: StateFormula,
    t_lo: float,
    t_hi: float,
    index: dict[str, int],
) -> Verdict:
    """Check  phi1 U[t_lo, t_hi] phi2  on one trajectory: the one-path call
    of ``check_until_paths``.

    Satisfied iff some witness time tau in [t_lo, t_hi] has phi2 at the
    state occupied at tau and phi1 at every strictly earlier time.
    """
    satisfied, witness = check_until_paths([traj], phi1, phi2, t_lo, t_hi, index)
    return Verdict(satisfied=True, witness_time=float(witness[0])) if satisfied[0] else Verdict(satisfied=False)


def check_until_paths(
    paths: Sequence[Trajectory],
    phi1: StateFormula,
    phi2: StateFormula,
    t_lo: float,
    t_hi: float,
    index: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Check  phi1 U[t_lo, t_hi] phi2  on every path at once.

    Returns ``(satisfied, witness)``, one entry per path; the witness is the
    earliest fulfilling time, NaN where the formula fails.  Each state row
    opens the interval [a, b) up to the next jump; the last interval of a
    path ends past ``t_hi``, so it covers the closed window end.  A path is
    satisfied iff its first witnessing interval comes no later than its
    first interval where phi1 fails: phi1 on [0, a) held before it.
    """
    if any(p.horizon < t_hi for p in paths):
        raise ValueError(f"trajectory horizon {min(p.horizon for p in paths)} ends before t'={t_hi}")
    states = np.concatenate([p.states for p in paths])
    a = np.concatenate([p.times for p in paths])
    lengths = [len(p.times) for p in paths]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    b = np.append(a[1:], 0.0)
    b[ends - 1] = t_hi + 1.0
    m1 = phi1.mask(states, index)
    m2 = phi2.mask(states, index)
    in_window = a <= t_hi
    lo = np.maximum(a, t_lo)
    # within [a, b) the witness is lo; the stretch [a, lo) needs phi1 only when lo > a
    witnesses = in_window & m2 & (lo <= t_hi) & (lo < b) & ((lo == a) | m1)
    failures = in_window & ~m1
    row, none = np.arange(len(a)), len(a)
    first_witness = np.minimum.reduceat(np.where(witnesses, row, none), starts)
    first_failure = np.minimum.reduceat(np.where(failures, row, none), starts)
    satisfied = (first_witness < none) & (first_witness <= first_failure)
    witness = np.full(len(paths), np.nan)
    witness[satisfied] = lo[first_witness[satisfied]]
    return satisfied, witness


def estimate_lambda(
    pcrn: PCRN,
    point: Sequence[float],
    formula: CslFormula,
    n_sims: int,
    rng: np.random.Generator,
) -> LambdaEstimate:
    """Fraction of independent sample paths satisfying the path formula.

    Each run uses its own spawned substream, so the estimate is identical
    however the runs are scheduled; they are simulated as lanes of
    ``simulate_paths`` in blocks of at most ``_LANES``.  The half-width is the 95% normal
    approximation, intended for diagnostics rather than guarantees.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    path = formula.path
    values = point_values(pcrn.params.names, point)
    children = rng.spawn(n_sims)
    satisfied = 0
    for start in range(0, n_sims, _LANES):
        block = children[start:start + _LANES]
        if path.t_hi > 0:
            paths = simulate_paths(pcrn, [values] * len(block), path.t_hi, block)
        else:
            paths = [_empty_path(pcrn)] * len(block)
        hits, _ = check_until_paths(paths, path.phi1, path.phi2, path.t_lo, path.t_hi, pcrn.species_index())
        satisfied += int(np.count_nonzero(hits))
    mean = satisfied / n_sims
    ci = 1.96 * float(np.sqrt(mean * (1.0 - mean) / n_sims))
    return LambdaEstimate(mean=mean, n=n_sims, ci_halfwidth=ci)


def _empty_path(pcrn: PCRN) -> Trajectory:
    return Trajectory(
        states=np.array([pcrn.initial_state], dtype=np.int64),
        times=np.array([0.0]),
        horizon=0.0,
    )
