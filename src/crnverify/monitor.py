"""Decide time-bounded until formulas on sampled paths and estimate the
satisfaction probability by simulation.

The until check is exact on the piecewise-constant path: it scans jump
intervals rather than sampling a time grid, so verdicts carry no
discretization error.  At a jump instant the post-jump state governs,
matching the simulator's right-continuous convention.

An estimate draws all its runs from the one generator it is given: they
are lanes of ``simulate_visits`` calls of at most ``simulate._LANES``
lanes each, made in turn on that generator, and are checked on the flat
visit arrays those calls return.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .csl import CslFormula, StateFormula
from .model import PCRN, point_values
# ``simulate`` is unused here but stays importable: crnperf/spans.py wraps it by name
from .simulate import _LANES, Trajectory, simulate, simulate_visits  # noqa: F401


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
    ends = np.cumsum([len(p.times) for p in paths])
    states = np.concatenate([p.states for p in paths])
    times = np.concatenate([p.times for p in paths])
    return _check_until_visits(states, times, ends, phi1, phi2, t_lo, t_hi, index)


def _check_until_visits(
    states: np.ndarray,
    a: np.ndarray,
    ends: np.ndarray,
    phi1: StateFormula,
    phi2: StateFormula,
    t_lo: float,
    t_hi: float,
    index: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """``check_until_paths`` on paths given as flat visit arrays: path
    ``i`` holds rows ``ends[i-1]:ends[i]`` (from 0 for path 0) of
    ``states`` and their entry times ``a``, and reaches ``t_hi``."""
    starts = np.append(0, ends[:-1])
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
    witness = np.full(len(ends), np.nan)
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

    The runs are lanes of ``simulate_visits`` on ``rng``, in blocks of at
    most ``_LANES``.  The half-width is the 95% normal approximation,
    intended for diagnostics rather than guarantees.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    path = formula.path
    values = point_values(pcrn.params.names, point)
    satisfied = 0
    for start in range(0, n_sims, _LANES):
        lanes = min(_LANES, n_sims - start)
        if path.t_hi > 0:
            states, times, ends = simulate_visits(pcrn, [values] * lanes, path.t_hi, rng)
        else:  # every run is its initial state alone
            states = np.tile(np.asarray(pcrn.initial_state, dtype=np.int64), (lanes, 1))
            times, ends = np.zeros(lanes), np.arange(1, lanes + 1)
        hits, _ = _check_until_visits(states, times, ends, path.phi1, path.phi2, path.t_lo, path.t_hi,
                                      pcrn.species_index())
        satisfied += int(np.count_nonzero(hits))
    mean = satisfied / n_sims
    ci = 1.96 * float(np.sqrt(mean * (1.0 - mean) / n_sims))
    return LambdaEstimate(mean=mean, n=n_sims, ci_halfwidth=ci)
