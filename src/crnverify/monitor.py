"""Decide time-bounded until formulas on sampled paths and estimate the
satisfaction probability by simulation.

The until check is exact on the piecewise-constant path: it scans jump
intervals rather than sampling a time grid, so verdicts carry no
discretization error.  At a jump instant the post-jump state governs,
matching the simulator's right-continuous convention.

An estimate draws all its runs from the one generator it is given for
its point: they are lanes of ``simulate_visits`` calls of at most
``simulate._LANES`` lanes each, made in turn on that generator, and are
checked on the flat visit arrays those calls return, never built into a
``Trajectory`` each.  Estimates at many points share those calls, each
point's runs forming their own groups.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .csl import CslFormula, StateFormula
from .model import PCRN, point_values
# ``simulate`` is unused here but stays importable: crnperf/spans.py wraps it by name
from .simulate import _LANES, simulate, simulate_visits  # noqa: F401


@dataclass(frozen=True)
class LambdaEstimate:
    """Monte Carlo estimate of the satisfaction probability at one parameter point."""

    mean: float
    n: int
    ci_halfwidth: float


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
    """Check  phi1 U[t_lo, t_hi] phi2  on every path at once.  Path ``i``
    holds rows ``ends[i-1]:ends[i]`` (from 0 for path 0) of ``states`` and
    their entry times ``a``, and reaches ``t_hi``.

    A path satisfies the formula iff some witness time tau in [t_lo, t_hi]
    has phi2 at the state occupied at tau and phi1 at every strictly
    earlier time.  Returns ``(satisfied, witness)``, one entry per path;
    the witness is the earliest fulfilling time, NaN where the formula
    fails.  Each state row opens the interval [a, b) up to the next jump;
    the last interval of a path ends past ``t_hi``, so it covers the
    closed window end.  A path is satisfied iff its first witnessing
    interval comes no later than its first interval where phi1 fails:
    phi1 on [0, a) held before it.
    """
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
    points: Sequence[Sequence[float]],
    formula: CslFormula,
    n_sims: int,
    rngs: Sequence[np.random.Generator],
) -> list[LambdaEstimate]:
    """Fraction of ``n_sims`` independent sample paths satisfying the path
    formula, at each of ``points``.

    Point ``i``'s runs draw from ``rngs[i]`` alone, as ``simulate_visits``
    calls of at most ``_LANES`` lanes made in turn on it.  The points'
    runs share calls: each call packs whole pieces of at most ``_LANES``
    runs, in point order, one group per piece, up to ``_LANES`` lanes in
    all.  The half-width is the 95% normal approximation, intended for
    diagnostics rather than guarantees.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    if len(points) != len(rngs):
        raise ValueError(f"{len(points)} points need as many generators, got {len(rngs)}")
    path = formula.path
    values = [point_values(pcrn.params.names, point) for point in points]
    # pieces (point, runs), packed in order into calls of at most _LANES
    # lanes; a point wider than _LANES fills whole calls before its last
    # piece, so no call holds two pieces of one point
    calls, width = [], _LANES
    for i in range(len(values)):
        for start in range(0, n_sims, _LANES):
            runs = min(_LANES, n_sims - start)
            if width + runs > _LANES:
                calls.append([])
                width = 0
            calls[-1].append((i, runs))
            width += runs
    satisfied = np.zeros(len(values), dtype=np.int64)
    for call in calls:
        ids, sizes = [i for i, _ in call], [n for _, n in call]
        if path.t_hi > 0:
            states, times, ends = simulate_visits(pcrn, np.repeat([values[i] for i in ids], sizes, axis=0),
                                                  path.t_hi, [(rngs[i], n) for i, n in call])
        else:  # every run is its initial state alone
            lanes = sum(sizes)
            states = np.tile(np.asarray(pcrn.initial_state, dtype=np.int64), (lanes, 1))
            times, ends = np.zeros(lanes), np.arange(1, lanes + 1)
        hits, _ = _check_until_visits(states, times, ends, path.phi1, path.phi2, path.t_lo, path.t_hi,
                                      pcrn.species_index())
        satisfied[ids] += np.add.reduceat(hits, np.cumsum(sizes) - sizes, dtype=np.int64)
    estimates = []
    for count in satisfied.tolist():
        mean = count / n_sims
        ci = 1.96 * float(np.sqrt(mean * (1.0 - mean) / n_sims))
        estimates.append(LambdaEstimate(mean=mean, n=n_sims, ci_halfwidth=ci))
    return estimates
