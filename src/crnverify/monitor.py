"""Estimate the satisfaction probability of a time-bounded until formula
by simulation.

Each run is decided as it is simulated (``simulate.simulate_until``): the
until rule reads the run's jump intervals in order, exact on the
piecewise-constant path rather than on a time grid, so verdicts carry no
discretization error, and the run stops once its verdict is known.  At a
jump instant the post-jump state governs, matching the simulator's
right-continuous convention.

An estimate draws all its runs from the one generator it is given for
its point: they are lanes of ``simulate_until`` calls of at most
``simulate._LANES`` lanes each, made in turn on that generator.
Estimates at many points share those calls, each point's runs forming
their own groups.  No run's path is kept.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .csl import CslFormula
from .model import PCRN, point_values
# ``simulate`` is unused here but stays importable: crnperf/spans.py wraps it by name
from .simulate import _LANES, simulate, simulate_until  # noqa: F401


@dataclass(frozen=True)
class LambdaEstimate:
    """Monte Carlo estimate of the satisfaction probability at one parameter point."""

    mean: float
    n: int
    ci_halfwidth: float


def estimate_lambda(
    pcrn: PCRN,
    points: Sequence[Sequence[float]],
    formula: CslFormula,
    n_sims: int,
    rngs: Sequence[np.random.Generator],
) -> list[LambdaEstimate]:
    """Fraction of ``n_sims`` independent sample paths satisfying the path
    formula, at each of ``points``.

    Point ``i``'s runs draw from ``rngs[i]`` alone, as ``simulate_until``
    calls of at most ``_LANES`` lanes made in turn on it.  The points'
    runs share calls: each call packs whole pieces of at most ``_LANES``
    runs, in point order, one group per piece, up to ``_LANES`` lanes in
    all.  A piece with a later piece holds its group, so the later piece
    starts where a full-length call would leave the generator; the runs
    of a point's last piece stop once decided, and leave ``rngs[i]``
    wherever they stop drawing.  The half-width is the 95% normal
    approximation, intended for diagnostics rather than guarantees.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    if len(points) != len(rngs):
        raise ValueError(f"{len(points)} points need as many generators, got {len(rngs)}")
    values = [point_values(pcrn.params.names, point) for point in points]
    # pieces (point, runs, whether a later piece follows), packed in order
    # into calls of at most _LANES lanes; a point wider than _LANES fills
    # whole calls before its last piece, so no call holds two pieces of one
    # point
    calls, width = [], _LANES
    for i in range(len(values)):
        for start in range(0, n_sims, _LANES):
            runs = min(_LANES, n_sims - start)
            if width + runs > _LANES:
                calls.append([])
                width = 0
            calls[-1].append((i, runs, start + runs < n_sims))
            width += runs
    satisfied = np.zeros(len(values), dtype=np.int64)
    for call in calls:
        ids, sizes = [i for i, _, _ in call], [n for _, n, _ in call]
        hits = simulate_until(pcrn, np.repeat([values[i] for i in ids], sizes, axis=0), formula.path,
                              [(rngs[i], n) for i, n, _ in call], [later for _, _, later in call])
        satisfied[ids] += np.add.reduceat(hits, np.cumsum(sizes) - sizes, dtype=np.int64)
    estimates = []
    for count in satisfied.tolist():
        mean = count / n_sims
        ci = 1.96 * float(np.sqrt(mean * (1.0 - mean) / n_sims))
        estimates.append(LambdaEstimate(mean=mean, n=n_sims, ci_halfwidth=ci))
    return estimates
