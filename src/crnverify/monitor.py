"""Estimate the satisfaction probability of a time-bounded until formula
by simulation.

Each run is decided as it is simulated (``simulate.simulate_until``): the
until rule reads the run's jump intervals in order, exact on the
piecewise-constant path rather than on a time grid, so verdicts carry no
discretization error, and the run stops once its verdict is known.  At a
jump instant the post-jump state governs, matching the simulator's
right-continuous convention.

An estimate splits its runs into pieces of at most ``simulate._LANES``
runs, each a group of lanes in a ``simulate_until`` call on a generator
of its own: the first piece draws from the generator the estimate is
given for its point, and each later piece from a child spawned off it.
Estimates at many points share those calls.  No run's path is kept, and
no generator is read after its piece's call.
"""

from collections.abc import Sequence

import numpy as np

from .csl import CslFormula
from .model import PCRN, point_values
# ``simulate`` is unused here but stays importable: crnperf/spans.py wraps it by name
from .simulate import _LANES, simulate, simulate_until  # noqa: F401


def estimate_lambda(
    pcrn: PCRN,
    points: Sequence[Sequence[float]],
    formula: CslFormula,
    n_sims: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Fraction of ``n_sims`` independent sample paths satisfying the path
    formula, at each of ``points``, as one float array.

    Point ``i``'s runs come in pieces of at most ``_LANES`` runs: piece 0
    draws from ``rngs[i]``, and piece p >= 1 from child p - 1 of
    ``rngs[i].spawn(pieces - 1)``, so a later piece exists only when
    ``n_sims`` exceeds ``_LANES``.  The points' pieces, in order, are
    packed greedily into ``simulate_until`` calls of at most ``_LANES``
    lanes, one group per piece; each run stops once decided.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    if len(points) != len(rngs):
        raise ValueError(f"{len(points)} points need as many generators, got {len(rngs)}")
    values = [point_values(pcrn.params.names, point) for point in points]
    pieces = -(-n_sims // _LANES)
    calls, width = [], _LANES
    for i in range(len(values)):
        for start, rng in zip(range(0, n_sims, _LANES), [rngs[i], *rngs[i].spawn(pieces - 1)]):
            runs = min(_LANES, n_sims - start)
            if width + runs > _LANES:
                calls.append([])
                width = 0
            calls[-1].append((i, rng, runs))
            width += runs
    satisfied = np.zeros(len(values), dtype=np.int64)
    for call in calls:
        ids, sizes = [i for i, _, _ in call], [n for _, _, n in call]
        hits = simulate_until(pcrn, np.repeat([values[i] for i in ids], sizes, axis=0), formula.path,
                              [(rng, n) for _, rng, n in call])
        np.add.at(satisfied, ids, np.add.reduceat(hits, np.cumsum(sizes) - sizes, dtype=np.int64))
    return satisfied / n_sims
