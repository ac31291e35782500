"""Refinement that evaluates every lattice point of every pending box,
kept as the tests' reference for the screened schedule of
``synthesis._refine``.

Each level evaluates the whole 3^k lattice of each pending box (the
points not already known) before it labels the boxes, with the same
margin rule, split rule and stop rule as ``_refine``.  The screened
schedule skips only the points of boxes that a known value already rules
undecided, so both must return the same boxes, labels and status, and the
reference never fewer evaluations.
"""

import itertools

import numpy as np

from crnverify.synthesis import (
    LABEL_SAT,
    LABEL_UNDECIDED,
    LABEL_VIOL,
    MIN_LABEL_DEPTH,
    STATUS_OK,
    STATUS_TOLERANCE_UNMET,
    _lattices,
)
from crnverify.transient import evaluator_for


def reference_refine(pcrn, formula, config, theta_lo, theta_hi):
    """``_refine``'s boxes, labels, status and evaluation count, every
    lattice point evaluated, serially."""
    evaluator = evaluator_for(pcrn, formula)
    widths = theta_hi - theta_lo
    total_volume = float(np.prod(widths))
    sign = 1.0 if formula.relation in (">", ">=") else -1.0
    cache: dict[tuple[float, ...], float] = {}
    out = []
    lo, hi = theta_lo[None, :], theta_hi[None, :]
    for depth in itertools.count():
        if depth >= MIN_LABEL_DEPTH:
            points = list(map(tuple, _lattices(lo, hi).reshape(-1, lo.shape[1]).tolist()))
            todo = sorted(set(points) - cache.keys())
            cache.update(zip(todo, evaluator.probabilities(todo, config.synth_transient_tol).tolist()))
            gap = sign * (np.array([cache[p] for p in points]).reshape(len(lo), -1) - formula.bound)
            sat = np.all(gap >= config.synth_margin, axis=1)
            viol = np.all(gap <= -config.synth_margin, axis=1) & ~sat
            decided = sat | viol
            out.append((lo[decided], hi[decided], np.where(sat, LABEL_SAT, LABEL_VIOL)[decided]))
            lo, hi = lo[~decided], hi[~decided]
        undecided_volume = sum(np.prod(hi - lo, axis=1).tolist())
        met = undecided_volume <= config.synth_volume_tolerance * total_volume
        if met or depth >= config.synth_max_depth:
            out.append((lo, hi, np.full(len(lo), LABEL_UNDECIDED)))
            status = STATUS_OK if met else STATUS_TOLERANCE_UNMET
            break
        rows = np.arange(len(lo))
        dims = np.argmax((hi - lo) / widths, axis=1)
        mid = (lo[rows, dims] + hi[rows, dims]) / 2.0
        lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
        hi[2 * rows, dims] = mid
        lo[2 * rows + 1, dims] = mid
    lo, hi, labels = (np.concatenate(parts) for parts in zip(*out))
    return lo, hi, labels, status, len(cache)
