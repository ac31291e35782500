"""Threshold synthesis: partition the parameter hyperrectangle into boxes
labeled satisfying (T), violating (F), or undecided (U).

A partition is three arrays in box order: ``lo`` and ``hi`` (one row of
corner coordinates per box) and ``labels``.  Refinement works level by
level on all pending boxes at once, evaluating the exact satisfaction
probability on the 3^k lattice of each box (corners, the center, and
face/edge midpoints; the midpoints are exactly the corner set one level
deeper).  A box is labeled only when every lattice value clears the
threshold with a decision margin AND the box sits at least
``MIN_LABEL_DEPTH`` splits deep; shallow agreement is never trusted,
because a coarse lattice can miss a narrow satisfying band outright.
Other boxes are split in two along the longest normalized side (the lowest
index on ties), the lower half first, until the undecided volume fits the
tolerance or the depth cap is reached.  The boxes come out as each level's
decided boxes in pending order, then the last level's undecided ones.
Thresholds that hold vacuously (such as "at least probability zero") label
the whole space in one step with no evaluations.

A level evaluates its lattice in two stages, the box corners first, then
the other points, or in one stage when all its unknown points fit in one
block of lanes: on a small chain one ``probabilities`` call costs about a
whole series whatever its lane count, so a second call costs more than
the points the corners would rule out.  Before each stage a box stays
open only while every value already known on its lattice clears the
margin on the same side; only open boxes' unknown points are evaluated.
A closed box holds a value that rules it undecided whatever its other
points hold, so skipping them changes no label: a box still missing a
value is undecided, and it was undecided anyway.  Deferred points cost
nothing later either, since a box's lattice points are its children's
corners and the cache keeps every value.  The ``evaluations`` count in
the partition header is the number of points actually evaluated.

A stage's points are split into contiguous chunks of at most one block
of lanes (``UntilEvaluator.block_lanes``), fewer points a chunk when that
spreads them over more of the ``workers`` processes, and each chunk runs
as lanes of one Poisson series (``UntilEvaluator.probabilities``).  Labels
are decided purely by evaluations at lattice points, and each lane's
value is the same bits as that point evaluated alone, so the result is
identical however the points are chunked and scheduled.
The margin scheme is heuristic: labels assume the
satisfaction probability varies smoothly between lattice points, and the
statistical audit in the test suite quantifies that gap rather than
certifying it away.
"""

import itertools
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, worker_map
from .csl import CslFormula, format_csl
from .errors import ConfigError, ParseError
from .files import read_json, write_csv, write_json
from .model import PCRN
from .transient import evaluator_for

LABEL_SAT = "T"
LABEL_VIOL = "F"
LABEL_UNDECIDED = "U"
LABELS = (LABEL_SAT, LABEL_VIOL, LABEL_UNDECIDED)

STATUS_OK = "ok"
STATUS_TOLERANCE_UNMET = "tolerance-unmet"

# boxes are never labeled before this many splits: a coarse lattice can
# miss a narrow satisfying band entirely, so agreement at shallow depth is
# not trusted
MIN_LABEL_DEPTH = 4

# points classified per block: the containment test holds one
# (block, boxes) array at a time
CLASSIFY_BLOCK = 256


@dataclass(eq=False)
class RegionPartition:
    """Labeled boxes covering the parameter box ``theta_lo``..``theta_hi``:
    box ``i`` spans ``lo[i]``..``hi[i]`` (each (n, k) floats, columns in
    ``param_names`` order) and carries ``labels[i]``."""

    param_names: tuple[str, ...]
    theta_lo: np.ndarray
    theta_hi: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    labels: np.ndarray
    threshold: float
    relation: str
    volume_tolerance: float
    backend: dict = field(default_factory=dict)
    status: str = STATUS_OK
    property_text: str = ""

    def volume(self, label: str) -> float:
        return float(np.prod(self.hi - self.lo, axis=1)[self.labels == label].sum())

    def theta_volume(self) -> float:
        return float(np.prod(self.theta_hi - self.theta_lo))


def _vacuous_label(relation: str, p: float) -> str | None:
    """Label decided by the threshold alone, for any value in [0, 1]."""
    if (relation == ">=" and p == 0.0) or (relation == "<=" and p == 1.0):
        return LABEL_SAT
    if (relation == ">" and p == 1.0) or (relation == "<" and p == 0.0):
        return LABEL_VIOL
    return None


def _evaluate(pcrn: PCRN, formula: CslFormula, points: list[tuple[float, ...]], tol: float) -> list[float]:
    """Until probabilities of one chunk of points, from this process's
    evaluator: a forked worker inherits its parent's, and a worker started
    any other way builds its own on its first chunk."""
    return evaluator_for(pcrn, formula).probabilities(points, tol).tolist()


def _lattices(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 3^k grid of every box, shape (n, 3^k, k): corners, face/edge
    midpoints and the center, in ``itertools.product`` order."""
    k = lo.shape[1]
    axes = np.stack([lo, (lo + hi) / 2.0, hi], axis=2)
    pick = np.array(list(itertools.product(range(3), repeat=k)))
    return axes[:, np.arange(k), pick]


def _refine(pcrn, formula, config, theta_lo, theta_hi):
    """Boxes, labels, status and evaluation count of the refinement."""
    # built before any worker starts, so forked workers inherit it
    block_lanes = evaluator_for(pcrn, formula).block_lanes
    widths = theta_hi - theta_lo
    total_volume = float(np.prod(widths))
    # gap >= margin satisfies, gap <= -margin violates
    sign = 1.0 if formula.relation in (">", ">=") else -1.0

    cache: dict[tuple[float, ...], float] = {}

    def evaluate_all(points: list[tuple[float, ...]]):
        todo = sorted(set(points) - cache.keys())
        if not todo:
            return
        # contiguous chunks of at most one block of lanes each, handed out
        # one at a time as workers free up; one worker runs the blocks
        # ``probabilities`` would
        size = max(1, min(block_lanes, -(-len(todo) // config.workers)))
        chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
        results = map_(partial(_evaluate, pcrn, formula, tol=config.synth_transient_tol), chunks)
        cache.update(zip(todo, itertools.chain.from_iterable(results)))

    def gaps(points: list[tuple[float, ...]], boxes: int) -> np.ndarray:
        """sign * (value - bound) per box and lattice point, NaN where the
        value is not known yet."""
        values = np.array([cache.get(p, np.nan) for p in points]).reshape(boxes, -1)
        return sign * (values - formula.bound)

    # the lattice positions that are box corners: no midpoint coordinate
    corners = np.array([1 not in pick for pick in itertools.product(range(3), repeat=len(theta_lo))])
    two_stages, one_stage = (corners, ~corners), (np.ones_like(corners),)
    margin = config.synth_margin
    out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (lo, hi, labels) per level
    lo, hi = theta_lo[None, :], theta_hi[None, :]
    with worker_map(config.workers) as map_:
        for depth in itertools.count():
            if depth >= MIN_LABEL_DEPTH:
                points = list(map(tuple, _lattices(lo, hi).reshape(-1, lo.shape[1]).tolist()))
                # corners first, then the rest, each only for boxes whose known
                # values all clear the margin on one side (an unknown value
                # clears both); a closed box is undecided whatever the rest is.
                # Unknown points that fit in one block run as one stage: a
                # second call on a small chain costs a whole series
                fits = len(set(points) - cache.keys()) <= block_lanes
                for stage in one_stage if fits else two_stages:
                    gap = gaps(points, len(lo))
                    open_ = np.all(~(gap < margin), axis=1) | np.all(~(gap > -margin), axis=1)
                    evaluate_all(list(itertools.compress(points, (open_[:, None] & stage).ravel())))
                gap = gaps(points, len(lo))
                sat = np.all(gap >= margin, axis=1)
                viol = np.all(gap <= -margin, axis=1) & ~sat
                decided = sat | viol
                out.append((lo[decided], hi[decided], np.where(sat, LABEL_SAT, LABEL_VIOL)[decided]))
                lo, hi = lo[~decided], hi[~decided]
            # sequential sum in box order (not NumPy's pairwise): the stop level never moves
            undecided_volume = sum(np.prod(hi - lo, axis=1).tolist())
            met = undecided_volume <= config.synth_volume_tolerance * total_volume
            if met or depth >= config.synth_max_depth:
                status = STATUS_OK if met else STATUS_TOLERANCE_UNMET
                out.append((lo, hi, np.full(len(lo), LABEL_UNDECIDED)))
                break
            # split along the longest normalized side (argmax takes the
            # lowest index on ties), the lower half before the upper half
            rows = np.arange(len(lo))
            dims = np.argmax((hi - lo) / widths, axis=1)
            mid = (lo[rows, dims] + hi[rows, dims]) / 2.0
            lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
            hi[2 * rows, dims] = mid
            lo[2 * rows + 1, dims] = mid
    lo, hi, labels = (np.concatenate(parts) for parts in zip(*out))
    return lo, hi, labels, status, len(cache)


def synthesize(pcrn: PCRN, formula: CslFormula, config: ExperimentConfig) -> RegionPartition:
    """Partition the parameter space for the given threshold property.

    Reads the ``synth_*`` settings and ``workers`` of ``config``.  Returns a
    partition whose undecided volume fraction meets the tolerance when
    possible; otherwise the partition is still returned complete, with
    status "tolerance-unmet".
    """
    theta_lo = np.asarray(pcrn.params.lower, dtype=float)
    theta_hi = np.asarray(pcrn.params.upper, dtype=float)

    # a vacuous threshold holds (or fails) whatever the satisfaction
    # probability is: no evaluation, no refinement
    vacuous = _vacuous_label(formula.relation, formula.bound)
    if vacuous is None:
        lo, hi, labels, status, evaluations = _refine(pcrn, formula, config, theta_lo, theta_hi)
    else:
        lo, hi, labels = theta_lo[None, :], theta_hi[None, :], np.array([vacuous])
        status, evaluations = STATUS_OK, 0
    return RegionPartition(
        param_names=pcrn.params.names,
        theta_lo=theta_lo,
        theta_hi=theta_hi,
        lo=lo,
        hi=hi,
        labels=labels,
        threshold=formula.bound,
        relation=formula.relation,
        volume_tolerance=config.synth_volume_tolerance,
        backend={"backend": "uniformization", "tol": config.synth_transient_tol, "margin": config.synth_margin,
                 "max_depth": config.synth_max_depth, "min_label_depth": MIN_LABEL_DEPTH, "evaluations": evaluations},
        status=status,
        property_text=format_csl(formula),
    )


def classify_points(partition: RegionPartition, values: np.ndarray) -> np.ndarray:
    """Labels of the boxes containing many points (an object array), None
    for points outside the parameter box.

    A point on faces shared by several boxes takes the label of the one
    that sorts first by ``(lo, hi)`` compared lexicographically, so
    classification does not depend on box order.  ``values`` holds one
    point per row, columns in ``partition.param_names`` order; any other
    shape is a ``ConfigError``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(partition.param_names):
        raise ConfigError(f"points of shape {values.shape} do not match parameters {list(partition.param_names)}")
    rank = np.lexsort(np.hstack([partition.lo, partition.hi]).T[::-1])
    lo, hi, labels = partition.lo[rank], partition.hi[rank], partition.labels[rank]
    out = np.full(len(values), None, dtype=object)
    for start in range(0, len(values), CLASSIFY_BLOCK):
        block = values[start:start + CLASSIFY_BLOCK]
        hits = np.ones((len(block), len(lo)), dtype=bool)
        for d in range(lo.shape[1]):
            hits &= (lo[:, d] <= block[:, d, None]) & (block[:, d, None] <= hi[:, d])
        inside = np.all((partition.theta_lo <= block) & (block <= partition.theta_hi), axis=1)
        missed = inside & ~hits.any(axis=1)
        if missed.any():
            point = dict(zip(partition.param_names, block[missed][0].tolist()))
            raise ValueError(f"partition does not cover point {point}")
        out[start:start + CLASSIFY_BLOCK][inside] = labels[np.argmax(hits[inside], axis=1)]
    return out


# ---------------------------------------------------------------------------
# Partition files and the heatmap grid export.


def save_partition(partition: RegionPartition, path: str | Path) -> None:
    write_json(path, {
        "header": {
            "p": partition.threshold,
            "relation": partition.relation,
            "tolerance": partition.volume_tolerance,
            "params": list(partition.param_names),
            "theta_lo": partition.theta_lo.tolist(),
            "theta_hi": partition.theta_hi.tolist(),
            "property": partition.property_text,
            "status": partition.status,
            "backend": partition.backend,
        },
        "boxes": [
            {"lo": lo, "hi": hi, "label": label}
            for lo, hi, label in zip(partition.lo.tolist(), partition.hi.tolist(), partition.labels.tolist())
        ],
    })


def _finite_rows(rows, k: int, what: str, path) -> np.ndarray:
    """``rows`` as an (n, k) array of finite floats, or a ``ParseError``."""
    try:
        array = np.array(rows)
        if array.ndim == 2 and array.shape[1] == k and array.dtype.kind in "iuf" and np.isfinite(array).all():
            return array.astype(float)
    except ValueError:  # ragged
        pass
    raise ParseError(f"partition {path}: {what} must be lists of {k} finite numbers")


def load_partition(path: str | Path) -> RegionPartition:
    """Read a partition file; a ``ParseError`` unless it holds a nonempty
    list of boxes with ``lo < hi`` that tile ``theta``, each labeled T, F
    or U."""
    doc = read_json(path, "partition")
    try:
        header, boxes = doc["header"], doc["boxes"]
        names = tuple(header["params"])
        theta = [header["theta_lo"], header["theta_hi"]]
        lo, hi, labels = [b["lo"] for b in boxes], [b["hi"] for b in boxes], [b["label"] for b in boxes]
        settings = {
            "threshold": header["p"],
            "relation": header["relation"],
            "volume_tolerance": header["tolerance"],
            "backend": header.get("backend", {}),
            "status": header.get("status", STATUS_OK),
            "property_text": header.get("property", ""),
        }
    except (KeyError, TypeError) as exc:
        raise ParseError(f"partition {path}: missing or malformed {exc}") from exc
    if not labels:
        raise ParseError(f"partition {path}: no boxes")
    if any(label not in LABELS for label in labels):
        raise ParseError(f"partition {path}: every label must be one of {list(LABELS)}")
    theta_lo, theta_hi = _finite_rows(theta, len(names), "theta_lo and theta_hi", path)
    lo = _finite_rows(lo, len(names), "box corners", path)
    hi = _finite_rows(hi, len(names), "box corners", path)
    if not (np.all(theta_lo < theta_hi) and np.all(lo < hi)):
        raise ParseError(f"partition {path}: theta and every box need lo < hi in every dimension")
    if not (np.all(theta_lo <= lo) and np.all(hi <= theta_hi)):
        raise ParseError(f"partition {path}: a box lies outside theta")
    partition = RegionPartition(
        param_names=names, theta_lo=theta_lo, theta_hi=theta_hi, lo=lo, hi=hi, labels=np.array(labels), **settings
    )
    _check_tiling(partition, path)
    return partition


def _check_tiling(partition: RegionPartition, path) -> None:
    """A ``ParseError`` unless the boxes tile theta: no two overlap by more
    than 1e-12 of its volume, and their volumes sum to it within 1e-9
    relative.  Overlaps are computed for ``CLASSIFY_BLOCK`` boxes at a time
    against all of them, so temporaries stay O(block x boxes)."""
    lo, hi = partition.lo, partition.hi
    theta_volume = partition.theta_volume()
    for start in range(0, len(lo), CLASSIFY_BLOCK):
        block = slice(start, start + CLASSIFY_BLOCK)
        overlap = np.ones((len(lo[block]), len(lo)))
        for d in range(lo.shape[1]):
            side = np.minimum(hi[block, d, None], hi[:, d]) - np.maximum(lo[block, d, None], lo[:, d])
            overlap *= np.maximum(side, 0.0)
        rows = np.arange(len(overlap))
        overlap[rows, start + rows] = 0.0  # a box with itself
        if overlap.max() > 1e-12 * theta_volume:
            i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
            raise ParseError(f"partition {path}: boxes {start + i} and {j} overlap")
    covered = float(np.prod(hi - lo, axis=1).sum())
    if abs(covered - theta_volume) > 1e-9 * theta_volume:
        raise ParseError(f"partition {path}: the boxes cover volume {covered!r} of theta's {theta_volume!r}")


def save_heatmap_grid(partition: RegionPartition, path: str | Path, resolution: int = 100) -> None:
    """Rasterize box labels onto a cell-center grid as CSV for external plotting."""
    if resolution < 1:
        raise ConfigError("grid resolution must be positive")
    lo, hi = partition.theta_lo, partition.theta_hi
    k = len(lo)
    axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(resolution) + 0.5) / resolution for d in range(k)]
    grid = np.array(list(itertools.product(*axes)))
    rows = ([*(repr(float(v)) for v in combo), label] for combo, label in zip(grid, classify_points(partition, grid)))
    write_csv(path, {}, [*partition.param_names, "label"], rows)
