"""Threshold synthesis: partition the parameter hyperrectangle into boxes
labeled satisfying (T), violating (F), or undecided (U).

The refinement scheme evaluates the exact satisfaction probability on the
3^k lattice of each box (corners, the center, and face/edge midpoints; the
midpoints are exactly the corner set one refinement level deeper).  A box
is labeled only when every lattice value clears the threshold with a
decision margin AND the box sits at least ``min_label_depth`` splits deep;
shallow agreement is never trusted, because a coarse lattice can miss a
narrow satisfying band outright.  Boxes whose values disagree are always
split, along the longest normalized side.  Refinement proceeds level by
level and stops as soon as the undecided volume fits the tolerance or the
depth cap is reached.  Thresholds that hold vacuously (such as "at least
probability zero") label the whole space in one step with no evaluations.

Labels are decided purely by evaluations at lattice points, so the result
is identical however box evaluations are scheduled.  The margin scheme is
heuristic: labels assume the satisfaction probability varies smoothly
between lattice points, and the statistical audit in the test suite
quantifies that gap rather than certifying it away.
"""

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .csl import CslFormula, format_csl, parse_csl
from .errors import ConfigError
from .files import read_json, write_csv, write_json
from .model import PCRN, ParamPoint
from .transient import UntilEvaluator, evaluator_for

LABEL_SAT = "T"
LABEL_VIOL = "F"
LABEL_UNDECIDED = "U"

STATUS_OK = "ok"
STATUS_TOLERANCE_UNMET = "tolerance-unmet"


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box inside the parameter space."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ConfigError("box needs lo < hi in every dimension")

    def volume(self) -> float:
        return float(np.prod(np.array(self.hi) - np.array(self.lo)))

    def split(self, dim: int) -> tuple["Box", "Box"]:
        mid = (self.lo[dim] + self.hi[dim]) / 2.0
        lo2 = list(self.lo)
        hi1 = list(self.hi)
        lo2[dim] = mid
        hi1[dim] = mid
        return Box(self.lo, tuple(hi1)), Box(tuple(lo2), self.hi)

    def lattice(self) -> list[tuple[float, ...]]:
        """The 3^k grid: corners, face/edge midpoints, and the center."""
        axes = [(l, (l + h) / 2.0, h) for l, h in zip(self.lo, self.hi)]
        return [tuple(p) for p in itertools.product(*axes)]


@dataclass
class SynthesisConfig:
    margin: float = 0.02
    max_depth: int = 12
    # boxes are never labeled before this many splits: a coarse lattice can
    # miss a narrow satisfying band entirely, so agreement at shallow depth
    # is not trusted
    min_label_depth: int = 4
    transient_tol: float = 1e-8
    workers: int = 1


@dataclass
class RegionPartition:
    """Labeled boxes covering the parameter space."""

    param_names: tuple[str, ...]
    theta: Box
    boxes: list[tuple[Box, str]]
    threshold: float
    relation: str
    volume_tolerance: float
    backend: dict = field(default_factory=dict)
    status: str = STATUS_OK
    property_text: str = ""

    def volume(self, label: str) -> float:
        return sum(b.volume() for b, lab in self.boxes if lab == label)


def _vacuous_label(relation: str, p: float) -> str | None:
    """Label decided by the threshold alone, for any value in [0, 1]."""
    if (relation == ">=" and p == 0.0) or (relation == "<=" and p == 1.0):
        return LABEL_SAT
    if (relation == ">" and p == 1.0) or (relation == "<" and p == 0.0):
        return LABEL_VIOL
    return None


def _satisfies_with_margin(value: float, relation: str, p: float, margin: float) -> bool:
    if relation in (">", ">="):
        return value - p >= margin
    return p - value >= margin


def _violates_with_margin(value: float, relation: str, p: float, margin: float) -> bool:
    if relation in (">", ">="):
        return p - value >= margin
    return value - p >= margin


_WORKER_EVALUATOR: UntilEvaluator | None = None
_WORKER_TOL = 1e-8


def _worker_init(pcrn, formula_text, tol):
    global _WORKER_EVALUATOR, _WORKER_TOL
    _WORKER_EVALUATOR = evaluator_for(pcrn, parse_csl(formula_text))
    _WORKER_TOL = tol


def _worker_eval(args):
    names, values = args
    return _WORKER_EVALUATOR.probability(ParamPoint(names, values), _WORKER_TOL)


def synthesize(
    pcrn: PCRN,
    formula: CslFormula,
    volume_tolerance: float,
    config: SynthesisConfig | None = None,
) -> RegionPartition:
    """Partition the parameter space for the given threshold property.

    Returns a partition whose undecided volume fraction meets the tolerance
    when possible; otherwise the partition is still returned complete, with
    status "tolerance-unmet".
    """
    if not 0 < volume_tolerance < 1:
        raise ConfigError("volume tolerance must lie strictly between 0 and 1")
    config = config or SynthesisConfig()
    space = pcrn.params
    theta = Box(lo=tuple(space.lower), hi=tuple(space.upper))
    total_volume = theta.volume()
    names = space.names

    # a vacuous threshold holds (or fails) whatever the satisfaction
    # probability is: no evaluation, no refinement
    vacuous = _vacuous_label(formula.relation, formula.bound)
    if vacuous is not None:
        return RegionPartition(
            param_names=names,
            theta=theta,
            boxes=[(theta, vacuous)],
            threshold=formula.bound,
            relation=formula.relation,
            volume_tolerance=volume_tolerance,
            backend={"backend": "uniformization", "tol": config.transient_tol,
                     "margin": config.margin, "max_depth": config.max_depth,
                     "evaluations": 0},
            status=STATUS_OK,
            property_text=format_csl(formula),
        )

    evaluator = evaluator_for(pcrn, formula)

    cache: dict[tuple[float, ...], float] = {}
    pool = None
    if config.workers > 1:
        pool = ProcessPoolExecutor(
            max_workers=config.workers,
            initializer=_worker_init,
            initargs=(pcrn, format_csl(formula), config.transient_tol),
        )

    def evaluate_all(points: list[tuple[float, ...]]):
        todo = sorted({p for p in points if p not in cache})
        if not todo:
            return
        if pool is not None:
            results = list(pool.map(_worker_eval, [(names, p) for p in todo], chunksize=4))
        else:
            results = [
                evaluator.probability(ParamPoint(names, p), config.transient_tol) for p in todo
            ]
        cache.update(zip(todo, results))

    labeled: list[tuple[Box, str]] = []
    pending = [theta]
    depth = 0
    status = STATUS_OK
    try:
        while pending:
            deep_enough = depth >= config.min_label_depth
            if deep_enough:
                evaluate_all([pt for box in pending for pt in box.lattice()])
            still_undecided: list[Box] = []
            for box in pending:
                values = [cache[pt] for pt in box.lattice()] if deep_enough else []
                if deep_enough and all(
                    _satisfies_with_margin(v, formula.relation, formula.bound, config.margin)
                    for v in values
                ):
                    labeled.append((box, LABEL_SAT))
                elif deep_enough and all(
                    _violates_with_margin(v, formula.relation, formula.bound, config.margin)
                    for v in values
                ):
                    labeled.append((box, LABEL_VIOL))
                else:
                    still_undecided.append(box)
            undecided_volume = sum(b.volume() for b in still_undecided)
            if undecided_volume <= volume_tolerance * total_volume:
                labeled.extend((b, LABEL_UNDECIDED) for b in still_undecided)
                break
            if depth >= config.max_depth:
                labeled.extend((b, LABEL_UNDECIDED) for b in still_undecided)
                status = STATUS_TOLERANCE_UNMET
                break
            widths_norm = np.array(space.upper) - np.array(space.lower)
            pending = []
            for box in still_undecided:
                sides = (np.array(box.hi) - np.array(box.lo)) / widths_norm
                dim = int(np.argmax(sides))  # argmax takes the lowest index on ties
                pending.extend(box.split(dim))
            depth += 1
    finally:
        if pool is not None:
            pool.shutdown()

    return RegionPartition(
        param_names=names,
        theta=theta,
        boxes=labeled,
        threshold=formula.bound,
        relation=formula.relation,
        volume_tolerance=volume_tolerance,
        backend={
            "backend": "uniformization",
            "tol": config.transient_tol,
            "margin": config.margin,
            "max_depth": config.max_depth,
            "min_label_depth": config.min_label_depth,
            "evaluations": len(cache),
        },
        status=status,
        property_text=format_csl(formula),
    )


def _box_arrays(partition: RegionPartition):
    arrays = getattr(partition, "_box_arrays_cache", None)
    if arrays is None or arrays[3] is not partition.boxes:
        los = np.array([box.lo for box, _ in partition.boxes])
        his = np.array([box.hi for box, _ in partition.boxes])
        labels = [label for _, label in partition.boxes]
        arrays = (los, his, labels, partition.boxes)
        partition._box_arrays_cache = arrays
    return arrays[:3]


def classify_point(partition: RegionPartition, point: ParamPoint) -> str:
    """Label of the box containing the point (see ``classify_points``)."""
    label = classify_points(partition, point.array(partition.param_names)[None, :])[0]
    if label is None:
        raise ValueError(f"point {point.as_dict()} outside the parameter space")
    return label


def classify_points(partition: RegionPartition, values: np.ndarray) -> list[str | None]:
    """Labels of the boxes containing many points; None for points outside
    the space.

    Points on shared box faces resolve to the containing box whose corner
    is lexicographically smallest, so classification is deterministic.
    ``values`` columns follow ``partition.param_names``.
    """
    los, his, labels = _box_arrays(partition)
    lo = np.array(partition.theta.lo)
    hi = np.array(partition.theta.hi)
    inside = np.all((lo <= values) & (values <= hi), axis=1)
    out: list[str | None] = [None] * len(values)
    for j in np.nonzero(inside)[0]:
        v = values[j]
        hits = np.nonzero(np.all((los <= v) & (v <= his), axis=1))[0]
        if hits.size == 0:
            raise ValueError(f"partition does not cover point {dict(zip(partition.param_names, v.tolist()))}")
        best = min(hits, key=lambda i: (tuple(los[i]), tuple(his[i])))
        out[j] = labels[best]
    return out


def feasible_volume_fraction(partition: RegionPartition) -> float:
    """Fraction of the parameter-space volume labeled satisfying."""
    return partition.volume(LABEL_SAT) / partition.theta.volume()


# ---------------------------------------------------------------------------
# Partition files and the heatmap grid export.


def save_partition(partition: RegionPartition, path: str | Path, seed: int | None = None) -> None:
    write_json(path, {
        "header": {
            "p": partition.threshold,
            "relation": partition.relation,
            "tolerance": partition.volume_tolerance,
            "seed": seed,
            "params": list(partition.param_names),
            "theta_lo": list(partition.theta.lo),
            "theta_hi": list(partition.theta.hi),
            "property": partition.property_text,
            "status": partition.status,
            "backend": partition.backend,
        },
        "boxes": [
            {"lo": list(box.lo), "hi": list(box.hi), "label": label}
            for box, label in partition.boxes
        ],
    })


def load_partition(path: str | Path) -> RegionPartition:
    doc = read_json(path, "partition")
    header = doc["header"]
    return RegionPartition(
        param_names=tuple(header["params"]),
        theta=Box(lo=tuple(header["theta_lo"]), hi=tuple(header["theta_hi"])),
        boxes=[
            (Box(lo=tuple(b["lo"]), hi=tuple(b["hi"])), b["label"]) for b in doc["boxes"]
        ],
        threshold=header["p"],
        relation=header["relation"],
        volume_tolerance=header["tolerance"],
        backend=header.get("backend", {}),
        status=header.get("status", STATUS_OK),
        property_text=header.get("property", ""),
    )


def save_heatmap_grid(
    partition: RegionPartition, path: str | Path, resolution: int = 100, seed: int | None = None
) -> None:
    """Rasterize box labels onto a cell-center grid as CSV for external plotting."""
    if resolution < 1:
        raise ConfigError("grid resolution must be positive")
    lo = np.array(partition.theta.lo)
    hi = np.array(partition.theta.hi)
    k = len(lo)
    axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(resolution) + 0.5) / resolution for d in range(k)]
    grid = np.array(list(itertools.product(*axes)))
    rows = ([*(repr(float(v)) for v in combo), label] for combo, label in zip(grid, classify_points(partition, grid)))
    write_csv(path, {} if seed is None else {"seed": seed}, [*partition.param_names, "label"], rows)
