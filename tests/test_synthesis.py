"""Region refinement on small networks where the ground truth is closed-form."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from crnverify import (
    ConfigError,
    ExperimentConfig,
    classify_point,
    feasible_volume_fraction,
    load_partition,
    parse_crn,
    parse_csl,
    save_partition,
    synthesize,
)
from crnverify.synthesis import (
    LABEL_SAT,
    LABEL_UNDECIDED,
    LABEL_VIOL,
    MIN_LABEL_DEPTH,
    RegionPartition,
    classify_points,
    _refine,
    save_heatmap_grid,
)
from crnverify.transient import UntilEvaluator
from reference_synthesis import reference_refine

AB = parse_crn("format=1; species A B; param k in [0.1, 10]; reaction decay: A -> B @ k; init A=1;")
# P(B by t=1) = 1 - exp(-k): crosses 0.5 at k = ln 2
REACH = parse_csl("P>0.5 [ true U[0,1] (B=1) ]")
# the satisfying window here is a band whose width is a tenth of the space
DECAY50 = parse_crn(
    "format=1; species A B; param k in [0.1, 10];"
    "reaction decay: A -> B @ k; init A=50; conserve 50;"
)
BAND = parse_csl("P>0.5 [ (B<25) U[0.5,1.5] (B>=25) ]")
SIR30 = parse_crn(
    "format=1; species S I R; param ki in [0.0005, 0.03]; param kr in [0.005, 0.2];"
    "reaction infect: S + I -> I + I @ ki; reaction recover: I -> R @ kr;"
    "init S=27, I=3, R=0; conserve 30;"
)


def settings(volume_tolerance, **synth):
    """Synthesis settings: the tolerance plus overrides (synthesis reads no seed)."""
    return ExperimentConfig(synth_volume_tolerance=volume_tolerance, **synth)


@pytest.fixture(scope="module")
def ab_partition():
    return synthesize(AB, REACH, settings(0.05, synth_margin=0.02, synth_max_depth=14))


class TestSynthesize:
    def test_parameter_independent_property_single_box(self):
        trivial = parse_csl("P>=0 [ true U[0,1] true ]")
        part = synthesize(AB, trivial, settings(0.1))
        assert len(part.labels) == 1
        assert part.labels[0] == LABEL_SAT
        assert part.backend["evaluations"] == 0

    def test_narrow_satisfying_band_is_found(self):
        # shallow corner agreement must not label the band away
        part = synthesize(DECAY50, BAND, settings(0.05))
        assert classify_point(part, (0.9,)) == LABEL_SAT
        assert classify_point(part, (5.0,)) == LABEL_VIOL
        assert classify_point(part, (0.15,)) == LABEL_VIOL

    def test_decay_bound_is_bracketed(self, ab_partition):
        # every T box lies right of the crossing, every F box left of it
        crossing = np.log(2.0)
        for lo, hi, label in zip(ab_partition.lo, ab_partition.hi, ab_partition.labels):
            if label == LABEL_SAT:
                assert hi[0] > crossing
            elif label == LABEL_VIOL:
                assert lo[0] < crossing

    def test_upper_bound_swaps_labels(self, ab_partition):
        # P<0.5 decides the same boxes as P>0.5 with T and F exchanged
        below = synthesize(AB, parse_csl("P<0.5 [ true U[0,1] (B=1) ]"), settings(0.05, synth_max_depth=14))
        swap = {LABEL_SAT: LABEL_VIOL, LABEL_VIOL: LABEL_SAT, LABEL_UNDECIDED: LABEL_UNDECIDED}
        assert np.array_equal(below.lo, ab_partition.lo) and np.array_equal(below.hi, ab_partition.hi)
        assert below.labels.tolist() == [swap[label] for label in ab_partition.labels.tolist()]

    def test_undecided_volume_within_tolerance(self, ab_partition):
        theta_vol = ab_partition.theta_volume()
        assert ab_partition.volume(LABEL_UNDECIDED) / theta_vol <= 0.05
        assert ab_partition.status == "ok"

    def test_partition_covers_theta_exactly(self, ab_partition):
        total = sum(float(np.prod(hi - lo)) for lo, hi in zip(ab_partition.lo, ab_partition.hi))
        assert total == pytest.approx(ab_partition.theta_volume(), rel=1e-9)

    def test_boxes_pairwise_interior_disjoint(self, ab_partition):
        boxes = list(zip(ab_partition.lo, ab_partition.hi))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                (a_lo, a_hi), (b_lo, b_hi) = boxes[i], boxes[j]
                overlap = all(
                    min(a_hi[d], b_hi[d]) > max(a_lo[d], b_lo[d]) for d in range(len(a_lo))
                )
                assert not overlap

    def test_looser_tolerance_costs_fewer_evaluations(self):
        coarse = synthesize(AB, REACH, settings(0.5))
        fine = synthesize(AB, REACH, settings(0.05))
        assert coarse.backend["evaluations"] < fine.backend["evaluations"]
        assert coarse.volume(LABEL_UNDECIDED) / coarse.theta_volume() <= 0.5

    def test_determinism(self):
        a = synthesize(AB, REACH, settings(0.2))
        b = synthesize(AB, REACH, settings(0.2))
        for field in ("lo", "hi", "labels"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_tolerance_unmet_is_flagged_not_silent(self):
        part = synthesize(AB, REACH, settings(0.001, synth_max_depth=2))
        assert part.status == "tolerance-unmet"
        assert part.volume(LABEL_UNDECIDED) / part.theta_volume() > 0.001

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            settings(0.0)
        with pytest.raises(ConfigError):
            settings(1.0)

    def test_process_pool_matches_serial(self, ab_partition, tmp_path):
        pooled = synthesize(AB, REACH, settings(0.05, synth_margin=0.02, synth_max_depth=14, workers=2))
        save_partition(ab_partition, tmp_path / "serial.json")
        save_partition(pooled, tmp_path / "pooled.json")
        assert (tmp_path / "pooled.json").read_bytes() == (tmp_path / "serial.json").read_bytes()


def _theta(pcrn):
    return np.asarray(pcrn.params.lower, dtype=float), np.asarray(pcrn.params.upper, dtype=float)


class TestScreenedRefinement:
    """The screened schedule against the reference that evaluates every
    lattice point: the same partition from fewer evaluations."""

    CASES = {
        "ab": (AB, REACH, settings(0.05, synth_margin=0.02, synth_max_depth=14)),
        "decay-band": (DECAY50, BAND, settings(0.05)),
        "upper-bound": (AB, parse_csl("P<0.5 [ true U[0,1] (B=1) ]"), settings(0.05, synth_max_depth=14)),
        "sir-30": (SIR30, parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]"), settings(0.3)),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_partition_from_fewer_evaluations(self, case, workers):
        pcrn, formula, config = self.CASES[case]
        *got, status, evaluations = _refine(pcrn, formula, dataclasses.replace(config, workers=workers),
                                            *_theta(pcrn))
        *want, reference_status, reference_evaluations = reference_refine(pcrn, formula, config, *_theta(pcrn))
        for g, w in zip(got, want):  # lo, hi, labels
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert status == reference_status
        assert evaluations < reference_evaluations

    def test_level_of_ruled_out_boxes_evaluates_nothing(self, monkeypatch):
        # the value is 1 everywhere, within the margin of the bound: the
        # first labeled level evaluates its corners, which rule every box
        # undecided, and each child at the next level holds one of them
        flat = parse_csl("P>=1 [ true U[0,1] (A=1) ]")
        calls = []
        probabilities = UntilEvaluator.probabilities

        def counted(evaluator, points, tol):
            calls.append(len(points))
            return probabilities(evaluator, points, tol)

        monkeypatch.setattr(UntilEvaluator, "probabilities", counted)
        config = settings(0.01, synth_max_depth=MIN_LABEL_DEPTH + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the NaN placeholders warn about nothing
            lo, hi, labels, status, evaluations = _refine(AB, flat, config, *_theta(AB))
        corners = 2**MIN_LABEL_DEPTH + 1
        assert calls == [corners] and evaluations == corners
        assert set(labels.tolist()) == {LABEL_UNDECIDED} and len(labels) == 2 ** (MIN_LABEL_DEPTH + 1)
        assert status == "tolerance-unmet"


def _shuffled_grid_partition(rng):
    """A 3x3 grid on a 2-D theta with its center cell split 2x2, labels
    drawn at random and the box list shuffled."""
    xs, ys = np.array([0.0, 1.0, 2.0, 4.0]), np.array([1.0, 1.5, 2.5, 3.0])
    cells = [((xs[i], ys[j]), (xs[i + 1], ys[j + 1])) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
    cx, cy = [1.0, 1.5, 2.0], [1.5, 2.0, 2.5]
    cells += [((cx[i], cy[j]), (cx[i + 1], cy[j + 1])) for i in range(2) for j in range(2)]
    order = rng.permutation(len(cells))
    return RegionPartition(
        param_names=("a", "b"),
        theta_lo=np.array([0.0, 1.0]),
        theta_hi=np.array([4.0, 3.0]),
        lo=np.array([cells[i][0] for i in order]),
        hi=np.array([cells[i][1] for i in order]),
        labels=rng.choice([LABEL_SAT, LABEL_VIOL, LABEL_UNDECIDED], size=len(cells)),
        threshold=0.5,
        relation=">",
        volume_tolerance=0.1,
    )


class TestClassifyPoint:
    def test_known_sides_of_the_crossing(self, ab_partition):
        assert classify_point(ab_partition, (5.0,)) == LABEL_SAT
        assert classify_point(ab_partition, (0.15,)) == LABEL_VIOL

    def test_single_box_partition_classifies_everything(self):
        trivial = parse_csl("P>=0 [ true U[0,1] true ]")
        part = synthesize(AB, trivial, settings(0.1))
        for k in (0.1, 1.0, 10.0):
            assert classify_point(part, (k,)) == LABEL_SAT

    def test_outside_theta_raises(self, ab_partition):
        with pytest.raises(ValueError):
            classify_point(ab_partition, (11.0,))

    def test_boundary_tie_break_is_deterministic(self, ab_partition):
        # a shared face between two boxes: lexicographically smaller corner wins
        corner_key = lambda box: (tuple(box[0]), tuple(box[1]))
        boxes = list(zip(ab_partition.lo, ab_partition.hi, ab_partition.labels))
        face = min(boxes, key=corner_key)[1][0]
        label = classify_point(ab_partition, (face,))
        containing = [box for box in boxes if box[0][0] <= face <= box[1][0]]
        assert len(containing) == 2
        want = min(containing, key=corner_key)[2]
        assert label == want

    def test_tie_break_matches_brute_force_reference(self):
        rng = np.random.default_rng(11)
        part = _shuffled_grid_partition(rng)
        boxes = list(zip(part.lo.tolist(), part.hi.tolist(), part.labels.tolist()))
        corners = [(x, y) for lo, hi, _ in boxes for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]
        faces = [
            point
            for lo, hi, _ in boxes
            for point in (
                (lo[0], (lo[1] + hi[1]) / 2), (hi[0], (lo[1] + hi[1]) / 2),
                ((lo[0] + hi[0]) / 2, lo[1]), ((lo[0] + hi[0]) / 2, hi[1]),
            )
        ]
        interior = rng.uniform(part.theta_lo, part.theta_hi, size=(200, 2)).tolist()
        outside = [(-0.5, 2.0), (4.5, 2.0), (2.0, 0.5), (2.0, 3.5), (-1.0, -1.0), (5.0, 4.0)]
        points = corners + faces + interior + outside

        def containing(p):
            return [box for box in boxes if all(box[0][d] <= p[d] <= box[1][d] for d in range(2))]

        def reference(p):
            hits = containing(p)
            return min(hits, key=lambda box: (tuple(box[0]), tuple(box[1])))[2] if hits else None

        want = [reference(p) for p in points]
        assert want[-len(outside):] == [None] * len(outside)
        # the first containing box in list order differs at some shared face,
        # so the test tells the lexicographic rule from list order
        assert any(hits and hits[0][2] != w for hits, w in zip(map(containing, points), want))
        assert list(classify_points(part, np.array(points))) == want


class TestVolumes:
    def test_all_sat_partition(self):
        trivial = parse_csl("P>=0 [ true U[0,1] true ]")
        part = synthesize(AB, trivial, settings(0.1))
        assert feasible_volume_fraction(part) == pytest.approx(1.0)

    def test_all_violating_partition(self):
        impossible = parse_csl("P>1 [ true U[0,1] (A=5) ]")
        part = synthesize(AB, impossible, settings(0.1))
        assert feasible_volume_fraction(part) == pytest.approx(0.0)
        assert all(label == LABEL_VIOL for label in part.labels)

    def test_half_split_partition(self):
        part = RegionPartition(
            param_names=("k",),
            theta_lo=np.array([0.0]),
            theta_hi=np.array([2.0]),
            lo=np.array([[0.0], [1.0]]),
            hi=np.array([[1.0], [2.0]]),
            labels=np.array([LABEL_SAT, LABEL_VIOL]),
            threshold=0.5,
            relation=">",
            volume_tolerance=0.1,
        )
        assert feasible_volume_fraction(part) == pytest.approx(0.5)


class TestFiles:
    def test_partition_round_trip(self, ab_partition, tmp_path):
        path = tmp_path / "p.json"
        save_partition(ab_partition, path)
        loaded = load_partition(path)
        for field in ("theta_lo", "theta_hi", "lo", "hi", "labels"):
            assert np.array_equal(getattr(loaded, field), getattr(ab_partition, field))
        assert loaded.threshold == ab_partition.threshold
        assert loaded.relation == ab_partition.relation
        doc = json.loads(path.read_text())
        assert doc["format"] == 1
        assert "seed" not in doc["header"]  # synthesis draws no random numbers

    def test_heatmap_grid(self, ab_partition, tmp_path):
        path = tmp_path / "g.csv"
        save_heatmap_grid(ab_partition, path, resolution=64)
        lines = path.read_text().splitlines()
        assert lines[0] == "# format=1"
        assert lines[1] == "k,label"
        assert len(lines) == 2 + 64
        labels = {line.rsplit(",", 1)[1] for line in lines[2:]}
        assert labels <= {"T", "U", "F"}
        assert "T" in labels and "F" in labels
