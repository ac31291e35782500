"""Region refinement on small networks where the ground truth is closed-form."""

import json

import numpy as np
import pytest

from crnverify import (
    Box,
    ConfigError,
    classify_point,
    feasible_volume_fraction,
    load_partition,
    parse_crn,
    parse_csl,
    save_partition,
    synthesize,
)
from crnverify.synthesis import LABEL_SAT, LABEL_UNDECIDED, LABEL_VIOL, SynthesisConfig, save_heatmap_grid

AB = parse_crn("format=1; species A B; param k in [0.1, 10]; reaction decay: A -> B @ k; init A=1;")
# P(B by t=1) = 1 - exp(-k): crosses 0.5 at k = ln 2
REACH = parse_csl("P>0.5 [ true U[0,1] (B=1) ]")


@pytest.fixture(scope="module")
def ab_partition():
    return synthesize(AB, REACH, 0.05, SynthesisConfig(margin=0.02, max_depth=14))


class TestSynthesize:
    def test_parameter_independent_property_single_box(self):
        trivial = parse_csl("P>=0 [ true U[0,1] true ]")
        part = synthesize(AB, trivial, 0.1)
        assert len(part.boxes) == 1
        assert part.boxes[0][1] == LABEL_SAT
        assert part.backend["evaluations"] == 0

    def test_narrow_satisfying_band_is_found(self):
        # the satisfying window here is a band whose width is a tenth of the
        # space: shallow corner agreement must not label it away
        band = parse_csl("P>0.5 [ (B<25) U[0.5,1.5] (B>=25) ]")
        net = parse_crn(
            "format=1; species A B; param k in [0.1, 10];"
            "reaction decay: A -> B @ k; init A=50; conserve 50;"
        )
        part = synthesize(net, band, 0.05)
        assert classify_point(part, (0.9,)) == LABEL_SAT
        assert classify_point(part, (5.0,)) == LABEL_VIOL
        assert classify_point(part, (0.15,)) == LABEL_VIOL

    def test_decay_bound_is_bracketed(self, ab_partition):
        # every T box lies right of the crossing, every F box left of it
        crossing = np.log(2.0)
        for box, label in ab_partition.boxes:
            if label == LABEL_SAT:
                assert box.hi[0] > crossing
            elif label == LABEL_VIOL:
                assert box.lo[0] < crossing

    def test_undecided_volume_within_tolerance(self, ab_partition):
        theta_vol = ab_partition.theta.volume()
        assert ab_partition.volume(LABEL_UNDECIDED) / theta_vol <= 0.05
        assert ab_partition.status == "ok"

    def test_partition_covers_theta_exactly(self, ab_partition):
        total = sum(box.volume() for box, _ in ab_partition.boxes)
        assert total == pytest.approx(ab_partition.theta.volume(), rel=1e-9)

    def test_boxes_pairwise_interior_disjoint(self, ab_partition):
        boxes = [box for box, _ in ab_partition.boxes]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                a, b = boxes[i], boxes[j]
                overlap = all(
                    min(a.hi[d], b.hi[d]) > max(a.lo[d], b.lo[d]) for d in range(len(a.lo))
                )
                assert not overlap

    def test_looser_tolerance_costs_fewer_evaluations(self):
        coarse = synthesize(AB, REACH, 0.5)
        fine = synthesize(AB, REACH, 0.05)
        assert coarse.backend["evaluations"] < fine.backend["evaluations"]
        assert coarse.volume(LABEL_UNDECIDED) / coarse.theta.volume() <= 0.5

    def test_determinism(self):
        a = synthesize(AB, REACH, 0.2)
        b = synthesize(AB, REACH, 0.2)
        assert a.boxes == b.boxes

    def test_tolerance_unmet_is_flagged_not_silent(self):
        part = synthesize(AB, REACH, 0.001, SynthesisConfig(max_depth=2))
        assert part.status == "tolerance-unmet"
        assert part.volume(LABEL_UNDECIDED) / part.theta.volume() > 0.001

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            synthesize(AB, REACH, 0.0)
        with pytest.raises(ConfigError):
            synthesize(AB, REACH, 1.0)


class TestClassifyPoint:
    def test_known_sides_of_the_crossing(self, ab_partition):
        assert classify_point(ab_partition, (5.0,)) == LABEL_SAT
        assert classify_point(ab_partition, (0.15,)) == LABEL_VIOL

    def test_single_box_partition_classifies_everything(self):
        trivial = parse_csl("P>=0 [ true U[0,1] true ]")
        part = synthesize(AB, trivial, 0.1)
        for k in (0.1, 1.0, 10.0):
            assert classify_point(part, (k,)) == LABEL_SAT

    def test_outside_theta_raises(self, ab_partition):
        with pytest.raises(ValueError):
            classify_point(ab_partition, (11.0,))

    def test_boundary_tie_break_is_deterministic(self, ab_partition):
        # a shared face between two boxes: lexicographically smaller corner wins
        corner_key = lambda box: (box.lo, box.hi)
        boxes = sorted((box for box, _ in ab_partition.boxes), key=corner_key)
        face = boxes[0].hi[0]
        label = classify_point(ab_partition, (face,))
        containing = [(box, lab) for box, lab in ab_partition.boxes if box.lo[0] <= face <= box.hi[0]]
        assert len(containing) == 2
        want = min(containing, key=lambda pair: corner_key(pair[0]))[1]
        assert label == want


class TestVolumes:
    def test_all_sat_partition(self):
        trivial = parse_csl("P>=0 [ true U[0,1] true ]")
        part = synthesize(AB, trivial, 0.1)
        assert feasible_volume_fraction(part) == pytest.approx(1.0)

    def test_all_violating_partition(self):
        impossible = parse_csl("P>1 [ true U[0,1] (A=5) ]")
        part = synthesize(AB, impossible, 0.1)
        assert feasible_volume_fraction(part) == pytest.approx(0.0)
        assert all(label == LABEL_VIOL for _, label in part.boxes)

    def test_half_split_partition(self):
        part_boxes = [
            (Box((0.0,), (1.0,)), LABEL_SAT),
            (Box((1.0,), (2.0,)), LABEL_VIOL),
        ]
        from crnverify.synthesis import RegionPartition

        part = RegionPartition(
            param_names=("k",),
            theta=Box((0.0,), (2.0,)),
            boxes=part_boxes,
            threshold=0.5,
            relation=">",
            volume_tolerance=0.1,
        )
        assert feasible_volume_fraction(part) == pytest.approx(0.5)


class TestFiles:
    def test_partition_round_trip(self, ab_partition, tmp_path):
        path = tmp_path / "p.json"
        save_partition(ab_partition, path, seed=7)
        loaded = load_partition(path)
        assert loaded.boxes == ab_partition.boxes
        assert loaded.threshold == ab_partition.threshold
        assert loaded.relation == ab_partition.relation
        doc = json.loads(path.read_text())
        assert doc["format"] == 1
        assert doc["header"]["seed"] == 7

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
