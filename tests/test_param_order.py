"""A parameter point is a float sequence in the network's ``params.names`` order.

The reversed SIR network declares ``kr`` before ``ki``, so a layer that
reads a point in any other order gets the rates swapped.  Names decide the
order only where they travel with the values: ``posterior.json`` keys
(sorted on disk) and particle-file columns.
"""

import json
from pathlib import Path

import pytest

from crnverify import ConfigError, parse_crn, parse_csl
from crnverify.cli import main
from crnverify.files import write_json
from crnverify.rng import stream
from crnverify.simulate import simulate
from crnverify.transient import evaluator_for
from reference_model import propensity

REPO = Path(__file__).resolve().parents[1]
SIR_TEXT = (REPO / "models" / "sir.crn").read_text()
KI_LINE = "param ki in [5e-5, 0.003];\n"
KR_LINE = "param kr in [0.005, 0.2];\n"
assert KI_LINE + KR_LINE in SIR_TEXT
REVERSED_TEXT = SIR_TEXT.replace(KI_LINE + KR_LINE, KR_LINE + KI_LINE)
PROPERTY = "P>0.1 [ (I>0) U[100,150] (I=0) ]"

SIR = parse_crn(SIR_TEXT)
REVERSED = parse_crn(REVERSED_TEXT)


def test_every_layer_reads_the_declared_order():
    assert (SIR.params.names, REVERSED.params.names) == (("ki", "kr"), ("kr", "ki"))
    ki, kr = 0.002, 0.05
    for j in range(2):
        assert propensity(REVERSED, (95, 5, 0), j, (kr, ki)) == propensity(SIR, (95, 5, 0), j, (ki, kr))
    a = simulate(REVERSED, (kr, ki), 150.0, stream(3, 0))
    b = simulate(SIR, (ki, kr), 150.0, stream(3, 0))
    assert (a.states == b.states).all() and (a.times == b.times).all()
    formula = parse_csl(PROPERTY)
    p_reversed = evaluator_for(REVERSED, formula).probability((kr, ki), tol=1e-8)
    assert p_reversed == evaluator_for(SIR, formula).probability((ki, kr), tol=1e-8)


@pytest.mark.parametrize("point", [(0.05,), (0.05, 0.002, 1.0)])
def test_wrong_length_point_is_config_error(point):
    with pytest.raises(ConfigError, match="parameter point"):
        propensity(REVERSED, (95, 5, 0), 0, point)
    with pytest.raises(ConfigError, match="parameter point"):
        simulate(REVERSED, point, 150.0, stream(3, 0))
    with pytest.raises(ConfigError, match="parameter point"):
        evaluator_for(REVERSED, parse_csl(PROPERTY)).probability(point)


@pytest.fixture(scope="module")
def inferred(tmp_path_factory):
    """A small ABC run on the reversed network, plus configs naming either network."""
    root = tmp_path_factory.mktemp("order")
    (root / "models").mkdir()
    (root / "models" / "sir.crn").write_text(SIR_TEXT)
    (root / "models" / "sir_rev.crn").write_text(REVERSED_TEXT)
    base = {
        "format": 1,
        "property": PROPERTY,
        "seed": 7151,
        "true_point": {"ki": 0.002, "kr": 0.05},
        "observation_count": 10,
        "observation_end": 150.0,
        "abc_particles": 20,
        "abc_batches": 1,
        "abc_rounds": 2,
    }
    for name, model in (("rev.json", "sir_rev.crn"), ("sir.json", "sir.crn")):
        (root / name).write_text(json.dumps({**base, "model": str(root / "models" / model)}))
    out = root / "out"
    assert main(["generate", "--config", str(root / "rev.json"), "--out-dir", str(out)]) == 0
    assert main(["infer", "--config", str(root / "rev.json"), "--dataset", str(out / "dataset.csv"),
                 "--out-dir", str(out)]) == 0
    return root


def test_particles_follow_the_declared_order(inferred):
    lines = (inferred / "out" / "particles.csv").read_text().splitlines()
    assert "batch,round,weight,kr,ki,distance" in lines


@pytest.mark.parametrize("source", ["particles.csv", "posterior.json"])
def test_baseline_is_the_same_under_either_declared_order(inferred, source):
    # a posterior's draws are permuted into the network's order, so both
    # networks simulate the same rates and write the same bytes
    written = []
    for config in ("rev.json", "sir.json"):
        out = inferred / f"baseline-{config}-{source}"
        assert main(["baseline", str(inferred / "out" / source), "--config", str(inferred / config),
                     "--out-dir", str(out), "--n-params", "3", "--n-sims", "20"]) == 0
        written.append((out / "baseline.json").read_bytes())
    assert written[0] == written[1]
    points = json.loads(written[0])["points"]
    assert all(set(p["point"]) == {"ki", "kr"} for p in points)


@pytest.mark.parametrize("names", [("ki", "kx"), ("ki", "kr", "kx")])
def test_posterior_naming_an_unknown_parameter_exits_2(inferred, tmp_path, names):
    path = tmp_path / "posterior.json"
    write_json(path, {"mu": {n: 0.01 for n in names}, "sigma": {n: 0.001 for n in names}})
    assert main(["baseline", str(path), "--config", str(inferred / "rev.json"),
                 "--out-dir", str(tmp_path / "out"), "--n-params", "2", "--n-sims", "5"]) == 2
    assert not (tmp_path / "out" / "baseline.json").exists()
