"""Versioned files: every kind round-trips through the one envelope, and
the CLI rejects a copy rewritten to an unsupported format with exit 2."""

import re
from pathlib import Path

import pytest

from crnverify.abcsmc import load_particles, save_particles
from crnverify.cli import main
from crnverify.files import read_csv, read_json, write_csv, write_json
from crnverify.synthesis import load_partition, save_partition
from crnverify.verdict import posterior_from_doc, posterior_to_doc

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """A smoke-config pipeline run, with its config's model path made absolute."""
    root = tmp_path_factory.mktemp("smoke")
    doc = read_json(REPO / "configs" / "smoke.json", "config")
    write_json(root / "smoke.json", {**doc, "model": str(REPO / "models" / "decay.crn")})
    assert main(["pipeline", "--config", str(root / "smoke.json"), "--out-dir", str(root / "out")]) == 0
    return root


# file kind -> (path under the smoke run, CLI command that reads it; {f} is
# the rewritten copy, {out} the smoke outputs, {cfg} the good config)
KINDS = {
    "dataset": ("out/dataset.csv", "infer --config {cfg} --dataset {f}"),
    "particles": ("out/particles.csv", "verify {out}/partition.json {f} --seed 1 --samples 100"),
    "partition": ("out/partition.json", "verify {f} {out}/particles.csv --seed 1 --samples 100"),
    "posterior": ("out/posterior.json", "baseline {f} --config {cfg} --n-params 2 --n-sims 10"),
    "config": ("smoke.json", "generate --config {f}"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_envelope_round_trip(smoke, tmp_path, kind):
    src = smoke / KINDS[kind][0]
    copy = tmp_path / src.name
    if src.suffix == ".json":
        write_json(copy, read_json(src, kind))
    else:
        write_csv(copy, *read_csv(src, kind))
    assert copy.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("kind", KINDS)
def test_cli_rejects_format_2(smoke, tmp_path, kind):
    rel, command = KINDS[kind]
    src = smoke / rel
    text = src.read_text()
    if src.suffix == ".json":
        bad = re.sub(r'"format": 1\b', '"format": 2', text)
    else:
        bad = text.replace("# format=1\n", "# format=2\n", 1)
    assert bad != text
    copy = tmp_path / src.name
    copy.write_text(bad)
    argv = command.format(f=copy, out=smoke / "out", cfg=smoke / "smoke.json").split()
    assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 2


def test_loaders_rewrite_identical_bytes(smoke, tmp_path):
    out = smoke / "out"
    partition = load_partition(out / "partition.json")
    seed = read_json(out / "partition.json", "partition")["header"]["seed"]
    save_partition(partition, tmp_path / "partition.json", seed=seed)
    assert (tmp_path / "partition.json").read_bytes() == (out / "partition.json").read_bytes()

    sets, space, meta = load_particles(out / "particles.csv")
    save_particles(sets, space, tmp_path / "particles.csv", seed=meta["seed"])
    assert (tmp_path / "particles.csv").read_bytes() == (out / "particles.csv").read_bytes()


def test_verdict_posterior_equals_posterior_file(smoke):
    posterior = read_json(smoke / "out" / "posterior.json", "posterior")
    verdict = read_json(smoke / "out" / "verdict.json", "verdict")
    assert verdict["posterior"] == {"mu": posterior["mu"], "sigma": posterior["sigma"]}
    assert posterior_to_doc(posterior_from_doc(posterior)) == verdict["posterior"]


def test_csv_files_start_with_format_line(smoke):
    for name in ("dataset.csv", "heatmap.csv", "particles.csv"):
        assert (smoke / "out" / name).read_text().splitlines()[0] == "# format=1"


def test_missing_format_line_rejected(smoke, tmp_path):
    text = (smoke / "out" / "dataset.csv").read_text()
    (tmp_path / "d.csv").write_text(text.replace("# format=1\n", ""))
    argv = ["infer", "--config", str(smoke / "smoke.json"), "--dataset", str(tmp_path / "d.csv")]
    assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 2


def test_unknown_comments_and_blank_lines_skipped(smoke, tmp_path):
    src = smoke / "out" / "dataset.csv"
    lines = src.read_text().splitlines()
    path = tmp_path / "d.csv"
    path.write_text("\n".join([lines[0], "# a free-form note", "# note=not json", "", *lines[1:]]) + "\n")
    comments, header, rows = read_csv(path, "dataset")
    assert comments["note"] == "not json"
    assert (header, rows) == read_csv(src, "dataset")[1:]

