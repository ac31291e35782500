"""Command-line interface: stage outputs, exit codes, and flag handling.

Heavier end-to-end checks (full SIR pipelines, byte determinism of every
command) live in the acceptance suite; here the fast decay network
exercises the wiring.
"""

import argparse
import functools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from crnverify.cli import build_parser, main
from crnverify.config import ExperimentConfig
from test_benchmark_names import _config_keys

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    (tmp_path / "models").mkdir()
    shutil.copy(REPO / "models" / "decay.crn", tmp_path / "models" / "decay.crn")
    shutil.copy(REPO / "configs" / "smoke.json", tmp_path / "smoke.json")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


class TestStages:
    def test_generate_writes_dataset(self, workspace):
        assert run("generate", "--config", "smoke.json", "--out-dir", "out") == 0
        lines = (workspace / "out" / "dataset.csv").read_text().splitlines()
        assert lines[0] == "# format=1"
        data_rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(data_rows) == 10  # smoke config observes 10 times

    def test_generate_noiseless_rows_are_integer_valued(self, workspace):
        run("generate", "--config", "smoke.json", "--out-dir", "out")
        rows = [
            l for l in (workspace / "out" / "dataset.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("time")
        ]
        for row in rows:
            for v in row.split(",")[1:]:
                assert float(v) == int(float(v))

    def test_generate_noisy_rows_are_real_valued(self, workspace):
        doc = json.loads((workspace / "smoke.json").read_text())
        doc["noise_sigma"] = 2.0
        (workspace / "noisy.json").write_text(json.dumps(doc))
        run("generate", "--config", "noisy.json", "--out-dir", "out")
        rows = [
            l for l in (workspace / "out" / "dataset.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("time")
        ]
        values = [float(v) for row in rows for v in row.split(",")[1:]]
        assert any(v != int(v) for v in values)

    def test_generate_rejects_nan_noise(self, workspace):
        doc = json.loads((workspace / "smoke.json").read_text())
        doc["noise_sigma"] = float("nan")
        (workspace / "nan.json").write_text(json.dumps(doc))
        assert run("generate", "--config", "nan.json", "--out-dir", "out") == 2
        assert not (workspace / "out" / "dataset.csv").exists()

    def test_generate_rejects_negative_seed(self, workspace):
        assert run("generate", "--config", "smoke.json", "--seed", "-1", "--out-dir", "out") == 2
        assert not (workspace / "out" / "dataset.csv").exists()

    def test_synth_then_verify_chain(self, workspace):
        assert run("synth", "--config", "smoke.json", "--out-dir", "out") == 0
        assert (workspace / "out" / "partition.json").exists()
        heatmap = (workspace / "out" / "heatmap.csv").read_text().splitlines()
        assert heatmap[0] == "# format=1"
        assert heatmap[1] == "k,label"  # no seed: synthesis draws no random numbers
        assert len(heatmap) == 2 + 32

        assert run("generate", "--config", "smoke.json", "--out-dir", "out") == 0
        assert run("infer", "--config", "smoke.json", "--dataset", "out/dataset.csv",
                   "--out-dir", "out") == 0
        posterior = json.loads((workspace / "out" / "posterior.json").read_text())
        assert set(posterior["mu"]) == {"k"}

        assert run("verify", "out/partition.json", "out/particles.csv",
                   "--seed", "5", "--out-dir", "out", "--samples", "500") == 0
        verdict = json.loads((workspace / "out" / "verdict.json").read_text())
        assert 0.0 <= verdict["C"] <= 1.0
        total = verdict["mass_T"] + verdict["mass_F"] + verdict["mass_U"] + verdict["mass_outside"]
        assert total == pytest.approx(1.0)

    def test_verify_takes_slice_settings_from_config(self, workspace):
        run("synth", "--config", "smoke.json", "--out-dir", "out")
        run("generate", "--config", "smoke.json", "--out-dir", "out")
        run("infer", "--config", "smoke.json", "--dataset", "out/dataset.csv", "--out-dir", "out")
        assert run("verify", "out/partition.json", "out/particles.csv",
                   "--config", "smoke.json", "--out-dir", "out") == 0
        verdict = json.loads((workspace / "out" / "verdict.json").read_text())
        assert verdict["n_samples"] == 2000  # smoke.json's slice_samples
        assert run("verify", "out/partition.json", "out/particles.csv",
                   "--config", "smoke.json", "--samples", "300", "--out-dir", "out") == 0
        verdict = json.loads((workspace / "out" / "verdict.json").read_text())
        assert verdict["n_samples"] == 300

    def test_verify_without_config_takes_config_defaults(self, workspace):
        run("synth", "--config", "smoke.json", "--out-dir", "out")
        run("generate", "--config", "smoke.json", "--out-dir", "out")
        run("infer", "--config", "smoke.json", "--dataset", "out/dataset.csv", "--out-dir", "out")
        assert run("verify", "out/partition.json", "out/particles.csv",
                   "--seed", "1", "--out-dir", "out") == 0
        verdict = json.loads((workspace / "out" / "verdict.json").read_text())
        assert verdict["n_samples"] == 10000  # ExperimentConfig's slice_samples
        for flags in (["--samples", "0"], ["--scale", "0"], ["--samples", "-5"]):
            assert run("verify", "out/partition.json", "out/particles.csv",
                       "--seed", "1", "--out-dir", "out", *flags) == 2
        assert run("verify", "out/partition.json", "out/particles.csv",
                   "--config", "smoke.json", "--samples", "0", "--out-dir", "out") == 2
        assert run("verify", "out/partition.json", "out/particles.csv", "--out-dir", "out") == 2

    def test_baseline_on_particles(self, workspace):
        run("generate", "--config", "smoke.json", "--out-dir", "out")
        run("infer", "--config", "smoke.json", "--dataset", "out/dataset.csv", "--out-dir", "out")
        assert run("baseline", "out/particles.csv", "--config", "smoke.json",
                   "--out-dir", "out", "--n-params", "5", "--n-sims", "40") == 0
        doc = json.loads((workspace / "out" / "baseline.json").read_text())
        assert doc["n_params"] == 5
        assert len(doc["points"]) == 5
        assert isinstance(doc["majority_verdict"], bool)

    def test_baseline_on_posterior_json(self, workspace):
        run("generate", "--config", "smoke.json", "--out-dir", "out")
        run("infer", "--config", "smoke.json", "--dataset", "out/dataset.csv", "--out-dir", "out")
        assert run("baseline", "out/posterior.json", "--config", "smoke.json",
                   "--out-dir", "out", "--n-params", "5", "--n-sims", "40") == 0
        doc = json.loads((workspace / "out" / "baseline.json").read_text())
        assert doc["n_params"] == 5
        assert len(doc["points"]) == 5

    def test_pipeline_writes_run_summary(self, workspace, capsys):
        assert run("pipeline", "--config", "smoke.json", "--out-dir", "out") == 0
        summary = json.loads((workspace / "out" / "run.json").read_text())
        assert summary["scenario"].startswith("smoke")
        assert set(summary["stages"]) == {"dataset", "partition", "particles", "verdict"}
        for name in summary["stages"].values():
            assert (workspace / "out" / name).exists()
        printed = capsys.readouterr().out
        assert "probability:" in printed
        assert "time:" in printed

    def test_run_summary_reconstructible_from_stage_files(self, workspace):
        run("pipeline", "--config", "smoke.json", "--out-dir", "out")
        summary = json.loads((workspace / "out" / "run.json").read_text())
        verdict = json.loads((workspace / "out" / summary["stages"]["verdict"]).read_text())
        posterior = json.loads((workspace / "out" / "posterior.json").read_text())
        assert summary["probability"] == verdict["C"]
        assert summary["mean"] == posterior["mu"]


class TestExitCodes:
    def test_missing_config_file(self, workspace):
        assert run("generate", "--config", "missing.json", "--out-dir", "out") == 4

    def test_bad_property_is_config_error(self, workspace):
        assert run("synth", "--model", "models/decay.crn",
                   "--property", "P>0.1 [ true U[5,1] true ]",
                   "--seed", "1", "--out-dir", "out") == 2

    def test_zero_observations_rejected(self, workspace):
        doc = json.loads((workspace / "smoke.json").read_text())
        doc["observation_count"] = 0
        (workspace / "bad.json").write_text(json.dumps(doc))
        assert run("generate", "--config", "bad.json", "--out-dir", "out") == 2

    def test_species_mismatch_between_dataset_and_model(self, workspace):
        run("generate", "--config", "smoke.json", "--out-dir", "out")
        text = (workspace / "out" / "dataset.csv").read_text().replace("time,A,B", "time,X,B")
        (workspace / "out" / "dataset.csv").write_text(text)
        assert run("infer", "--config", "smoke.json", "--dataset", "out/dataset.csv",
                   "--out-dir", "out") == 2

    def test_tolerance_unmet_exit_code(self, workspace):
        doc = json.loads((workspace / "smoke.json").read_text())
        doc["synth_volume_tolerance"] = 1e-4
        doc["synth_max_depth"] = 3
        (workspace / "coarse.json").write_text(json.dumps(doc))
        assert run("synth", "--config", "coarse.json", "--out-dir", "out") == 3
        # the partial partition is still written
        assert (workspace / "out" / "partition.json").exists()

    def test_negative_rate_bound_in_model(self, workspace, capsys):
        text = (workspace / "models" / "decay.crn").read_text()
        assert "param k in [0.1, 10];" in text
        (workspace / "models" / "negative.crn").write_text(text.replace("[0.1, 10]", "[-1, 1]"))
        assert run("synth", "--model", "models/negative.crn", "--property", "P>0.5 [ true U[0,1] (B>=25) ]",
                   "--out-dir", "out") == 2
        assert "must be nonnegative" in capsys.readouterr().err
        assert not (workspace / "out" / "partition.json").exists()

    def test_series_beyond_its_bound_is_config_error(self, workspace, capsys):
        # 50 molecules at a rate bound of 2e10: qt near 1e12 over the unit window
        text = (workspace / "models" / "decay.crn").read_text()
        (workspace / "models" / "fast.crn").write_text(text.replace("[0.1, 10]", "[0.1, 2e10]"))
        assert run("synth", "--model", "models/fast.crn", "--property", "P>0.5 [ true U[0,1] (B>=25) ]",
                   "--out-dir", "out") == 2
        assert "narrow the rate bounds" in capsys.readouterr().err
        assert not (workspace / "out" / "partition.json").exists()

    def test_bounds_in_config_are_an_unknown_key(self, workspace, capsys):
        # the .crn is the one source of the parameter box
        doc = json.loads((workspace / "smoke.json").read_text())
        (workspace / "bounds.json").write_text(json.dumps({**doc, "param_bounds": {"k": [0.5, 2.0]}}))
        assert run("generate", "--config", "bounds.json", "--out-dir", "out") == 2
        assert "unknown keys ['param_bounds']" in capsys.readouterr().err
        assert not any((workspace / "out").iterdir())

    def test_growth_past_the_step_cap_is_config_error(self, workspace, capsys, monkeypatch):
        # X -> X + X is not conserved: its population, and the steps of one
        # path, grow without bound
        monkeypatch.setattr("crnverify.simulate._MAX_STEPS", 1000)
        (workspace / "models" / "growth.crn").write_text(
            "format=1; species X; param k in [0.1, 10]; reaction split: X -> X + X @ k; init X=1;"
        )
        doc = {**json.loads((workspace / "smoke.json").read_text()), "model": "models/growth.crn",
               "property": "P>0.5 [ true U[0,30] false ]", "observation_end": 30.0}
        (workspace / "growth.json").write_text(json.dumps(doc))
        assert run("generate", "--config", "growth.json", "--out-dir", "out") == 2
        assert "more than 1000 steps to reach time 30" in capsys.readouterr().err
        assert not (workspace / "out" / "dataset.csv").exists()

    def test_infinite_window_end_exits_2_without_a_dataset(self, workspace, capsys):
        # without observation_end the grid ends at t', which must be finite
        doc = json.loads((workspace / "smoke.json").read_text())
        del doc["observation_end"]
        doc["property"] = "P>0.5 [ (B<25) U[0.5,1e400] (B>=25) ]"
        (workspace / "unbounded.json").write_text(json.dumps(doc))
        assert run("generate", "--config", "unbounded.json", "--out-dir", "out") == 2
        assert "unbounded until is unsupported" in capsys.readouterr().err
        assert not (workspace / "out" / "dataset.csv").exists()

    def test_missing_required_flags_without_config(self, workspace, capsys):
        assert run("synth", "--model", "models/decay.crn", "--out-dir", "out") == 2
        assert "missing --property" in capsys.readouterr().err
        assert run("infer", "--dataset", "out/dataset.csv", "--seed", "1", "--out-dir", "out") == 2
        assert "missing --model" in capsys.readouterr().err
        assert run("generate", "--seed", "1", "--out-dir", "out") == 2
        assert "needs --config" in capsys.readouterr().err


# flags that name no experiment setting: inputs, outputs and the
# baseline's own budget
COMMAND_ONLY = {"config", "out_dir", "dataset", "partition", "particles", "n_params", "n_sims"}


def test_every_flag_sets_a_config_field_or_is_command_only():
    settings = {f.name for f in fields(ExperimentConfig)}
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {"generate", "synth", "infer", "verify", "baseline", "pipeline"}
    for name, parser in commands.items():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in settings | COMMAND_ONLY, f"{name}: {action.option_strings or action.dest}"


def test_every_config_field_is_set_somewhere():
    # a setting that no shipped config, benchmark workload or flag sets is
    # a second source for something, or dead
    shipped = {key for path in (REPO / "configs").glob("*.json") for key in json.loads(path.read_text())}
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    dests = {action.dest for parser in commands.values() for action in parser._actions}
    unset = {f.name for f in fields(ExperimentConfig)} - shipped - _config_keys() - dests
    assert not unset, f"settings nothing sets: {sorted(unset)}"


@pytest.mark.parametrize("argv", [
    ["generate", "--config", "smoke.json"],
    ["verify", "out/partition.json", "out/particles.csv", "--seed", "1"],
    ["baseline", "out/particles.csv", "--config", "smoke.json"],
])
def test_workers_only_where_work_is_spread(workspace, capsys, argv):
    # generate, verify and baseline run in one process: --workers is an
    # unknown flag there, and argparse exits 2 before any work
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--workers", "2", "--out-dir", "out")
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (workspace / "out").exists()


@pytest.fixture(scope="module")
def smoke_stages(tmp_path_factory):
    """A smoke-config partition and particle file, built once."""
    root = tmp_path_factory.mktemp("smoke")
    doc = json.loads((REPO / "configs" / "smoke.json").read_text())
    (root / "smoke.json").write_text(json.dumps({**doc, "model": str(REPO / "models" / "decay.crn")}))
    config, out = str(root / "smoke.json"), str(root / "out")
    assert run("synth", "--config", config, "--out-dir", out) == 0
    assert run("generate", "--config", config, "--out-dir", out) == 0
    assert run("infer", "--config", config, "--dataset", f"{out}/dataset.csv", "--out-dir", out) == 0
    return root / "out"


def test_synth_needs_no_seed(smoke_stages, tmp_path):
    doc = json.loads((smoke_stages.parent / "smoke.json").read_text())
    assert run("synth", "--model", doc["model"], "--property", doc["property"],
               "--out-dir", str(tmp_path / "flags")) == 0
    # the partition and heatmap depend on no seed, so none is recorded
    for seed in ("1", "2"):
        assert run("synth", "--config", str(smoke_stages.parent / "smoke.json"), "--seed", seed,
                   "--out-dir", str(tmp_path / seed)) == 0
        for name in ("partition.json", "heatmap.csv"):
            assert (tmp_path / seed / name).read_bytes() == (smoke_stages / name).read_bytes()
    assert b"seed" not in (smoke_stages / "partition.json").read_bytes()


@pytest.mark.parametrize("command", ["generate", "infer", "verify", "baseline", "pipeline"])
def test_random_commands_need_a_seed(smoke_stages, tmp_path, capsys, command):
    doc = json.loads((smoke_stages.parent / "smoke.json").read_text())
    del doc["seed"]
    (tmp_path / "noseed.json").write_text(json.dumps(doc))
    argv = {
        "generate": ["generate"],
        "infer": ["infer", "--dataset", str(smoke_stages / "dataset.csv")],
        "verify": ["verify", str(smoke_stages / "partition.json"), str(smoke_stages / "particles.csv")],
        "baseline": ["baseline", str(smoke_stages / "particles.csv"), "--n-params", "2", "--n-sims", "10"],
        "pipeline": ["pipeline"],
    }[command]
    assert run(*argv, "--config", str(tmp_path / "noseed.json"), "--out-dir", str(tmp_path / "out")) == 2
    assert "seed" in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())


def _drop_boxes_at(k):
    return lambda doc: doc.update(boxes=[b for b in doc["boxes"] if not b["lo"][0] <= k <= b["hi"][0]])


# each edits the boxes or the document, with the reason verify gives for
# exiting 2
CORRUPTIONS = {
    "label-X": (lambda doc: doc["boxes"][0].update(label="X"), "label must be one of"),
    "no-header": (lambda doc: doc.pop("header"), "'header'"),
    "no-boxes": (lambda doc: doc.pop("boxes"), "'boxes'"),
    "empty-boxes": (lambda doc: doc.update(boxes=[]), "no boxes"),
    "ragged": (lambda doc: doc["boxes"][0]["lo"].append(0.5), "lists of 1 finite numbers"),
    "non-numeric": (lambda doc: doc["boxes"][0].update(hi=["1.0"]), "lists of 1 finite numbers"),
    "lo-ge-hi": (
        lambda doc: doc["boxes"][0].update(lo=doc["boxes"][0]["hi"], hi=doc["boxes"][0]["lo"]),
        "lo < hi",
    ),
    "outside-theta": (lambda doc: doc["boxes"][0].update(hi=[1e6]), "outside theta"),
    # a hole where no slice draw lands (k = 9) and one where draws land (k = 1)
    "hole-at-9": (_drop_boxes_at(9.0), "cover volume"),
    "hole-at-1": (_drop_boxes_at(1.0), "cover volume"),
    "duplicate-box": (lambda doc: doc["boxes"].append(dict(doc["boxes"][-1])), "overlap"),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_verify_rejects_corrupt_partition(smoke_stages, tmp_path, capsys, case):
    edit, reason = CORRUPTIONS[case]
    doc = json.loads((smoke_stages / "partition.json").read_text())
    edit(doc)
    (tmp_path / "partition.json").write_text(json.dumps(doc))
    assert run("verify", str(tmp_path / "partition.json"), str(smoke_stages / "particles.csv"),
               "--seed", "1", "--samples", "200", "--out-dir", str(tmp_path / "out")) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out" / "verdict.json").exists()


def test_infer_from_flags_matches_config(smoke_stages, tmp_path):
    doc = json.loads((REPO / "configs" / "smoke.json").read_text())
    assert doc["abc_max_attempts"] == ExperimentConfig.abc_max_attempts and doc["workers"] == 1
    assert run("infer", "--model", str(REPO / "models" / "decay.crn"), "--seed", str(doc["seed"]),
               "--particles", str(doc["abc_particles"]), "--batches", str(doc["abc_batches"]),
               "--rounds", str(doc["abc_rounds"]), "--dataset", str(smoke_stages / "dataset.csv"),
               "--out-dir", str(tmp_path)) == 0
    for name in ("particles.csv", "posterior.json"):
        assert (tmp_path / name).read_bytes() == (smoke_stages / name).read_bytes()


def test_infer_outputs_do_not_depend_on_workers(smoke_stages, tmp_path):
    # each batch's waves are keyed by (seed, STAGE_INFER, batch, round,
    # wave), so a pool of two workers writes the bytes one process writes
    config = str(smoke_stages.parent / "smoke.json")
    assert run("infer", "--config", config, "--dataset", str(smoke_stages / "dataset.csv"),
               "--workers", "2", "--out-dir", str(tmp_path)) == 0
    for name in ("particles.csv", "posterior.json"):
        assert (tmp_path / name).read_bytes() == (smoke_stages / name).read_bytes()
    # three batches: one worker runs two of them in lockstep
    for workers in ("1", "2"):
        assert run("infer", "--config", config, "--dataset", str(smoke_stages / "dataset.csv"), "--batches", "3",
                   "--particles", "40", "--workers", workers, "--out-dir", str(tmp_path / workers)) == 0
    for name in ("particles.csv", "posterior.json"):
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_infer_runs_with_abcseq_wrapped(smoke_stages, tmp_path, monkeypatch):
    # a tracer replaces cli.abcseq with a wrapper that copies its name; the
    # pool must not pickle the wrapper by that name
    import crnverify.cli as cli

    real = cli.abcseq

    @functools.wraps(real)
    def wrapped(*args, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "abcseq", wrapped)
    config = str(smoke_stages.parent / "smoke.json")
    for workers in ("1", "2"):
        assert run("infer", "--config", config, "--dataset", str(smoke_stages / "dataset.csv"),
                   "--workers", workers, "--out-dir", str(tmp_path / workers)) == 0
    assert (tmp_path / "2" / "particles.csv").read_bytes() == (tmp_path / "1" / "particles.csv").read_bytes()
    assert (tmp_path / "1" / "particles.csv").read_bytes() == (smoke_stages / "particles.csv").read_bytes()


POSTERIOR_CORRUPTIONS = {
    "no-sigma": lambda doc: doc.pop("sigma"),
    "sigma-of-other-parameter": lambda doc: doc.update(sigma={"q": 0.1}),
    "string-mean": lambda doc: doc["mu"].update(k="1.0"),
    "nan-mean": lambda doc: doc["mu"].update(k=float("nan")),
    "mu-huge-integer": lambda doc: doc["mu"].update(k=10**400),
}


@pytest.mark.parametrize("case", list(POSTERIOR_CORRUPTIONS))
def test_baseline_rejects_corrupt_posterior(smoke_stages, tmp_path, capsys, case):
    doc = json.loads((smoke_stages / "posterior.json").read_text())
    POSTERIOR_CORRUPTIONS[case](doc)
    path = tmp_path / "posterior.json"
    path.write_text(json.dumps(doc))
    assert run("baseline", str(path), "--config", str(smoke_stages.parent / "smoke.json"),
               "--n-params", "2", "--n-sims", "10", "--out-dir", str(tmp_path / "out")) == 2
    assert f"posterior {path}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "baseline.json").exists()


def _edit_rows(edit):
    """Apply ``edit`` to the data rows (lists of fields) of a CSV file's text."""
    def apply(text):
        lines = text.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        rows = [line.split(",") for line in lines[header + 1:]]
        edit(rows)
        return "\n".join(lines[:header + 1] + [",".join(r) for r in rows]) + "\n"
    return apply


def _set_field(column, value, rows=slice(0, 1)):
    def edit(table):
        for row in table[rows]:
            row[column] = value
    return _edit_rows(edit)


def _edit_comment(key, edit):
    """Replace the JSON value of a CSV file's ``# key=`` comment by ``edit(value)``."""
    def apply(text):
        prefix = f"# {key}="
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[i] = prefix + json.dumps(edit(json.loads(lines[i].removeprefix(prefix))))
        return "\n".join(lines) + "\n"
    return apply


def _set_meta(key, value):
    return _edit_comment("meta", lambda meta: {**meta, key: value})


def _drop_meta(key):
    return _edit_comment("meta", lambda meta: {k: v for k, v in meta.items() if k != key})


# each edits the rows of the smoke particle file, with the reason verify
# gives for exiting 2
PARTICLE_CORRUPTIONS = {
    "nan-weight": (_set_field(2, "nan"), "must be finite"),
    "inf-point": (_set_field(3, "inf"), "must be finite"),
    "nan-distance": (_set_field(-1, "nan"), "must be finite"),
    "batch-7": (_set_field(0, "7"), "batch ids must be integers in 0..1"),
    "batch-negative": (_set_field(0, "-1"), "batch ids must be integers in 0..1"),
    "batch-fraction": (_set_field(0, "0.5"), "batch ids must be integers in 0..1"),
    "declared-batch-empty": (_set_field(0, "0", rows=slice(None)), "a declared batch has no rows"),
    "no-batch-count": (lambda text: text.replace('"batches": 2, ', ""), "positive batch count"),
    "meta-not-object": (_edit_comment("meta", lambda meta: 5), "metadata must be a JSON object"),
    "thresholds-not-a-list": (_set_meta("thresholds", 5), "metadata 'thresholds'"),
    "threshold-string": (_set_meta("thresholds", [[None, "1.5"], [None]]), "metadata 'thresholds'"),
    "threshold-negative": (_set_meta("thresholds", [[None, -1.5], [None]]), "metadata 'thresholds'"),
    "no-thresholds": (_drop_meta("thresholds"), "metadata 'thresholds'"),
    "attempts-string": (_set_meta("attempts", "ab"), "metadata 'attempts'"),
    "attempts-one-batch": (_set_meta("attempts", [10]), "metadata 'attempts'"),
    "attempts-fraction": (_set_meta("attempts", [10.5, 10]), "metadata 'attempts'"),
    "status-unknown": (_set_meta("status", ["ok", "done"]), "metadata 'status'"),
    "no-status": (_drop_meta("status"), "metadata 'status'"),
    "theta-lo-number": (_set_meta("theta_lo", 5), "metadata 'theta_lo' and 'theta_hi'"),
    "theta-lo-extra-bound": (_set_meta("theta_lo", [0.1, 0.2]), "metadata 'theta_lo' and 'theta_hi'"),
    "theta-lo-negative": (_set_meta("theta_lo", [-1.0]), "lower bound -1.0 must be nonnegative"),
    "negative-weight": (_edit_rows(lambda rows: rows[0].__setitem__(2, repr(-3 * float(rows[0][2])))),
                        "weights must be nonnegative"),
    "zero-weight-batch": (_edit_rows(lambda rows: [row.__setitem__(2, "0.0") for row in rows if row[0] == "0"]),
                          "a batch's weights sum to zero"),
}


@pytest.mark.parametrize("case", list(PARTICLE_CORRUPTIONS))
def test_verify_rejects_corrupt_particles(smoke_stages, tmp_path, capsys, case):
    edit, reason = PARTICLE_CORRUPTIONS[case]
    path = tmp_path / "particles.csv"
    text = (smoke_stages / "particles.csv").read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    assert run("verify", str(smoke_stages / "partition.json"), str(path),
               "--seed", "1", "--samples", "200", "--out-dir", str(tmp_path / "out")) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out" / "verdict.json").exists()


# each edits the rows or comments of the smoke dataset, with the reason
# infer gives for exiting 2
DATASET_CORRUPTIONS = {
    "ragged-row": (_edit_rows(lambda rows: rows[1].pop()), "malformed rows"),
    "non-numeric-cell": (_set_field(1, "abc"), "malformed rows"),
    "nan-observation": (_set_field(1, "nan"), "must be finite"),
    "inf-time": (_set_field(0, "inf", rows=slice(-1, None)), "must be finite"),
    "negative-time": (_set_field(0, "-0.3"), "times must be nonnegative"),
    "negative-count": (_set_field(2, "-1.0"), "must be nonnegative"),
    "sigma-string": (_edit_comment("meta-sigma", lambda sigma: "abc"), "meta-sigma"),
    "sigma-negative": (_edit_comment("meta-sigma", lambda sigma: -1.0), "meta-sigma"),
    "sigma-nan": (_edit_comment("meta-sigma", lambda sigma: float("nan")), "meta-sigma"),
    "sigma-huge-integer": (_edit_comment("meta-sigma", lambda sigma: 10**400), "meta-sigma"),
}


@pytest.mark.parametrize("case", list(DATASET_CORRUPTIONS))
def test_infer_rejects_corrupt_dataset(smoke_stages, tmp_path, capsys, case):
    edit, reason = DATASET_CORRUPTIONS[case]
    path = tmp_path / "dataset.csv"
    text = (smoke_stages / "dataset.csv").read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    assert run("infer", "--config", str(smoke_stages.parent / "smoke.json"), "--dataset", str(path),
               "--out-dir", str(tmp_path / "out")) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out" / "particles.csv").exists()


def test_verify_on_nan_weight_exits_instead_of_looping(smoke_stages, tmp_path):
    # a NaN posterior once sent the slice sampler into an endless loop, so
    # this runs in its own process under a timeout
    path = tmp_path / "particles.csv"
    path.write_text(_set_field(2, "nan")((smoke_stages / "particles.csv").read_text()))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "crnverify.cli", "verify", str(smoke_stages / "partition.json"), str(path),
         "--seed", "1", "--samples", "200", "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2, result.stderr


def test_cli_import_leaves_out_the_process_pool_and_scipy_stats():
    # each costs every command's start: the pool is imported only with
    # more than one worker, and scipy.stats (over a second) not at all
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    code = ("import sys, crnverify.cli; "
            "print(sorted({'concurrent.futures.process', 'scipy.stats'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
