"""Command-line interface: stage outputs, exit codes, and flag handling.

Heavier end-to-end checks (full SIR pipelines, byte determinism of every
command) live in the acceptance suite; here the fast decay network
exercises the wiring.
"""

import json
import shutil
from pathlib import Path

import pytest

from crnverify.cli import main

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
        assert heatmap[1] == "# seed=20240901"
        assert heatmap[2] == "k,label"
        assert len(heatmap) == 3 + 32

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

    def test_missing_required_flags_without_config(self, workspace):
        assert run("synth", "--model", "models/decay.crn", "--out-dir", "out") == 2
