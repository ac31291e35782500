"""The three workloads: their inputs, the commands of one job, and the
checks on one job's outputs.

Inputs are written as config files under the work directory, made from
the run's seed; commands are CLI argument lists run from the checkout's
root.  Every job of a run gets the same inputs, so its outputs must match
the first job's byte for byte.
"""

import json
from pathlib import Path

import numpy as np

import checks
import oracle

SIR_PROPERTY = "P>0.1 [ (I>0) U[100,150] (I=0) ]"
SIR_TRUTHS = {"phi": {"ki": 0.002, "kr": 0.05}, "notphi": {"ki": 0.002, "kr": 0.18}}
MARGIN = 0.02
GRID = 100

# The paper's SIR case study, as in configs/sir_*_20obs_noiseless.json,
# with every setting the benchmark depends on written out here.
SIR_SYNTH = {
    "format": 1,
    "model": "models/sir.crn",
    "property": SIR_PROPERTY,
    "synth_volume_tolerance": 0.1,
    "synth_margin": MARGIN,
    "synth_max_depth": 12,
    "synth_transient_tol": 1e-8,
    "grid_resolution": GRID,
    "workers": 1,
}
SIR_BASE = {
    **SIR_SYNTH,
    "observation_count": 20,
    "observation_end": 150.0,
    "noise_sigma": 0.0,
    "abc_particles": 100,
    "abc_batches": 2,
    "abc_rounds": 5,
    "abc_max_attempts": 5000,
    "slice_samples": 1000,
    "slice_scale": 2.0,
}
# the partition sir-infer verifies against: the paper's tolerance, made
# once per source tree; its seed only enters the file header
PARTITION_CONFIG = {**SIR_SYNTH, "seed": 1}
SYNTH_TOLERANCE = 0.45
# The observed datasets are the shipped configs' (their seeds), as the
# paper fixes one dataset per scenario; --seed drives ABC, the slice
# sampler and the baseline.  A seeded dataset would let an atypical draw
# move the ABC work and the verdict from run to run.
DATASET_SEEDS = {"phi": 7151, "notphi": 7152}
BASELINE_SIR = ("4", "250")  # --n-params, --n-sims

# configs/smoke.json at workers=1
DECAY_CONFIG = {
    "format": 1,
    "scenario": "smoke: decay half-conversion timing",
    "model": "models/decay.crn",
    "property": "P>0.5 [ (B<25) U[0.5,1.5] (B>=25) ]",
    "true_point": {"k": 1.0},
    "observation_count": 10,
    "observation_end": 3.0,
    "noise_sigma": 0.0,
    "abc_particles": 120,
    "abc_batches": 2,
    "abc_rounds": 5,
    "abc_max_attempts": 5000,
    "synth_volume_tolerance": 0.05,
    "synth_margin": MARGIN,
    "synth_max_depth": 12,
    "synth_transient_tol": 1e-08,
    "grid_resolution": 32,
    "slice_samples": 2000,
    "slice_scale": 2.0,
    "workers": 1,
}
BASELINE_DECAY = ("20", "200")


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class SirSynth:
    """``synth`` (partition and heatmap) of the SIR model over the full box."""

    model, prop = "models/sir.crn", SIR_PROPERTY
    uses_partition = False

    def __init__(self, seed: int, work: Path, partition: Path):
        self.config = _write(
            work / "sir_synth.json",
            {**SIR_SYNTH, "seed": seed, "synth_volume_tolerance": SYNTH_TOLERANCE},
        )

    def commands(self, out: Path):
        return [["synth", "--config", self.config, "--out-dir", str(out)]]

    def check(self, out: Path, rng, sir_values: dict):
        doc = _load(out / "partition.json")
        checks.partition_structure(doc, out / "heatmap.csv", GRID)
        checks.sir_labels(doc, oracle.SirChain(), rng, MARGIN, sir_values)

    def partition(self, out: Path) -> Path:
        return out / "partition.json"


class SirInfer:
    """``generate``, ``infer``, ``verify`` and ``baseline`` for the satisfying
    and the violating SIR ground truth, against the cached partition.

    Runnable, but not in BENCHMARK.json: its job time did not hold steady
    between runs (README, *Workloads*)."""

    model, prop = "models/sir.crn", SIR_PROPERTY
    uses_partition = True

    def __init__(self, seed: int, work: Path, partition: Path):
        self.part = partition
        seeds = np.random.SeedSequence(seed).generate_state(len(SIR_TRUTHS))
        self.seeds = dict(zip(SIR_TRUTHS, map(int, seeds)))
        self.configs = {
            truth: _write(work / f"sir_{truth}.json",
                          {**SIR_BASE, "seed": self.seeds[truth], "true_point": point})
            for truth, point in SIR_TRUTHS.items()
        }

    def commands(self, out: Path):
        cmds = []
        for truth, cfg in self.configs.items():
            d = str(out / truth)
            seed = str(self.seeds[truth])
            cmds += [
                ["generate", "--config", cfg, "--seed", str(DATASET_SEEDS[truth]), "--out-dir", d],
                ["infer", "--config", cfg, "--dataset", f"{d}/dataset.csv", "--out-dir", d],
                # verify reads neither slice_samples nor slice_scale from a
                # config, so both are passed as flags
                ["verify", str(self.part), f"{d}/particles.csv", "--seed", seed,
                 "--samples", str(SIR_BASE["slice_samples"]),
                 "--scale", str(SIR_BASE["slice_scale"]), "--out-dir", d],
                ["baseline", f"{d}/particles.csv", "--config", cfg,
                 "--n-params", BASELINE_SIR[0], "--n-sims", BASELINE_SIR[1], "--out-dir", d],
            ]
        return cmds

    def check(self, out: Path, rng, sir_values: dict):
        doc = _load(self.part)
        checks.partition_structure(doc, self.part.parent / "heatmap.csv", GRID)
        chain = oracle.SirChain()
        # the cached partition is the same file in every run of a source
        # tree, so its labels are checked against the oracle once
        checked = self.part.parent / "labels-checked"
        if not checked.is_file():
            checks.sir_labels(doc, chain, rng, MARGIN, sir_values)
            checked.write_text("ok\n", encoding="utf-8")
        for truth, point in SIR_TRUTHS.items():
            d = out / truth
            checks.dataset_invariants(d / "dataset.csv", 100, "S", "R", SIR_BASE["observation_count"])
            posterior = _load(d / "posterior.json")
            checks.posterior_matches(d / "particles.csv", posterior, point)
            verdict = _load(d / "verdict.json")
            checks.same_posterior(verdict, posterior)
            checks.verdict_integral(verdict, doc)
            satisfied = chain.until(tuple(point.values())) > oracle.SIR_THRESHOLD
            checks.require(
                (verdict["C"] > 0.5) == satisfied,
                f"C={verdict['C']} for the {'satisfying' if satisfied else 'violating'} truth",
            )
            checks.baseline_binomial(
                _load(d / "baseline.json"),
                lambda p: chain.until((p["ki"], p["kr"])),
                oracle.SIR_THRESHOLD,
            )

    def partition(self, out: Path) -> Path:
        return self.part


class DecayPipeline:
    """``pipeline`` then ``baseline`` on the 51-state decay network."""

    model, prop = "models/decay.crn", DECAY_CONFIG["property"]
    uses_partition = False

    def __init__(self, seed: int, work: Path, partition: Path):
        self.config = _write(work / "decay.json", {**DECAY_CONFIG, "seed": seed})

    def commands(self, out: Path):
        return [
            ["pipeline", "--config", self.config, "--out-dir", str(out)],
            ["baseline", f"{out}/particles.csv", "--config", self.config,
             "--n-params", BASELINE_DECAY[0], "--n-sims", BASELINE_DECAY[1], "--out-dir", str(out)],
        ]

    def check(self, out: Path, rng, sir_values: dict):
        doc = _load(out / "partition.json")
        checks.partition_structure(doc, out / "heatmap.csv", DECAY_CONFIG["grid_resolution"])
        checks.decay_labels(doc, MARGIN)
        checks.dataset_invariants(out / "dataset.csv", oracle.DECAY_N, "A", "B", DECAY_CONFIG["observation_count"])
        posterior = _load(out / "posterior.json")
        checks.posterior_matches(out / "particles.csv", posterior, DECAY_CONFIG["true_point"])
        verdict = _load(out / "verdict.json")
        checks.same_posterior(verdict, posterior)
        checks.verdict_integral(verdict, doc)
        checks.baseline_binomial(
            _load(out / "baseline.json"), lambda p: oracle.decay_until(p["k"]), oracle.DECAY_THRESHOLD
        )

    def partition(self, out: Path) -> Path:
        return out / "partition.json"


WORKLOADS = {"sir-synth": SirSynth, "sir-infer": SirInfer, "decay-pipeline": DecayPipeline}
