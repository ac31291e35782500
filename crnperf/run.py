"""Benchmark of the crnverify CLI, end to end and layer by layer.

    python3 crnperf/run.py --workload {sir-synth,sir-infer,decay-pipeline}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run times a reference loop, then
runs jobs (one fresh interpreter per job, its CLI commands in order) for
about ``--seconds``, with fresh-interpreter set-up probes spread between
them, times the reference loop again and checks the first job's outputs
against computations made apart from the program.  With ``--trace 1``
every other job is traced and the per-layer metrics are printed instead
of the end-to-end ones.  The last line of stdout is the JSON result.

The SIR partition that sir-infer (not in BENCHMARK.json, see README)
verifies against is made by the program's own ``synth`` once per source
tree, before any timing, and kept under crnperf/cache.
"""

import os

# one core's worth of load: no BLAS or OpenMP threads, in this process
# and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import PARTITION_CONFIG, WORKLOADS  # noqa: E402

PROBES = 5
CHILD_TIMEOUT = 150.0
BUILD_TIMEOUT = 850.0
PARTITION_WORKERS = "2"  # the cached partition is untimed set-up

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s", "model.enumerate_s": "s", "transient.evaluator_s": "s",
    "transient.until_calls": "count", "transient.until_s": "s",
    "transient.until_ms_p50": "ms", "transient.until_ms_p90": "ms",
    "synthesis.synth_s": "s", "synthesis.self_s": "s", "synthesis.heatmap_s": "s",
    "synthesis.evals": "count", "synthesis.levels": "count", "synthesis.undecided_frac": "ratio",
    "synthesis.classify_points_s": "s",
    "simulate.calls": "count", "simulate.events": "count", "simulate.self_s": "s",
    "simulate.events_per_s": "1/s",
    "abcsmc.abcseq_s": "s", "abcsmc.self_s": "s", "abcsmc.attempts": "count",
    "abcsmc.accept_ratio": "ratio",
    "monitor.estimate_lambda_s": "s", "monitor.self_s": "s",
    "verdict.probability_s": "s", "verdict.slice_s": "s", "verdict.slice_draws_per_s": "1/s",
    "verdict.bayes_smc_s": "s",
    "cli.generate_s": "s", "cli.synth_s": "s", "cli.infer_s": "s", "cli.verify_s": "s",
    "cli.baseline_s": "s", "cli.pipeline_s": "s", "cli.io_s": "s", "cli.self_s": "s",
    "trace.overhead": "ratio",
}

BENCH = Path(__file__).resolve().parent
JOB = BENCH / "job.py"


def child(args: list[str], timeout: float = CHILD_TIMEOUT) -> tuple[float, dict]:
    """Run a fresh interpreter on job.py; return its wall time and result."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(JOB), *args], capture_output=True, text=True, timeout=timeout, env=env
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"job.py {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def reference_loop() -> float:
    """A fixed pure-Python loop: a diagnostic of the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def source_key() -> str:
    h = hashlib.sha256(json.dumps(PARTITION_CONFIG, sort_keys=True).encode())
    for path in sorted(Path("src").rglob("*.py")) + [Path(PARTITION_CONFIG["model"])]:
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_partition(cache: Path) -> Path:
    """The SIR partition at the paper's tolerance, made by ``crnverify synth``
    once per source tree."""
    final = cache / f"partition-{source_key()}"
    if not (final / "partition.json").is_file():
        building = cache / "building"
        shutil.rmtree(building, ignore_errors=True)
        building.mkdir(parents=True)
        config = building / "config.json"
        config.write_text(json.dumps(PARTITION_CONFIG, indent=1) + "\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "crnverify.cli", "synth", "--config", str(config),
             "--workers", PARTITION_WORKERS, "--out-dir", str(building)],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT,
            env=dict(os.environ, PYTHONPATH="src"),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"building the SIR partition failed: {proc.stderr[-2000:]}")
        for stale in cache.glob("partition-*"):
            shutil.rmtree(stale)
        building.rename(final)
    return final / "partition.json"


def file_layers(workload, out: Path) -> dict[str, float]:
    """Per-layer counts read from partition.json and the particle files."""
    doc = json.loads(workload.partition(out).read_text(encoding="utf-8"))
    lo, hi, labels = checks.boxes(doc)
    h = doc["header"]
    total = float(np.prod(np.array(h["theta_hi"]) - np.array(h["theta_lo"])))
    vol = np.prod(hi - lo, axis=1)
    accepted = attempts = 0
    for path in sorted(out.rglob("particles.csv")):
        meta, _, rows = checks.read_particles(path)
        attempts += sum(meta["attempts"])
        for b, last_round in enumerate(meta["round"]):
            accepted += int(np.sum(rows[:, 0] == b)) * (last_round + 1)
    return {
        "synthesis.evals": h["backend"]["evaluations"],
        "synthesis.levels": int(round(max(math.log2(total / v) for v in vol))),
        "synthesis.undecided_frac": float(vol[labels == "U"].sum() / total),
        "abcsmc.attempts": attempts,
        "abcsmc.accept_ratio": accepted / attempts if attempts else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/crnverify/cli.py").is_file() or not Path("models").is_dir():
        print("error: run from the root of a crnverify checkout (src/crnverify/cli.py not found)", file=sys.stderr)
        return 2
    rel = BENCH.relative_to(Path.cwd().resolve())
    work, out_root, cache = rel / "work", rel / "out", rel / "cache"
    for d in (work, out_root):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    cache.mkdir(parents=True, exist_ok=True)

    kind = WORKLOADS[args.workload]
    workload = kind(args.seed, work, ensure_partition(cache) if kind.uses_partition else None)
    ref_before = reference_loop()

    def probe():
        return child(["probe", workload.model, workload.prop])

    # The set-up probes are spread over the run, so that they meet the same
    # host as the jobs; their time does not count towards --seconds.
    probes = []
    jobs = []  # (traced, result)
    attempted = failed = 0
    start = time.perf_counter()
    probe_s = 0.0
    while True:
        while len(probes) < PROBES and time.perf_counter() - start - probe_s >= len(probes) * args.seconds / PROBES:
            t = time.perf_counter()
            probes.append(probe())
            probe_s += time.perf_counter() - t
        traced = bool(args.trace) and len(jobs) % 2 == 1
        out = out_root / f"job{len(jobs)}"
        spec = work / f"job{len(jobs)}.json"
        commands = workload.commands(out)
        spec.write_text(json.dumps({"commands": commands, "trace": traced}), encoding="utf-8")
        wall, result = child(["job", str(spec)])
        jobs.append((traced, result))
        attempted += len(commands)
        failed += sum(1 for code in result["codes"] if code != 0)
        if any(result["codes"]):
            print(f"job {len(jobs) - 1} exited {result['codes']}: {result['log']}", file=sys.stderr)
        elapsed = time.perf_counter() - start - probe_s
        # stop where the job time ends nearest to --seconds: another job of
        # the same length would end further from it
        if len(jobs) % (2 if args.trace else 1) == 0 and elapsed + wall / 2 > args.seconds:
            break
    probes += [probe() for _ in range(PROBES - len(probes))]
    ref_after = reference_loop()

    correct = failed == 0
    if correct:
        values_path = cache / "oracle-sir.json"
        sir_values = json.loads(values_path.read_text(encoding="utf-8")) if values_path.is_file() else {}
        try:
            checks.identical_outputs([out_root / f"job{i}" for i in range(len(jobs))])
            workload.check(out_root / "job0", np.random.default_rng([args.seed, 7]), sir_values)
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        values_path.write_text(json.dumps(sir_values, sort_keys=True), encoding="utf-8")

    plain = [r for traced, r in jobs if not traced]
    job_s = statistics.median(r["job_s"] for r in plain)
    if args.trace:
        traced_jobs = [r for traced, r in jobs if traced]
        layered = [r["layers"] for r in traced_jobs]
        metrics = {name: statistics.median(layer[name] for layer in layered) for name in layered[0]}
        metrics["setup.import_s"] = statistics.median(p["import_s"] for _, p in probes)
        metrics["model.enumerate_s"] = statistics.median(p["enumerate_s"] for _, p in probes)
        metrics["transient.evaluator_s"] = statistics.median(p["evaluator_s"] for _, p in probes)
        metrics.update(file_layers(workload, out_root / "job0"))
        metrics["trace.overhead"] = statistics.median(r["job_s"] for r in traced_jobs) / job_s
        units = PER_LAYER
    else:
        metrics = {
            "job_s": job_s,
            "setup_s": statistics.median(wall for wall, _ in probes),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
        units = END_TO_END
    print(
        f"reference loop {ref_before:.4f} s before the jobs, {ref_after:.4f} s after; "
        f"{len(jobs)} jobs, job_s " + " ".join(f"{r['job_s']:.3f}" for _, r in jobs)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
