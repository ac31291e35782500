"""Command-line pipeline: generate data, synthesize regions, infer
parameters, and integrate the posterior into a verification probability.

Outputs are byte-identical when rerun with the same inputs.  Every command
but ``synth`` draws random numbers and exits 2 without ``--seed`` (or a
config carrying one).  Wall-clock timings go to stdout only, never to files.

Exit codes: 0 success, 2 configuration or parse error, 3 synthesis finished
without meeting the undecided-volume tolerance, 4 runtime failure.
"""

import argparse
import os
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import rng as rngmod
from .abcsmc import abcseq, load_particles, pool_batches, save_particles
from .config import ExperimentConfig, load_config, worker_map
from .crn_text import load_crn
from .csl import parse_csl
from .errors import ConfigError, CrnVerifyError, ParseError, ToleranceUnmetError
from .files import read_json, write_json
from .model import PCRN
from .simulate import Dataset, observe, save_dataset, simulate, load_dataset
from .synthesis import (
    STATUS_OK,
    save_heatmap_grid,
    save_partition,
    load_partition,
    synthesize,
)
from .verdict import (
    bayes_smc,
    fit_posterior,
    majority_verdict,
    probability,
    Posterior,
    posterior_from_doc,
    posterior_to_doc,
    save_report,
)


def _true_point(config: ExperimentConfig, pcrn: PCRN) -> list[float]:
    if not config.true_point:
        raise ConfigError("config needs a true_point to generate data")
    unknown = set(config.true_point) - set(pcrn.params.names)
    if unknown:
        raise ConfigError(f"true_point names unknown parameters {sorted(unknown)}")
    missing = set(pcrn.params.names) - set(config.true_point)
    if missing:
        raise ConfigError(f"true_point missing parameters {sorted(missing)}")
    return [config.true_point[n] for n in pcrn.params.names]


def cmd_generate(config: ExperimentConfig, out_dir: Path) -> Path:
    """Simulate the data-generating system once and write the observations."""
    pcrn = load_crn(config.model)
    formula = parse_csl(config.property)
    point = _true_point(config, pcrn)
    times = config.times(default_end=formula.path.t_hi)
    stream = rngmod.stream(config.seed, rngmod.STAGE_GENERATE)
    traj = simulate(pcrn, point, float(times[-1]), stream)
    data = observe(traj, times, config.noise_sigma, stream, species=pcrn.species_names())
    path = out_dir / "dataset.csv"
    save_dataset(
        data,
        path,
        meta={"seed": config.seed, "true_point": config.true_point, "model": str(config.model)},
    )
    return path


def cmd_synth(config: ExperimentConfig, out_dir: Path) -> tuple[Path, Path, str]:
    """Partition the parameter space and export it plus a plotting grid."""
    pcrn = load_crn(config.model)
    partition = synthesize(pcrn, parse_csl(config.property), config)
    partition_path = out_dir / "partition.json"
    heatmap_path = out_dir / "heatmap.csv"
    save_partition(partition, partition_path)
    save_heatmap_grid(partition, heatmap_path, resolution=config.grid_resolution)
    return partition_path, heatmap_path, partition.status


def _abcseq(pcrn: PCRN, data: Dataset, config: ExperimentConfig, batches: list[int]):
    """``abcseq``, looked up when called: a pool pickles this function by
    name, which still works where ``abcseq`` has been replaced by a
    wrapper."""
    return abcseq(pcrn, data, config, batches)


def cmd_infer(config: ExperimentConfig, dataset_path: Path, out_dir: Path) -> tuple[Path, Path]:
    """Run batched sequential ABC and write particles plus a posterior summary."""
    pcrn = load_crn(config.model)
    data = load_dataset(dataset_path)
    if data.species != pcrn.species_names():
        raise ConfigError(
            f"dataset species {data.species} do not match model species {pcrn.species_names()}"
        )
    batches = list(range(config.abc_batches))
    workers = min(config.workers, len(batches))
    # each worker runs a contiguous share of the batches in lockstep
    shares = [batches[w * len(batches) // workers:(w + 1) * len(batches) // workers] for w in range(workers)]
    with worker_map(workers) as map_:
        batch_sets = [s for sets in map_(partial(_abcseq, pcrn, data, config), shares) for s in sets]
    particles_path = out_dir / "particles.csv"
    save_particles(batch_sets, pcrn.params, particles_path, seed=config.seed)
    posterior_path = out_dir / "posterior.json"
    write_json(posterior_path, {
        **posterior_to_doc(fit_posterior(*pool_batches(batch_sets))),
        "particles": config.abc_particles,
        "batches": config.abc_batches,
        "rounds": config.abc_rounds,
        "seed": config.seed,
        "statuses": [s.status for s in batch_sets],
    })
    return particles_path, posterior_path


def cmd_verify(config: ExperimentConfig, partition_path: Path, particles_path: Path, out_dir: Path) -> Path:
    """Integrate the fitted posterior over the satisfying region."""
    partition = load_partition(partition_path)
    batch_sets, _, _ = load_particles(particles_path)
    posterior = fit_posterior(*pool_batches(batch_sets))
    report = probability(
        partition,
        posterior,
        rngmod.stream(config.seed, rngmod.STAGE_VERIFY),
        n_samples=config.slice_samples,
        scale=config.slice_scale,
        seed=config.seed,
        partition_file=os.path.relpath(partition_path, out_dir),
    )
    path = out_dir / "verdict.json"
    save_report(report, path)
    return path


def _posterior_from_file(path: Path) -> Posterior:
    if path.suffix == ".json":
        return posterior_from_doc(read_json(path, "posterior"), path)
    batch_sets, _, _ = load_particles(path)
    return fit_posterior(*pool_batches(batch_sets))


def cmd_baseline(source_path: Path, config: ExperimentConfig, out_dir: Path, n_params: int, n_sims: int) -> Path:
    """Bayesian statistical model checking over posterior parameter draws."""
    pcrn = load_crn(config.model)
    formula = parse_csl(config.property)
    posterior = _posterior_from_file(source_path)
    results = bayes_smc(
        posterior, pcrn, formula, n_params, n_sims,
        rngmod.stream(config.seed, rngmod.STAGE_BASELINE),
    )
    path = out_dir / "baseline.json"
    write_json(path, {
        "n_params": n_params,
        "n_sims": n_sims,
        "seed": config.seed,
        "majority_verdict": majority_verdict(results),
        "satisfied_fraction": sum(v for _, _, v in results) / len(results),
        "points": [
            {"point": dict(zip(pcrn.params.names, point.tolist())), "estimate": estimate, "verdict": verdict}
            for point, estimate, verdict in results
        ],
    })
    return path


def cmd_pipeline(config: ExperimentConfig, out_dir: Path) -> None:
    """All stages in order; writes a run summary reconstructible from stage files."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    dataset_path = cmd_generate(config, out_dir)
    timings["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    partition_path, _, status = cmd_synth(config, out_dir)
    timings["synthesize"] = time.perf_counter() - t0
    if status != STATUS_OK:
        raise ToleranceUnmetError(
            f"synthesis stopped at status {status!r}; partition written to {partition_path}"
        )

    t0 = time.perf_counter()
    particles_path, posterior_path = cmd_infer(config, dataset_path, out_dir)
    timings["infer"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    verdict_path = cmd_verify(config, partition_path, particles_path, out_dir)
    timings["verdict"] = time.perf_counter() - t0

    posterior_doc = read_json(posterior_path, "posterior")
    verdict_doc = read_json(verdict_path, "verdict")
    summary = {
        "scenario": config.scenario_name(),
        "true_point": config.true_point,
        "mean": posterior_doc["mu"],
        "std_dev": posterior_doc["sigma"],
        "probability": verdict_doc["C"],
        "seed": config.seed,
        # stage files are recorded relative to the run directory so reruns
        # into any directory are byte-identical and the directory can move
        "stages": {
            "dataset": dataset_path.name,
            "partition": partition_path.name,
            "particles": particles_path.name,
            "verdict": verdict_path.name,
        },
    }
    write_json(out_dir / "run.json", summary)

    total = sum(timings.values())
    mu = ", ".join(f"{k}={v:.4g}" for k, v in posterior_doc["mu"].items())
    sd = ", ".join(f"{k}={v:.3g}" for k, v in posterior_doc["sigma"].items())
    print(f"scenario:    {summary['scenario']}")
    print(f"true params: {config.true_point}")
    print(f"mean:        {mu}")
    print(f"std dev:     {sd}")
    print(f"probability: {verdict_doc['C']:.4f}")
    print(f"time:        {total:.1f} s " + " ".join(f"({k} {v:.1f}s)" for k, v in timings.items()))


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def _add_common(p: argparse.ArgumentParser, workers: bool = False):
    """The flags every command takes, plus ``--workers`` for the commands
    that spread their work over processes."""
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    p.add_argument("--out-dir", default="out", help="output directory (default: out)")
    if workers:
        p.add_argument("--workers", type=int, help="max concurrent worker processes")


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  A flag that sets an experiment setting has
    the ``ExperimentConfig`` field as its ``dest`` and overrides the config."""
    parser = argparse.ArgumentParser(
        prog="crnverify",
        description="Verify a partially known reaction network against a "
        "time-bounded property, with a computed probability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate the true system and write observations")
    _add_common(p)

    p = sub.add_parser("synth", help="partition the parameter space by the property threshold")
    _add_common(p, workers=True)
    p.add_argument("--model", help="network .crn file (overrides config)")
    p.add_argument("--property", help="property string (overrides config)")
    p.add_argument("--tolerance", dest="synth_volume_tolerance", type=float, help="undecided-volume tolerance")

    p = sub.add_parser("infer", help="sequential ABC over observed data")
    _add_common(p, workers=True)
    p.add_argument("--model", help="network .crn file (overrides config)")
    p.add_argument("--dataset", required=True, help="observations CSV from 'generate'")
    p.add_argument("--particles", dest="abc_particles", type=int, help="particles per batch")
    p.add_argument("--batches", dest="abc_batches", type=int, help="independent batches")
    p.add_argument("--rounds", dest="abc_rounds", type=int, help="ABC rounds (including the prior round)")

    p = sub.add_parser("verify", help="integrate the posterior over the satisfying region")
    p.add_argument("partition", help="partition JSON from 'synth'")
    p.add_argument("particles", help="particle CSV from 'infer'")
    _add_common(p)
    p.add_argument("--samples", dest="slice_samples", type=int, help="slice-sampler draws")
    p.add_argument("--scale", dest="slice_scale", type=float, help="slice-sampler step scale")

    p = sub.add_parser("baseline", help="Bayesian statistical model checking comparison")
    p.add_argument("particles", help="particle CSV or posterior JSON")
    _add_common(p)
    p.add_argument("--model", help="network .crn file (overrides config)")
    p.add_argument("--property", help="property string (overrides config)")
    p.add_argument("--n-params", type=int, default=100, help="posterior draws to check")
    p.add_argument("--n-sims", type=int, default=1000, help="simulations per draw")

    p = sub.add_parser("pipeline", help="run generate, synth, infer, and verify in order")
    _add_common(p, workers=True)

    return parser


# the flags a command needs without --config (None: it needs --config);
# other settings keep their defaults, and rng.stream checks for a seed
_FLAGS_NEEDED = {
    "generate": None,
    "synth": ("model", "property"),
    "infer": ("model",),
    "verify": (),
    "baseline": ("model", "property"),
    "pipeline": None,
}


def _config_from_args(args) -> ExperimentConfig:
    """The command's settings: the config file with the flags' values on
    top, or the flags alone."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.config:
        return load_config(args.config, overrides)
    needed = _FLAGS_NEEDED[args.command]
    if needed is None:
        raise ConfigError(f"{args.command} needs --config")
    for key in needed:
        if key not in overrides:
            raise ConfigError(f"missing --{key} (or provide --config)")
    return ExperimentConfig(**overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        config = _config_from_args(args)
        if args.command == "generate":
            path = cmd_generate(config, out_dir)
            print(f"wrote {path} ({time.perf_counter() - t0:.2f} s)")
        elif args.command == "synth":
            partition_path, heatmap_path, status = cmd_synth(config, out_dir)
            print(f"wrote {partition_path} and {heatmap_path} ({time.perf_counter() - t0:.2f} s)")
            if status != STATUS_OK:
                print(f"synthesis status: {status}", file=sys.stderr)
                return 3
        elif args.command == "infer":
            particles_path, posterior_path = cmd_infer(config, Path(args.dataset), out_dir)
            print(f"wrote {particles_path} and {posterior_path} ({time.perf_counter() - t0:.2f} s)")
        elif args.command == "verify":
            path = cmd_verify(config, Path(args.partition), Path(args.particles), out_dir)
            print(f"wrote {path} ({time.perf_counter() - t0:.2f} s)")
        elif args.command == "baseline":
            path = cmd_baseline(Path(args.particles), config, out_dir, args.n_params, args.n_sims)
            print(f"wrote {path} ({time.perf_counter() - t0:.2f} s)")
        elif args.command == "pipeline":
            cmd_pipeline(config, out_dir)
        return 0
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceUnmetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrnVerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # runtime failures map to a dedicated exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
