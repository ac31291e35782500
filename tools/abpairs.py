"""Alternating A/B pairs of the benchmark: a git revision against the
working tree.

    python3 tools/abpairs.py --base REV --workload W --seeds 401 402 ...
        [--seconds 50]

Run from the root of a checkout.  Both sides run from fresh copies side
by side in one temporary directory: the revision's tree exported with
``git archive``, and a snapshot of the working tree (tracked files as they
are now, plus untracked files that are not ignored).  For each seed, one
``python3 crnperf/run.py --workload W --seed S --seconds N --trace 0`` runs
in each tree, the base first on even pairs and the working tree first on
odd ones, so that a drift of the host hits both sides alike.  Each run's
last stdout line is its JSON result.  Progress goes to stderr; the last
stdout line is one JSON summary: per end-to-end metric, the median and
quartiles of each side, the change of the medians, the pairs the
working tree won, the one-sided sign-test p-value of those wins, and two
verdicts:

- ``gain``: the working tree won at least 9 of 10 pairs, and its median
  is better than the base's by more than the base's inter-quartile
  distance;
- ``regression``: its median is worse than the base's by more than the
  metric's ``bound`` in ``BENCHMARK.json``, a fraction of the base's
  median.
"""

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

BENCHMARK = "BENCHMARK.json"


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, linearly interpolated between order statistics."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign_test(wins: int, losses: int) -> float:
    """One-sided sign-test p-value of ``wins`` against ``losses`` (ties
    dropped): the chance of at least ``wins`` wins in ``wins + losses``
    fair coin flips."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """One summary of (base, change) result pairs.  ``better`` maps each
    metric to "lower" or "higher"; a pair is a win when the change's value
    is strictly better, and ``sign_p`` is the one-sided sign-test p-value
    of the wins against the losses.  ``gain`` and ``regression`` are the
    module docstring's verdicts; ``regression`` is None for a metric
    without a bound in ``bounds``."""
    metrics = {}
    for name, direction in better.items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        # how much worse the change's median is, in the metric's units
        worse = sign * (c["median"] - b["median"])
        bound = (bounds or {}).get(name)
        metrics[name] = {
            "base": b,
            "change": c,
            "median_change": c["median"] / b["median"] - 1.0 if b["median"] else None,
            "wins": wins,
            "sign_p": sign_test(wins, losses),
            "gain": 10 * wins >= 9 * len(pairs) and -worse > b["q3"] - b["q1"],
            "regression": None if bound is None else worse > bound * abs(b["median"]),
        }
    return {
        "pairs": len(pairs),
        "correct": [[b["correct"], c["correct"]] for b, c in pairs].count([True, True]),
        "failed": {"base": sum(b["failed"] for b, _ in pairs), "change": sum(c["failed"] for _, c in pairs)},
        "metrics": metrics,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "crnperf/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(rev: str, tree: Path, repo: Path = Path(".")) -> Path:
    """The tree of revision ``rev`` of ``repo``, extracted into ``tree``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as f:
        f.extractall(tree, filter="data")
    return tree


def snapshot(tree: Path, repo: Path = Path(".")) -> Path:
    """The working tree of ``repo`` copied into ``tree``: every tracked file
    that still exists, as it is on disk, and every untracked file that
    ``.gitignore`` does not exclude."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                             cwd=repo, capture_output=True, check=True).stdout
    for name in sorted(set(listing.decode().split("\0")) - {""}):
        source, target = repo / name, tree / name
        if source.is_file():  # a tracked file deleted on disk is left out
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args()

    end_to_end = json.loads(Path(BENCHMARK).read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        base_tree, change_tree = export(args.base, Path(tmp) / "base"), snapshot(Path(tmp) / "change")
        for i, seed in enumerate(args.seeds):
            first, second = (base_tree, change_tree) if i % 2 == 0 else (change_tree, base_tree)
            results = {tree: run_once(tree, args.workload, seed, args.seconds) for tree in (first, second)}
            pair = (results[base_tree], results[change_tree])
            pairs.append(pair)
            print(json.dumps({"seed": seed, "base": pair[0]["metrics"], "change": pair[1]["metrics"]}),
                  file=sys.stderr)
    print(json.dumps({"workload": args.workload, "base": args.base, "seeds": args.seeds,
                      **summarize(pairs, better, bounds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
