"""Self-test of the output checks: each accepts real outputs and rejects a
corrupted copy of them.

    python3 crnperf/selftest.py

Run from the root of a checkout; it takes about half a minute.  Two small
decay jobs give real outputs, the SIR label check runs on two boxes of
known label, and no long workload runs.  Exits 1 if a check accepts a
corrupted output or rejects a real one.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import oracle
import run
from workloads import MARGIN, DecayPipeline

# boxes of the SIR rate space whose labels are known: the until
# probability is above 0.12 across the first and below 0.08 across the second
SIR_T_BOX = ([0.0022625, 0.029375], [0.003, 0.05375])
SIR_F_BOX = ([0.00041875, 0.005], [0.0007875, 0.029375])


def rejects(name, check, *args):
    try:
        check(*args)
    except checks.CheckFailed as exc:
        print(f"ok    {name}: {exc}")
        return True
    print(f"FAIL  {name}: the corrupted output passed")
    return False


def sir_doc(t_box, f_box):
    boxes = [{"lo": t_box[0], "hi": t_box[1], "label": "T"}, {"lo": f_box[0], "hi": f_box[1], "label": "F"}]
    return {"header": {"p": oracle.SIR_THRESHOLD}, "boxes": boxes}


def main() -> int:
    work = run.BENCH.relative_to(Path.cwd().resolve()) / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = DecayPipeline(1, work, None)
    dirs = []
    for i in range(2):
        out = work / f"job{i}"
        spec = work / f"job{i}.json"
        spec.write_text(json.dumps({"commands": workload.commands(out), "trace": False}), encoding="utf-8")
        _, result = run.child(["job", str(spec)])
        if any(result["codes"]):
            print(f"FAIL  decay job exited {result['codes']}: {result['log']}")
            return 1
        dirs.append(out)
    out = dirs[0]
    rng = np.random.default_rng(0)
    workload.check(out, rng, {})
    checks.identical_outputs(dirs)
    chain = oracle.SirChain()
    checks.sir_labels(sir_doc(SIR_T_BOX, SIR_F_BOX), chain, rng, MARGIN, {})
    print("ok    real outputs pass every check")

    load = lambda name: json.loads((out / name).read_text(encoding="utf-8"))
    partition = load("partition.json")
    ok = []

    flipped = copy.deepcopy(partition)
    box = next(b for b in flipped["boxes"] if b["label"] == "T")
    box["label"] = "F"
    ok.append(rejects("flipped decay label", checks.decay_labels, flipped, MARGIN))
    ok.append(rejects("flipped SIR label", checks.sir_labels, sir_doc(SIR_F_BOX, SIR_T_BOX), chain, rng, MARGIN, {}))

    gap = copy.deepcopy(partition)
    del gap["boxes"][len(gap["boxes"]) // 2]
    ok.append(rejects("gap in the tiling", checks.partition_structure, gap, out / "heatmap.csv", 32))

    lines = (out / "heatmap.csv").read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1][:-1] + ("F" if lines[-1].endswith("T") else "T")
    bad_heatmap = work / "heatmap.csv"
    bad_heatmap.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ok.append(rejects("flipped heatmap cell", checks.partition_structure, partition, bad_heatmap, 32))

    verdict = load("verdict.json")
    verdict["C"] += 0.1
    ok.append(rejects("shifted C", checks.verdict_integral, verdict, partition))

    (dirs[1] / "verdict.json").write_text(json.dumps(verdict), encoding="utf-8")
    ok.append(rejects("rerun that differs", checks.identical_outputs, dirs))

    lines = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
    t, a, b = lines[-1].split(",")
    lines[-1] = ",".join([t, repr(float(a) + 1), repr(float(b) - 1)])
    bad_dataset = work / "dataset.csv"
    bad_dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ok.append(rejects("species A rising", checks.dataset_invariants, bad_dataset, oracle.DECAY_N, "A", "B", 10))

    posterior = load("posterior.json")
    posterior["mu"]["k"] *= 1.01
    ok.append(rejects("posterior mean off", checks.posterior_matches, out / "particles.csv", posterior, {"k": 1.0}))

    baseline = load("baseline.json")
    entry = baseline["points"][0]
    entry["estimate"] = 0.0 if oracle.decay_until(entry["point"]["k"]) > 0.5 else 1.0
    entry["verdict"] = entry["estimate"] > 0.5
    ok.append(rejects("baseline estimate off", checks.baseline_binomial, baseline, lambda p: oracle.decay_until(p["k"]), 0.5))

    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
