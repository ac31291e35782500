"""Checks on crnverify's output files.

Every check reads the files the CLI wrote and compares them with a
computation made here (``oracle``) or with a property the method must
have; none compares against a stored copy of earlier output.  A failed
check raises ``CheckFailed``.
"""

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.stats import binom

import oracle

# Allowance for C against the exact integral, in naive binomial standard
# errors sqrt(c(1-c)/n).  Slice-sampler draws are autocorrelated, so the
# naive error can understate the real one; over 520 verify runs on the
# benchmark's posteriors the deviation had a standard deviation of 1.0 to
# 1.2 naive errors and never exceeded 4.3 (README).
C_ALLOWANCE_SE = 6.0
# Two-sided tail probability below which a baseline estimate is rejected.
BASELINE_ALPHA = 1e-6
# How many posterior standard deviations the true point may lie from the mean.
POSTERIOR_SD = 4.0
# Oracle and program agree to about 1e-8; margins are checked up to this.
MARGIN_SLACK = 1e-6


class CheckFailed(Exception):
    pass


def require(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def boxes(doc):
    lo = np.array([b["lo"] for b in doc["boxes"]], dtype=float)
    hi = np.array([b["hi"] for b in doc["boxes"]], dtype=float)
    return lo, hi, np.array([b["label"] for b in doc["boxes"]])


def partition_structure(doc, heatmap_path: Path, resolution: int):
    """Boxes tile theta, an ``ok`` status keeps U within the tolerance, and
    every heatmap cell carries the label of a box that contains it."""
    h = doc["header"]
    lo, hi, labels = boxes(doc)
    tlo, thi = np.array(h["theta_lo"]), np.array(h["theta_hi"])
    total = float(np.prod(thi - tlo))
    require(len(labels) > 0, "partition has no boxes")
    require(set(labels) <= {"T", "F", "U"}, f"unknown labels {set(labels)}")
    require(np.all(lo < hi), "a box has lo >= hi")
    require(np.all(lo >= tlo) and np.all(hi <= thi), "a box leaves theta")
    vol = np.prod(hi - lo, axis=1)
    require(abs(vol.sum() - total) <= 1e-9 * total, f"boxes cover {float(vol.sum() / total)!r} of theta")
    side = np.minimum(hi[:, None], hi[None]) - np.maximum(lo[:, None], lo[None])
    inter = np.prod(np.clip(side, 0.0, None), axis=2)
    np.fill_diagonal(inter, 0.0)
    require(inter.max() <= 1e-12 * total, "boxes overlap")
    require(h["status"] == "ok", f"synthesis status {h['status']!r}")
    undecided = vol[labels == "U"].sum() / total
    require(undecided <= h["tolerance"] * (1 + 1e-12), f"undecided {undecided} above tolerance")

    lines = heatmap_path.read_text(encoding="utf-8").splitlines()
    require(lines[0] == "# format=1", "heatmap lacks its format line")
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    require(len(rows) == resolution ** lo.shape[1], f"heatmap has {len(rows)} cells")
    cells = np.array([[float(v) for v in r[:-1]] for r in rows])
    cell_labels = np.array([r[-1] for r in rows])
    inside = np.all((lo[None] <= cells[:, None]) & (cells[:, None] <= hi[None]), axis=2)
    match = (inside & (labels[None] == cell_labels[:, None])).any(axis=1)
    require(match.all(), f"heatmap cell {cells[np.argmin(match)].tolist()} disagrees with its box")


def lattice(lo, hi):
    axes = [(a, (a + b) / 2.0, b) for a, b in zip(lo, hi)]
    return [tuple(p) for p in np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(lo), -1).T]


def _clears(label, value, threshold, margin):
    gap = value - threshold if label == "T" else threshold - value
    return gap >= margin - MARGIN_SLACK


def sir_labels(doc, chain, rng, margin: float, values: dict):
    """At the 3^k lattice of one seeded T box and one F box, the oracle's
    until probability clears the threshold on the label's side by the margin.
    ``values`` caches oracle results by point."""
    require(doc["header"]["p"] == oracle.SIR_THRESHOLD, "unexpected threshold")
    lo, hi, labels = boxes(doc)
    for label in ("T", "F"):
        picks = np.nonzero(labels == label)[0]
        require(picks.size > 0, f"no {label} box")
        i = int(rng.choice(picks))
        for point in lattice(lo[i], hi[i]):
            key = ",".join(map(repr, point))
            if key not in values:
                values[key] = chain.until(point)
            v = values[key]
            require(
                _clears(label, v, oracle.SIR_THRESHOLD, margin),
                f"{label} box {lo[i].tolist()}-{hi[i].tolist()}: P={v!r} at {list(map(float, point))}",
            )


def decay_interval():
    """The rates k at which the decay property holds, from the closed form."""
    f = lambda k: oracle.decay_until(k) - oracle.DECAY_THRESHOLD
    return brentq(f, 0.1, 1.0, xtol=1e-12), brentq(f, 1.0, 10.0, xtol=1e-12)


def decay_labels(doc, margin: float):
    """Lattice values clear the threshold by the margin, T boxes lie inside
    the true interval and F boxes outside it, and the T length is at most
    the interval's length, which is at most the T+U length."""
    k_lo, k_hi = decay_interval()
    lo, hi, labels = boxes(doc)
    length = {lab: float((hi - lo)[labels == lab].sum()) for lab in "TFU"}
    for a, b, label in zip(lo[:, 0], hi[:, 0], labels):
        if label == "U":
            continue
        for k in (a, (a + b) / 2.0, b):
            v = oracle.decay_until(k)
            require(_clears(label, v, oracle.DECAY_THRESHOLD, margin), f"{label} box [{a}, {b}]: P={v!r} at k={float(k)}")
        if label == "T":
            require(k_lo <= a and b <= k_hi, f"T box [{a}, {b}] leaves [{k_lo}, {k_hi}]")
        else:
            require(b <= k_lo or a >= k_hi, f"F box [{a}, {b}] meets [{k_lo}, {k_hi}]")
    true_length = k_hi - k_lo
    require(
        length["T"] <= true_length <= length["T"] + length["U"],
        f"T length {length['T']}, true {true_length}, T+U {length['T'] + length['U']}",
    )


def verdict_integral(verdict, doc):
    """C agrees with the posterior mass of the T boxes, and the four masses
    sum to one."""
    post = verdict["posterior"]
    names = doc["header"]["params"]
    mu = [post["mu"][n] for n in names]
    sigma = [post["sigma"][n] for n in names]
    lo, hi, labels = boxes(doc)
    exact = sum(oracle.box_mass(a, b, mu, sigma) for a, b, lab in zip(lo, hi, labels) if lab == "T")
    n = verdict["n_samples"]
    se = math.sqrt(max(exact * (1.0 - exact), 1.0 / n) / n)
    c = verdict["C"]
    require(abs(c - exact) <= C_ALLOWANCE_SE * se, f"C={c!r} but the integral is {exact!r} (se {se:.3g})")
    masses = sum(verdict[k] for k in ("mass_T", "mass_F", "mass_U", "mass_outside"))
    require(abs(masses - 1.0) <= 1e-9, f"masses sum to {masses!r}")
    return exact


def read_particles(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines[0] == "# format=1", "particle file lacks its format line")
    meta = json.loads(lines[1][len("# meta="):])
    header = lines[2].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[3:] if line])
    return meta, header[3:-1], rows


def posterior_matches(particles_path: Path, posterior, truth: dict):
    """posterior.json holds the weighted mean and variance of the pooled
    particles, and the true point lies within a few posterior SDs."""
    meta, names, rows = read_particles(particles_path)
    w = rows[:, 2] / meta["batches"]
    w = w / w.sum()
    x = rows[:, 3:3 + len(names)]
    mean = w @ x
    sd = np.sqrt(w @ (x - mean) ** 2)
    for i, name in enumerate(names):
        for key, want in (("mu", mean[i]), ("sigma", sd[i])):
            got = posterior[key][name]
            require(abs(got - want) <= 1e-9 * abs(want), f"posterior {key}[{name}]={got!r}, particles give {float(want)!r}")
        dist = abs(truth[name] - mean[i]) / sd[i]
        require(dist <= POSTERIOR_SD, f"true {name} lies {dist:.1f} posterior SDs from the mean")
    return meta


def same_posterior(verdict, posterior):
    """``verify`` and ``infer`` fit the same posterior to the same particles."""
    for key in ("mu", "sigma"):
        require(verdict["posterior"][key] == posterior[key], f"verdict posterior {key} differs from posterior.json")


def baseline_binomial(doc, prob, threshold: float):
    """Each drawn point's estimate is a plausible Binomial(n_sims, p) count,
    with p computed apart from the program, and its verdict matches it."""
    n = doc["n_sims"]
    require(len(doc["points"]) == doc["n_params"], "baseline point count")
    for entry in doc["points"]:
        p = prob(entry["point"])
        x = round(entry["estimate"] * n)
        require(abs(x - entry["estimate"] * n) < 1e-6, "estimate is not a count over n_sims")
        tail = min(binom.cdf(x, n, p), binom.sf(x - 1, n, p))
        require(tail >= BASELINE_ALPHA / 2, f"estimate {entry['estimate']} at {entry['point']}, exact {p!r}")
        require(entry["verdict"] == (entry["estimate"] > threshold), "baseline verdict disagrees with its estimate")


def dataset_invariants(path: Path, total: int, falling: str, rising: str, rows: int):
    """Counts are whole, conserved, the falling species never rises and
    the rising one never falls."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    require(len(data) == rows, f"dataset has {len(data)} rows")
    counts = data[:, 1:]
    require(np.all(counts == np.round(counts)) and np.all(counts >= 0), "counts are not whole and nonnegative")
    require(np.all(counts.sum(axis=1) == total), f"counts do not sum to {total}")
    col = {name: data[:, i] for i, name in enumerate(header)}
    require(np.all(np.diff(col[falling]) <= 0), f"{falling} rises")
    require(np.all(np.diff(col[rising]) >= 0), f"{rising} falls")


def identical_outputs(dirs: list[Path]):
    """Every job of a run wrote the same files, byte for byte."""
    def files(d):
        return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}

    first = files(dirs[0])
    require(first, f"{dirs[0]} holds no files")
    for d in dirs[1:]:
        other = files(d)
        require(other.keys() == first.keys(), f"{d} wrote other files than {dirs[0]}")
        for name, data in first.items():
            require(other[name] == data, f"{d / name} differs from the first job's")
