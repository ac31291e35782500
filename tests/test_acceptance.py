"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The two SIR runs (satisfying and violating ground truth) are module-scoped
fixtures: a full pipeline on the satisfying config, and the violating
config's data and inference integrated over that run's partition, which
both configs share.  Later criteria reuse their stage files instead of
recomputing them.  The criteria that use them are marked ``slow``;
``pytest -m "not slow"`` leaves them out for a fast loop.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse, stats
from scipy.linalg import expm

from crnverify import (
    ExperimentConfig,
    Posterior,
    abcseq,
    load_crn,
    load_partition,
    majority_verdict,
    observe,
    parse_csl,
    slice_sample,
)
from crnverify import abcsmc
from crnverify.cli import cmd_baseline, main
from crnverify.config import load_config
from crnverify.rng import stream
from crnverify.simulate import simulate
from crnverify.synthesis import LABEL_SAT, LABEL_UNDECIDED, LABEL_VIOL, classify_points
from crnverify.transient import _LanePattern, evaluator_for

REPO = Path(__file__).resolve().parents[1]

THETA_PHI = (0.002, 0.05)
THETA_NOTPHI = (0.002, 0.18)


@contextmanager
def criterion(number: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label} ({time.perf_counter() - t0:.1f} s)", flush=True)
        raise
    print(f"PASS criterion {number}: {label} ({time.perf_counter() - t0:.1f} s)", flush=True)


@pytest.fixture(scope="module")
def sir():
    return load_crn(REPO / "models" / "sir.crn")


@pytest.fixture(scope="module")
def case_formula():
    return parse_csl("P>0.1 [ (I>0) U[100,150] (I=0) ]")


def _write_config(config_name: str, out_dir: Path) -> Path:
    """The shipped config in ``out_dir``, its model path made absolute."""
    doc = json.loads((REPO / "configs" / config_name).read_text())
    doc["model"] = str(REPO / "models" / Path(doc["model"]).name)
    config_path = out_dir / config_name
    config_path.write_text(json.dumps(doc))
    return config_path


def _outputs(config_path: Path, out_dir: Path, partition: Path, particles: Path) -> dict:
    return {
        "config_path": config_path,
        "out": out_dir,
        "partition": partition,
        "particles": particles,
        "verdict": json.loads((out_dir / "verdict.json").read_text()),
        "posterior": json.loads((out_dir / "posterior.json").read_text()),
    }


@pytest.fixture(scope="module")
def phi_run(tmp_path_factory):
    """The real CLI pipeline on the satisfying config."""
    out = tmp_path_factory.mktemp("phi")
    config_path = _write_config("sir_phi_20obs_noiseless.json", out)
    code = main(["pipeline", "--config", str(config_path), "--out-dir", str(out)])
    assert code == 0, f"pipeline exited with {code}"
    stages = json.loads((out / "run.json").read_text())["stages"]
    return _outputs(config_path, out, out / stages["partition"], out / stages["particles"])


@pytest.fixture(scope="module")
def notphi_run(tmp_path_factory, phi_run):
    """The violating config's generate, infer and verify, against the
    satisfying run's partition: synthesis reads no data, so the two
    configs, which share every setting it reads, build the same one."""
    out = tmp_path_factory.mktemp("notphi")
    config_path = _write_config("sir_notphi_20obs_noiseless.json", out)
    shared = ["model", "property", *(f.name for f in fields(ExperimentConfig) if f.name.startswith("synth_"))]
    mine, phi = load_config(config_path), load_config(phi_run["config_path"])
    assert {k: getattr(mine, k) for k in shared} == {k: getattr(phi, k) for k in shared}
    config, particles = str(config_path), out / "particles.csv"
    assert main(["generate", "--config", config, "--out-dir", str(out)]) == 0
    assert main(["infer", "--config", config, "--dataset", str(out / "dataset.csv"), "--out-dir", str(out)]) == 0
    assert main(["verify", str(phi_run["partition"]), str(particles), "--config", config, "--out-dir", str(out)]) == 0
    return _outputs(config_path, out, phi_run["partition"], particles)


def test_criterion_1_transient_oracle_equivalence():
    with criterion(1, "uniformization matches the dense matrix-exponential oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(90125)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            R = rng.uniform(0.1, 5.0, size=(n, n))
            R[rng.random((n, n)) < 0.25] = 0.0
            np.fill_diagonal(R, 0.0)
            # the series every until evaluation runs, one lane with R as its
            # one basis matrix at theta = 1
            lanes = _LanePattern((sparse.csr_matrix(R),), n)
            v = rng.dirichlet(np.ones(n))
            Q = R - np.diag(R.sum(axis=1))
            for t in (0.1, 1.0, 10.0):
                got = lanes.series(np.ones((1, 1)), v[None, :], t, 1e-10)[0]
                want = expm(Q * t) @ v
                assert np.max(np.abs(got - want)) < 1e-8
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_closed_forms():
    with criterion(2, "two-state closed forms at 1e-9"):
        single = (
            "format=1; species A B; param k in [0.1, 10];"
            "reaction decay: A -> B @ k; init A=1;"
        )
        from crnverify import parse_crn

        net = parse_crn(single)
        got = evaluator_for(net, parse_csl("P>0.5 [ true U[0,1] (B=1) ]")).probability((1.0,), tol=1e-12)
        assert got == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)
        got = evaluator_for(net, parse_csl("P>0.5 [ true U[1,2] (B=1) ]")).probability((1.0,), tol=1e-12)
        assert got == pytest.approx(1.0 - np.exp(-2.0), abs=1e-9)


def test_criterion_3_ground_truth_classification(sir, case_formula):
    with criterion(3, "exact engine separates the ground-truth parameter points"):
        t0 = time.perf_counter()
        evaluator = evaluator_for(sir, case_formula)
        assert case_formula.compare(evaluator.probability(THETA_PHI, tol=1e-8)) is True
        assert case_formula.compare(evaluator.probability(THETA_NOTPHI, tol=1e-8)) is False
        assert time.perf_counter() - t0 < 600.0


@pytest.mark.slow
def test_criterion_4_synthesis_partition_validity(sir, case_formula, phi_run):
    with criterion(4, "SIR partition: coverage, tolerance, labels, statistical audit"):
        partition = load_partition(phi_run["partition"])
        theta_vol = partition.theta_volume()

        box_vol = sum(float(np.prod(hi - lo)) for lo, hi in zip(partition.lo, partition.hi))
        assert box_vol == pytest.approx(theta_vol, rel=1e-9)
        assert partition.volume(LABEL_UNDECIDED) / theta_vol <= 0.1
        assert partition.status == "ok"

        assert classify_points(partition, [THETA_PHI, THETA_NOTPHI]).tolist() == [LABEL_SAT, LABEL_VIOL]

        # statistical audit: 50 uniform points per decided label against the
        # exact engine; the margin scheme is heuristic, so agreement is the
        # honest measure rather than a proof
        evaluator = evaluator_for(sir, case_formula)
        rng = stream(424242, 4)
        agree = total = 0
        for label in (LABEL_SAT, LABEL_VIOL):
            boxes = list(zip(partition.lo[partition.labels == label], partition.hi[partition.labels == label]))
            vols = np.array([float(np.prod(box_hi - box_lo)) for box_lo, box_hi in boxes])
            pick = vols / vols.sum()
            for _ in range(50):
                box_lo, box_hi = boxes[int(rng.choice(len(boxes), p=pick))]
                point = tuple(
                    lo + (hi - lo) * rng.random() for lo, hi in zip(box_lo, box_hi)
                )
                value = evaluator.probability(point, tol=1e-8)
                holds = case_formula.compare(value)
                agree += int(holds == (label == LABEL_SAT))
                total += 1
        assert total == 100
        assert agree >= 96, f"audit agreement {agree}/100"


@pytest.mark.slow
def test_criterion_5_inference_accuracy(phi_run):
    with criterion(5, "pooled posterior mean lands in the published bands"):
        mu = phi_run["posterior"]["mu"]
        assert 0.001 <= mu["ki"] <= 0.003, mu
        assert 0.03 <= mu["kr"] <= 0.07, mu
        assert phi_run["posterior"]["particles"] == 500
        assert phi_run["posterior"]["batches"] == 5


@pytest.mark.slow
def test_criterion_6_end_to_end_verdicts(phi_run, notphi_run):
    with criterion(6, "pipeline verdict bands: C >= 0.9 satisfying, C <= 0.1 violating"):
        assert phi_run["verdict"]["C"] >= 0.9, phi_run["verdict"]
        assert notphi_run["verdict"]["C"] <= 0.1, notphi_run["verdict"]


@pytest.mark.slow
def test_criterion_7_baseline_agreement(phi_run, notphi_run):
    with criterion(7, "Bayesian SMC majority verdict agrees with the integral"):
        for run, config_name in (
            (phi_run, "sir_phi_20obs_noiseless.json"),
            (notphi_run, "sir_notphi_20obs_noiseless.json"),
        ):
            config = load_config(run["config_path"])
            baseline_path = cmd_baseline(
                run["particles"], config, run["out"],
                n_params=50, n_sims=200,
            )
            doc = json.loads(baseline_path.read_text())
            assert doc["majority_verdict"] == (run["verdict"]["C"] > 0.5)


@pytest.mark.slow
def test_criterion_8_property_suites(sir, case_formula, phi_run):
    with criterion(8, "module invariants: weights, thresholds, conservation, partitions, sampler"):
        t0 = time.perf_counter()
        from crnverify import parse_crn

        decay = parse_crn(
            "format=1; species A B; param k in [0.1, 10];"
            "reaction decay: A -> B @ k; init A=50; conserve 50;"
        )
        traj = simulate(decay, (1.0,), 10.0, stream(100, 0))
        data = observe(traj, np.linspace(0.5, 10.0, 20), 0.0, stream(100, 1),
                       species=decay.species_names())

        # ABC weight normalization and strictly decreasing thresholds
        (res,) = abcseq(decay, data, ExperimentConfig(seed=8, abc_particles=200, abc_rounds=5))
        assert abs(res.weights.sum() - 1.0) <= 1e-12
        finite = [t for t in res.thresholds if np.isfinite(t)]
        assert all(a > b for a, b in zip(finite, finite[1:]))

        # prior recovery under a threshold pinned at infinity
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(abcsmc, "adaptive_threshold", lambda distances: float("inf"))
            (res,) = abcseq(decay, data, ExperimentConfig(seed=1, abc_particles=400, abc_rounds=3))
        rng = stream(1, 99)
        pts = res.points[:, 0]
        resampled = pts[rng.choice(len(pts), size=400, p=res.weights)]
        ks = stats.ks_2samp(resampled, 0.1 + 9.9 * rng.random(400))
        assert ks.pvalue > 0.01

        # SSA conservation and per-event stoichiometry on the SIR network
        path = simulate(sir, THETA_PHI, 150.0, stream(55, 0))
        assert np.all(path.states.sum(axis=1) == 100)
        steps = {tuple(s) for s in np.diff(path.states, axis=0).tolist()}
        assert steps <= {(-1, 1, 0), (0, -1, 1)}

        # partition disjoint cover on the synthesized SIR partition
        partition = load_partition(phi_run["partition"])
        boxes = list(zip(partition.lo, partition.hi))
        rng2 = np.random.default_rng(2)
        idx = rng2.choice(len(boxes), size=min(400, len(boxes)), replace=False)
        for ii, i in enumerate(idx):
            for j in idx[ii + 1:]:
                (a_lo, a_hi), (b_lo, b_hi) = boxes[i], boxes[j]
                assert not all(
                    min(a_hi[d], b_hi[d]) > max(a_lo[d], b_lo[d]) for d in range(2)
                )

        # slice-sampler moment checks against its target
        post = Posterior(names=("ki", "kr"), mean=np.array([0.002, 0.05]),
                         variance=np.array([1e-8, 4e-6]))
        draws = slice_sample(post, 10000, 2.0, stream(3, 7))
        assert np.allclose(draws.mean(axis=0), post.mean, atol=3 * 3 * post.std() / 100)
        assert np.all(np.abs(np.var(draws, axis=0) - post.variance) <= 0.1 * post.variance)

        assert time.perf_counter() - t0 < 900.0


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "every CLI command is byte-identical under a repeated seed"):
        doc = json.loads((REPO / "configs" / "smoke.json").read_text())
        doc["model"] = str(REPO / "models" / "decay.crn")
        config_path = tmp_path / "smoke.json"
        config_path.write_text(json.dumps(doc))

        def run_all(out: Path):
            out.mkdir()
            c = str(config_path)
            assert main(["generate", "--config", c, "--out-dir", str(out)]) == 0
            assert main(["synth", "--config", c, "--out-dir", str(out)]) == 0
            assert main(["infer", "--config", c, "--dataset", str(out / "dataset.csv"),
                         "--out-dir", str(out)]) == 0
            assert main(["verify", str(out / "partition.json"), str(out / "particles.csv"),
                         "--seed", "20240901", "--samples", "2000", "--out-dir", str(out)]) == 0
            assert main(["baseline", str(out / "particles.csv"), "--config", c,
                         "--out-dir", str(out), "--n-params", "5", "--n-sims", "40"]) == 0
            assert main(["pipeline", "--config", c, "--out-dir", str(out / "pipe")]) == 0

        run_all(tmp_path / "a")
        run_all(tmp_path / "b")
        compared = 0
        for fa in sorted((tmp_path / "a").rglob("*")):
            if fa.is_dir():
                continue
            fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
            assert fb.exists(), fb
            assert fa.read_bytes() == fb.read_bytes(), f"outputs differ: {fa.name}"
            compared += 1
        assert compared >= 8
