"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The two full SIR pipeline runs (satisfying and violating ground truth) are
module-scoped fixtures; later criteria reuse their stage files instead of
recomputing them.  The criteria that use them are marked ``slow``;
``pytest -m "not slow"`` leaves them out for a fast loop.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from crnverify import (
    AbcConfig,
    Posterior,
    UniformizedChain,
    abcseq,
    bounded_until_prob,
    check_threshold,
    load_crn,
    load_partition,
    majority_verdict,
    observe,
    parse_csl,
    simulate,
    slice_sample,
    transient,
)
from crnverify.cli import cmd_baseline, main
from crnverify.config import load_config
from crnverify.rng import stream
from crnverify.synthesis import LABEL_SAT, LABEL_UNDECIDED, LABEL_VIOL
from crnverify.transient import evaluator_for

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


def _run_pipeline(config_name: str, out_dir: Path) -> dict:
    """Run the real CLI pipeline with the shipped config, paths made absolute."""
    doc = json.loads((REPO / "configs" / config_name).read_text())
    doc["model"] = str(REPO / "models" / Path(doc["model"]).name)
    config_path = out_dir / config_name
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path.write_text(json.dumps(doc))
    code = main(["pipeline", "--config", str(config_path), "--out-dir", str(out_dir)])
    assert code == 0, f"pipeline exited with {code}"
    return {
        "config_path": config_path,
        "out": out_dir,
        "run": json.loads((out_dir / "run.json").read_text()),
        "verdict": json.loads((out_dir / "verdict.json").read_text()),
        "posterior": json.loads((out_dir / "posterior.json").read_text()),
    }


@pytest.fixture(scope="module")
def phi_run(tmp_path_factory):
    return _run_pipeline("sir_phi_20obs_noiseless.json", tmp_path_factory.mktemp("phi"))


@pytest.fixture(scope="module")
def notphi_run(tmp_path_factory):
    return _run_pipeline("sir_notphi_20obs_noiseless.json", tmp_path_factory.mktemp("notphi"))


def test_criterion_1_transient_oracle_equivalence():
    with criterion(1, "uniformization matches the dense matrix-exponential oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(90125)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            R = rng.uniform(0.1, 5.0, size=(n, n))
            R[rng.random((n, n)) < 0.25] = 0.0
            np.fill_diagonal(R, 0.0)
            chain = UniformizedChain.from_rate_matrix(R)
            pi0 = rng.dirichlet(np.ones(n))
            Q = R - np.diag(R.sum(axis=1))
            for t in (0.1, 1.0, 10.0):
                got = transient(chain, pi0, t)
                want = pi0 @ expm(Q * t)
                assert np.max(np.abs(got - want)) < 1e-8
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_closed_forms():
    with criterion(2, "two-state closed forms at 1e-9"):
        R = np.array([[0.0, 1.0], [0.0, 0.0]])
        chain = UniformizedChain.from_rate_matrix(R)
        pi = transient(chain, np.array([1.0, 0.0]), 1.0, tol=1e-12)
        assert pi[1] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-9)

        single = (
            "format=1; species A B; param k in [0.1, 10];"
            "reaction decay: A -> B @ k; init A=1;"
        )
        from crnverify import parse_crn

        net = parse_crn(single)
        f = parse_csl("P>0.5 [ true U[1,2] (B=1) ]")
        got = bounded_until_prob(
            net, (1.0,), f.path.phi1, f.path.phi2, 1.0, 2.0, tol=1e-12
        )
        assert got == pytest.approx(1.0 - np.exp(-2.0), abs=1e-9)


def test_criterion_3_ground_truth_classification(sir, case_formula):
    with criterion(3, "exact engine separates the ground-truth parameter points"):
        t0 = time.perf_counter()
        assert check_threshold(sir, THETA_PHI, case_formula, tol=1e-8) is True
        assert check_threshold(sir, THETA_NOTPHI, case_formula, tol=1e-8) is False
        assert time.perf_counter() - t0 < 600.0


@pytest.mark.slow
def test_criterion_4_synthesis_partition_validity(sir, case_formula, phi_run):
    with criterion(4, "SIR partition: coverage, tolerance, labels, statistical audit"):
        partition = load_partition(phi_run["out"] / phi_run["run"]["stages"]["partition"])
        theta_vol = partition.theta_volume()

        box_vol = sum(float(np.prod(hi - lo)) for lo, hi in zip(partition.lo, partition.hi))
        assert box_vol == pytest.approx(theta_vol, rel=1e-9)
        assert partition.volume(LABEL_UNDECIDED) / theta_vol <= 0.1
        assert partition.status == "ok"

        from crnverify import classify_point

        assert classify_point(partition, THETA_PHI) == LABEL_SAT
        assert classify_point(partition, THETA_NOTPHI) == LABEL_VIOL

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
                run["out"] / run["run"]["stages"]["particles"], config, run["out"],
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
        res = abcseq(decay, data, AbcConfig(particles=200, rounds=5, seed=8))
        assert abs(res.weights.sum() - 1.0) <= 1e-12
        finite = [t for t in res.thresholds if np.isfinite(t)]
        assert all(a > b for a, b in zip(finite, finite[1:]))

        # prior recovery under a threshold pinned at infinity
        res = abcseq(decay, data,
                     AbcConfig(particles=400, rounds=3, seed=1, force_threshold=float("inf")))
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
        partition = load_partition(phi_run["out"] / phi_run["run"]["stages"]["partition"])
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
