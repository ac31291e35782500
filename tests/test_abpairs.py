"""The A/B pair harness's summary arithmetic, on canned result lines, and
its export of both sides, on a throwaway git repository (the harness
itself runs the benchmark, which this test never does)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("abpairs", Path(__file__).resolve().parents[1] / "tools" / "abpairs.py")
abpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abpairs)


def line(job_s, rss, correct=True, failed=0):
    return json.loads(json.dumps({
        "correct": correct, "attempted": 3, "failed": failed,
        "metrics": {"job_s": {"value": job_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }))


BETTER = {"job_s": "lower", "peak_rss_mb": "lower"}


def test_quartiles_interpolate_between_order_statistics():
    assert abpairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert abpairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_summary_of_pairs():
    pairs = [
        (line(1.0, 100.0), line(0.5, 100.0)),
        (line(0.9, 100.0), line(0.6, 101.0)),
        (line(1.1, 100.0), line(1.2, 99.0, correct=False, failed=1)),
        (line(1.2, 100.0), line(0.7, 100.0)),
    ]
    got = abpairs.summarize(pairs, BETTER)
    assert got["pairs"] == 4 and got["correct"] == 3
    assert got["failed"] == {"base": 0, "change": 1}
    job = got["metrics"]["job_s"]
    assert job["base"] == pytest.approx({"median": 1.05, "q1": 0.975, "q3": 1.125})
    assert job["change"] == pytest.approx({"median": 0.65, "q1": 0.575, "q3": 0.825})
    assert job["wins"] == 3
    assert job["median_change"] == pytest.approx(0.65 / 1.05 - 1.0)
    # a tie is not a win; one pair of four is better
    assert got["metrics"]["peak_rss_mb"]["wins"] == 1
    # 3 wins, 1 loss: P(X >= 3), X ~ Bin(4, 1/2) = 5/16
    assert job["sign_p"] == 5 / 16
    # 1 win, 1 loss, 2 ties dropped: P(X >= 1), X ~ Bin(2, 1/2) = 3/4
    assert got["metrics"]["peak_rss_mb"]["sign_p"] == 3 / 4


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 1 / 1024),
    (9, 1, 11 / 1024),
    (8, 2, 56 / 1024),
    (5, 5, 638 / 1024),
    (0, 10, 1.0),
    (0, 0, 1.0),  # every pair tied: no evidence either way
])
def test_sign_test_p_values(wins, losses, p):
    assert abpairs.sign_test(wins, losses) == p


def test_higher_is_better_counts_the_other_way():
    pairs = [(line(1.0, 1.0), line(2.0, 1.0)), (line(1.0, 1.0), line(0.5, 1.0))]
    assert abpairs.summarize(pairs, {"job_s": "higher"})["metrics"]["job_s"]["wins"] == 1


def _pairs(base, change):
    return [(line(b, 100.0), line(c, 100.0)) for b, c in zip(base, change)]


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # quartiles 0.9825-1.0175


@pytest.mark.parametrize("change, gain", [
    ([b - 0.1 for b in BASE], True),  # 10 of 10 wins, median 0.1 below: past the 0.035 IQR
    ([b - 0.1 for b in BASE[:9]] + [1.5], True),  # 9 of 10 wins
    ([b - 0.1 for b in BASE[:8]] + [1.5, 1.5], False),  # 8 of 10 wins
    ([b - 0.01 for b in BASE], False),  # 10 wins, but the medians differ by less than the IQR
])
def test_gain_needs_nine_of_ten_wins_and_a_median_past_the_iqr(change, gain):
    got = abpairs.summarize(_pairs(BASE, change), {"job_s": "lower"})["metrics"]["job_s"]
    assert got["gain"] is gain
    # without a bound there is no regression verdict
    assert got["regression"] is None


@pytest.mark.parametrize("factor, regression", [(1.30, True), (1.20, False), (0.70, False)])
def test_regression_is_a_median_worse_by_more_than_the_bound(factor, regression):
    got = abpairs.summarize(_pairs(BASE, [b * factor for b in BASE]), {"job_s": "lower"}, {"job_s": 0.25})
    assert got["metrics"]["job_s"]["regression"] is regression


def test_higher_is_better_verdicts():
    # a rate that fell by 30% regresses; one that rose by 30% gains
    fell = abpairs.summarize(_pairs(BASE, [b * 0.7 for b in BASE]), {"job_s": "higher"}, {"job_s": 0.25})
    rose = abpairs.summarize(_pairs(BASE, [b * 1.3 for b in BASE]), {"job_s": "higher"}, {"job_s": 0.25})
    assert (fell["metrics"]["job_s"]["gain"], fell["metrics"]["job_s"]["regression"]) == (False, True)
    assert (rose["metrics"]["job_s"]["gain"], rose["metrics"]["job_s"]["regression"]) == (True, False)


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args], cwd=repo, check=True,
                   capture_output=True)


def test_both_sides_are_exported_copies(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "pkg" / "edited.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    (repo / ".gitignore").write_text("/out/\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "pkg" / "edited.py").write_text("uncommitted edit\n")
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "gone.py").unlink()
    (repo / "out").mkdir()
    (repo / "out" / "result.json").write_text("ignored\n")

    def files(tree):
        return {str(p.relative_to(tree)): p.read_text() for p in tree.rglob("*") if p.is_file()}

    base = abpairs.export("HEAD", tmp_path / "base", repo)
    change = abpairs.snapshot(tmp_path / "change", repo)
    assert files(base) == {
        ".gitignore": "/out/\n", "gone.py": "committed\n",
        "pkg/kept.py": "committed\n", "pkg/edited.py": "committed\n",
    }
    assert files(change) == {
        ".gitignore": "/out/\n", "pkg/kept.py": "committed\n",
        "pkg/edited.py": "uncommitted edit\n", "pkg/new.py": "untracked\n",
    }
    # the working tree itself is untouched
    assert (repo / "out" / "result.json").exists() and not (repo / "gone.py").exists()
