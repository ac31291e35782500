"""Every demo runs to completion from a scratch copy of the repository."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (REPO / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    # demos write their outputs relative to the working directory
    root = tmp_path_factory.mktemp("demos")
    for name in ("demos", "models", "configs"):
        shutil.copytree(REPO / name, root / name)
    return root


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(checkout, demo):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, str(Path("demos") / demo)],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
