"""Smoke test: every demo script runs cleanly against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fftlasso

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    """Exit 0 with warnings as errors, nothing on stderr, and no temporary
    file left behind."""
    env = {**os.environ, "PYTHONPATH": str(Path(fftlasso.__file__).resolve().parents[1]),
           "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert list(tmp_path.iterdir()) == []
