"""Smoke test of the report fingerprint tool that byte-identity checks rest on."""

import os
import re
import subprocess
import sys
from pathlib import Path

import fftlasso

ROOT = Path(__file__).resolve().parents[1]

NAMES = [
    "cli-16/report", "cli-16/beta", "cli-16/stdout+exit",
    "cli-256x256/report", "cli-256x256/beta", "cli-256x256/imputed",
    "cli-256x256/stdout+exit",
    "lib-32/records", "lib-32/beta",
    "lib-32-denoise/records", "lib-32-denoise/beta",
    "lib-256x256-denoise/records", "lib-256x256-denoise/beta",
    "lib-40/records+beta",
    "probe-1d/records", "probe-1d/beta", "probe-1d/spectra", "probe-1d/scaling",
]


def test_report_fingerprint_lines():
    env = {**os.environ, "PYTHONPATH": str(Path(fftlasso.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "report_fingerprint.py")],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    matches = [re.fullmatch(r"[0-9a-f]{64}  (\S+)", line) for line in done.stdout.splitlines()]
    assert all(matches), done.stdout
    assert [m.group(1) for m in matches] == NAMES
