"""Fast self-test of the benchmark on tiny grids (8^3 and 16x16).

    python3 -m pytest benchmarks

Runs every workload's code path, traced and untraced, and checks that the
result matches BENCHMARK.json, that traced counters repeat exactly, and
that the correctness checks reject wrong answers.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads as wl

TINY = {"masked-64": (8, 8, 8), "denoise-64": (8, 8, 8), "cli-2d": (16, 16)}
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "KERNEL_SECONDS", 0.01)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS)
    for metric in SPEC["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    for metric in SPEC["per_layer"]:
        assert run.PER_LAYER_UNITS[metric["name"]] == metric["unit"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_untraced_run(name):
    result = run.run(name, 42, 0.0, False, TINY[name])["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert set(values) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in values.values())
    assert values["pass_rate"] == 1.0


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_counters_repeat(name):
    first, second = (run.run(name, 7, 0.0, True, TINY[name]) for _ in range(2))
    for out in (first, second):
        assert out["result"]["correct"]
        assert set(out["result"]["metrics"]) == set(run.PER_LAYER_UNITS)
    assert first["details"]["counters"] == second["details"]["counters"]
    assert first["details"]["counters"] == first["details"]["counters_1thread"]

    metrics = {key: m["value"] for key, m in first["result"]["metrics"].items()}
    counters = first["details"]["counters"]
    assert metrics["ipm.iterations"] == counters["ipm_iterations"] > 0
    assert metrics["pcg.krylov_iters"] == metrics["newton_system.apply_kkt.calls"]
    assert metrics["pcg.pcg_solve.calls"] == metrics["ipm.iterations"]
    assert metrics["fourier.pair_ms_1thread"] > 0
    # self times telescope: they add up to the spans' roots
    assert 0.5 < metrics["trace.self_sum_frac"] <= 1.0 + 1e-9
    if wl.WORKLOADS[name].via_cli:
        assert metrics["dataio.read_volume.s"] > 0 and metrics["cli.main.self_s"] > 0
    else:
        assert metrics["trace.self_sum_frac"] > 0.99


def test_checks_reject_wrong_answers(tmp_path):
    wl.import_package()
    import fftlasso

    for name in ("masked-64", "denoise-64"):
        problem = wl.make_problem(wl.with_dims(name, TINY[name]), 3, tmp_path)
        config = fftlasso.IpmConfig(tol=wl.SOLVE_TOL, cg_tol=wl.CG_TOL)
        beta, report = fftlasso.solve(problem.b, problem.mask, config)
        assert wl.check_solution(problem, beta, report.status, report.lam) == []
        assert wl.check_solution(problem, beta, "max_iters", report.lam)
        nudged = beta + 1e-4 * np.sign(beta + 0.5)
        assert wl.check_solution(problem, nudged, report.status, report.lam)

        loose = dataclasses.replace(config, tol=1e-3)
        beta, report = fftlasso.solve(problem.b, problem.mask, loose)
        assert wl.check_solution(problem, beta, report.status, report.lam)


def test_main_prints_result_last(monkeypatch, capsys):
    monkeypatch.setitem(wl.WORKLOADS, "masked-64", wl.with_dims("masked-64", (8, 8, 8)))
    assert run.main(["--workload", "masked-64", "--seed", "5", "--seconds", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["solve_s"]["unit"] == "s"


def test_fails_without_package_source(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "masked-64", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
