"""Workloads of the fftlasso benchmark: inputs, operations and checks.

The package is imported from the ``src`` directory of the checkout this
file sits in, never from an installed copy.  Every operation is checked
independently of the solver's own convergence test.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Relative duality gap an accepted solution must reach.  Solves at
#: ``tol=1e-8`` land near 1e-11; an early stop at a looser KKT tolerance
#: shows up orders of magnitude higher.
GAP_TOL = 1e-8
#: Max deviation from the soft-threshold closed form on an empty mask
#: (measured 1.5e-10 at 64^3).
SOFT_TOL = 1e-7
SOLVE_TOL = 1e-8
CG_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    missing_fraction: float
    via_cli: bool
    closed_form: bool = False  # empty mask: beta = soft(analyze(b), lam)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("masked-64", (64, 64, 64), 0.15, via_cli=False),
        Workload("denoise-64", (64, 64, 64), 0.0, via_cli=False, closed_form=True),
        Workload("cli-2d", (256, 256), 0.30, via_cli=True),
    )
}


def import_package():
    """Import fftlasso from this checkout's ``src``; fail if it is absent."""
    if not (SRC / "fftlasso" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fftlasso package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fftlasso

    if Path(fftlasso.__file__).resolve().parent != SRC / "fftlasso":
        raise SystemExit(f"benchmark: imported fftlasso from {fftlasso.__file__}")
    return fftlasso


def child_env(threads: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["FFTLASSO_THREADS"] = str(threads)
    return env


@dataclass
class Problem:
    workload: Workload
    seed: int
    mask: object
    b: object  # observed samples
    signal_path: Path | None = None
    mask_path: Path | None = None


def make_problem(workload: Workload, seed: int, workdir: Path) -> Problem:
    """Generate the workload's inputs from the seed; write them for the CLI."""
    import fftlasso as fl

    spec = fl.SyntheticSpec(
        dims=workload.dims,
        noise_seed=seed,
        missing_fraction=workload.missing_fraction,
        missing_seed=seed + 1,
    )
    noisy, mask, _ = fl.generate_synthetic(spec)
    problem = Problem(workload, seed, mask, noisy[~mask.missing_bool])
    if workload.via_cli:
        from fftlasso.dataio import write_mask, write_volume

        problem.signal_path = workdir / "signal.f64"
        problem.mask_path = workdir / "mask.bytes"
        write_volume(str(problem.signal_path), noisy, workload.dims)
        write_mask(str(problem.mask_path), mask, fmt="bytemask")
    return problem


def with_dims(name: str, dims: tuple[int, ...] | None) -> Workload:
    workload = WORKLOADS[name]
    return workload if dims is None else replace(workload, dims=tuple(dims))


# -- checks -----------------------------------------------------------------

def duality_gap(beta, b, mask, lam: float) -> float:
    """Relative LASSO duality gap of ``beta`` with a scaled-residual dual point.

    ``u = r * min(1, lam / ||A'r||_inf)`` is dual feasible, so
    ``P(beta) - D(u) >= 0`` bounds the distance to the optimal objective.
    """
    import numpy as np
    from fftlasso.masking import observe, observe_adjoint

    resid = b - observe(beta, mask)
    corr = float(np.max(np.abs(observe_adjoint(resid, mask))))
    u = resid * min(1.0, lam / corr) if corr > 0 else resid
    primal = 0.5 * float(resid @ resid) + lam * float(np.sum(np.abs(beta)))
    dual = float(b @ u) - 0.5 * float(u @ u)
    return (primal - dual) / max(1.0, abs(primal))


def check_solution(problem: Problem, beta, status: str, lam: float) -> list[str]:
    """Failures of one solve; an empty list means it passed."""
    import numpy as np
    from fftlasso.diagnostics import soft_threshold
    from fftlasso.fourier import analyze

    failures = []
    if status != "converged":
        failures.append(f"status {status}")
    gap = duality_gap(beta, problem.b, problem.mask, lam)
    if not gap <= GAP_TOL:
        failures.append(f"duality gap {gap:.3e} > {GAP_TOL:.0e}")
    if problem.workload.closed_form:
        exact = soft_threshold(analyze(problem.b, problem.mask.shape), lam)
        err = float(np.max(np.abs(beta - exact)))
        if not err <= SOFT_TOL:
            failures.append(f"soft-threshold deviation {err:.3e} > {SOFT_TOL:.0e}")
    return failures


# -- operations -------------------------------------------------------------

@dataclass
class Outcome:
    seconds: float
    failures: list[str]
    records_wall_s: float  # sum of the report's per-iteration wall times
    spans: list | None = None
    peak_rss_mb: float | None = None  # of the solve process, when a child


def solve_in_process(problem: Problem, tracer=None) -> Outcome:
    """One library solve, warm, in this process."""
    import fftlasso

    config = fftlasso.IpmConfig(tol=SOLVE_TOL, cg_tol=CG_TOL)
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            beta, report = fftlasso.solve(problem.b, problem.mask, config)
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = time.perf_counter() - start
            failure = f"solve raised {type(exc).__name__}: {exc}"
            return Outcome(seconds, [failure], 0.0, tracer.take() if tracer else None)
        seconds = time.perf_counter() - start
    return Outcome(
        seconds,
        check_solution(problem, beta, report.status, report.lam),
        sum(rec.wall_time for rec in report.records),
        tracer.take() if tracer else None,
    )


def solve_cli(problem: Problem, workdir: Path, traced: bool = False,
              threads: int | None = None) -> Outcome:
    """One ``fftlasso solve`` request in a fresh process, timed start to exit."""
    import numpy as np
    from fftlasso.dataio import read_volume
    from fftlasso.fourier import synthesize

    out, impute, report = (workdir / name for name in ("beta.f64", "impute.f64", "report.jsonl"))
    spans_path = workdir / "spans.json"
    argv = ["solve", "--input", str(problem.signal_path), "--mask", str(problem.mask_path),
            "--output", str(out), "--impute", str(impute), "--report", str(report)]
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "fftlasso.cli", *argv]
    spans_path.unlink(missing_ok=True)
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(threads), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    spans = json.loads(spans_path.read_text())["spans"] if spans_path.exists() else None
    if proc.returncode != 0:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-300:]
        failure = f"exit code {proc.returncode}: {tail}"
        return Outcome(seconds, [failure], 0.0, (spans or []) if traced else None, peak_rss_mb)
    with open(report, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    summary = records[-1]
    beta, dims = read_volume(str(out))
    failures = [] if tuple(dims) == problem.workload.dims else [f"output dims {dims}"]
    failures += check_solution(problem, beta, summary["status"], summary["lambda"])
    imputed, _ = read_volume(str(impute))
    err = float(np.max(np.abs(imputed - synthesize(beta, problem.mask.shape))))
    if not err <= 1e-12 * max(1.0, float(np.max(np.abs(imputed)))):
        failures.append(f"imputed volume deviates by {err:.3e}")
    records_wall = sum(r["wall_time"] for r in records if r["record"] == "iteration")
    return Outcome(seconds, failures, records_wall, spans, peak_rss_mb)


def run_operation(problem: Problem, workdir: Path, tracer=None) -> Outcome:
    if problem.workload.via_cli:
        return solve_cli(problem, workdir, traced=tracer is not None)
    return solve_in_process(problem, tracer)


def single_thread_operation(problem: Problem, workdir: Path) -> Outcome:
    """One traced operation in its own process with ``FFTLASSO_THREADS=1``."""
    if problem.workload.via_cli:
        return solve_cli(problem, workdir, traced=True, threads=1)
    spans_path = workdir / "spans-1thread.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "solve", str(spans_path),
           problem.workload.name, str(problem.seed), ",".join(map(str, problem.workload.dims))]
    subprocess.run(cmd, check=True, env=child_env(threads=1), cwd=ROOT,
                   stdout=subprocess.DEVNULL)
    data = json.loads(spans_path.read_text())
    return Outcome(data["seconds"], data["failures"], data["records_wall_s"], data["spans"])


def fresh_import_seconds() -> float:
    """Seconds to import the package and its CLI in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "import"],
                          check=True, env=child_env(), cwd=ROOT,
                          capture_output=True, text=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
