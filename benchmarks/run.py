"""Layered benchmark for fftlasso.

    python3 benchmarks/run.py --workload masked-64 --seed 42 --seconds 30 --trace 0

Runs one workload as a closed loop (one client, one request in flight)
for ``--seconds`` seconds after set-up and one discarded warm-up
operation, checks every result, and prints each metric by name with its
unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations, times isolated kernels, runs one traced
operation in its own process with ``FFTLASSO_THREADS=1`` and reports the
per-layer metrics.  Details (environment, samples, counters, spans) go to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import workloads as wl
from tracing import Tracer, krylov_per_step, summarize

#: Set-up is repeated this many times per run and its median reported.
SETUP_SAMPLES = 5
#: Seconds spent timing the isolated kernels, taken in turns.
KERNEL_SECONDS = 1.0

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "fraction"}

_CALLS = ("fourier.synthesize", "fourier.analyze", "masking.gram", "masking.observe",
          "masking.observe_adjoint", "newton_system.apply_kkt", "newton_system.newton_rhs",
          "newton_system.barrier_diagonals", "pcg.pcg_solve", "ipm.check_convergence")
_SELF = ("fourier.synthesize", "fourier.analyze", "masking.gram", "newton_system.apply_kkt",
         "newton_system.apply_precond_inverse", "newton_system.newton_rhs",
         "newton_system.recover_eliminated", "pcg.pcg_solve", "ipm.check_convergence",
         "ipm.newton_direction", "ipm.ipm_step", "ipm.solve", "cli.main")
_TOTAL = ("dataio.read_volume", "dataio.read_mask", "dataio.write_volume")

PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"{name}.self_s": "s" for name in _SELF},
    **{f"{name}.s": "s" for name in _TOTAL},
    "fourier.pair_ms": "ms",
    "fourier.floor_ms": "ms",
    "fourier.pair_over_floor": "ratio",
    "fourier.pair_ms_1thread": "ms",
    "masking.gram_over_floor": "ratio",
    "pcg.krylov_iters": "count",
    "pcg.krylov_peak": "count",
    "ipm.iterations": "count",
    "ipm.unaccounted_frac": "fraction",
    "cli.import_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.self_sum_frac": "fraction",
}


def effective_threads() -> int:
    """FFT worker count the package uses: FFTLASSO_THREADS, else all CPUs."""
    cap = os.environ.get("FFTLASSO_THREADS")
    return max(1, int(cap)) if cap is not None else (os.cpu_count() or 1)


def git_commit() -> str:
    """Commit of the checkout, read from its .git directory if it has one."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "FFTLASSO_THREADS": os.environ.get("FFTLASSO_THREADS"),
        "fft_threads": effective_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def measure_setup(workload, seed, workdir):
    """Median over repeats of fresh-process import plus input generation."""
    totals, imports = [], []
    for _ in range(SETUP_SAMPLES):
        import_s = wl.fresh_import_seconds()
        start = time.perf_counter()
        problem = wl.make_problem(workload, seed, workdir)
        totals.append(import_s + time.perf_counter() - start)
        imports.append(import_s)
    return statistics.median(totals), statistics.median(imports), problem


def kernel_ms(problem) -> dict:
    """Isolated medians of one transform pair, the rfftn floor and gram.

    The kernels run in turns, so that their ratios compare timings taken
    under the same load.
    """
    import numpy as np
    import scipy.fft
    from fftlasso.fourier import analyze, synthesize
    from fftlasso.masking import gram

    shape = problem.mask.shape
    beta = np.random.default_rng(problem.seed).standard_normal(shape.n)
    grid = beta.reshape(shape.dims)
    workers = effective_threads()

    def floor():
        half = scipy.fft.rfftn(grid, norm="ortho", workers=workers)
        return scipy.fft.irfftn(half, s=shape.dims, norm="ortho", workers=workers)

    kernels = {
        "pair": lambda: analyze(synthesize(beta, shape), shape),
        "floor": floor,
        "gram": lambda: gram(beta, problem.mask),
    }
    samples = {name: [] for name in kernels}
    for fn in kernels.values():
        fn()
    deadline = time.perf_counter() + KERNEL_SECONDS
    while len(samples["pair"]) < 5 or time.perf_counter() < deadline:
        for name, fn in kernels.items():
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: 1e3 * statistics.median(times) for name, times in samples.items()}


def counters(spans) -> dict:
    """Deterministic per-operation counts derived from the spans."""
    summary = summarize(spans)
    steps = krylov_per_step(spans)
    return {
        "calls": {name: entry["calls"] for name, entry in sorted(summary.items())},
        "ipm_iterations": summary.get("fftlasso.ipm.ipm_step", {}).get("calls", 0),
        "krylov_per_step": steps,
    }


def layer_metrics(plain, traced, one_thread, kernels, import_s) -> dict:
    summaries = [summarize(o.spans) for o in traced]

    def med(values):
        return statistics.median(list(values))

    def span(summary, name, key):
        return summary.get(f"fftlasso.{name}", {}).get(key, 0.0)

    first = counters(traced[0].spans)
    values = {f"{name}.calls": first["calls"].get(f"fftlasso.{name}", 0) for name in _CALLS}
    values.update({f"{name}.self_s": med(span(s, name, "self_s") for s in summaries)
                   for name in _SELF})
    values.update({f"{name}.s": med(span(s, name, "total_s") for s in summaries)
                   for name in _TOTAL})

    single = summarize(one_thread.spans)
    pair_1thread = sum(span(single, name, "self_s") / max(1, span(single, name, "calls"))
                       for name in ("fourier.synthesize", "fourier.analyze"))
    traced_s = med(o.seconds for o in traced)
    values.update({
        "fourier.pair_ms": kernels["pair"],
        "fourier.floor_ms": kernels["floor"],
        "fourier.pair_over_floor": kernels["pair"] / kernels["floor"],
        "fourier.pair_ms_1thread": 1e3 * pair_1thread,
        "masking.gram_over_floor": kernels["gram"] / kernels["floor"],
        "pcg.krylov_iters": sum(first["krylov_per_step"]),
        "pcg.krylov_peak": max(first["krylov_per_step"], default=0),
        "ipm.iterations": first["ipm_iterations"],
        "ipm.unaccounted_frac": med(1.0 - o.records_wall_s / span(s, "ipm.solve", "total_s")
                                    if "fftlasso.ipm.solve" in s else 1.0
                                    for o, s in zip(traced, summaries)),
        "cli.import_s": import_s,
        "trace.solve_s": traced_s,
        "trace.overhead_frac": traced_s / med(o.seconds for o in plain) - 1.0,
        "trace.self_sum_frac": med(sum(e["self_s"] for e in s.values()) / o.seconds
                                   for o, s in zip(traced, summaries)),
    })
    return values


def run(name: str, seed: int, seconds: float, trace: bool, dims=None) -> dict:
    """Run one workload; returns the result object and the run's details."""
    wl.import_package()
    workload = wl.with_dims(name, dims)
    wl.OUT_DIR.mkdir(exist_ok=True)
    workdir = wl.OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s, import_s, problem = measure_setup(workload, seed, workdir)
        wl.run_operation(problem, workdir)  # warm-up, discarded
        plain, traced = [], []
        tracer = Tracer() if trace else None
        deadline = time.perf_counter() + seconds
        while not plain or (trace and not traced) or time.perf_counter() < deadline:
            if trace and len(traced) < len(plain):
                traced.append(wl.run_operation(problem, workdir, tracer))
            else:
                plain.append(wl.run_operation(problem, workdir))
        measured = plain + traced
        if trace:
            kernels = kernel_ms(problem)
            one_thread = wl.single_thread_operation(problem, workdir)
            measured.append(one_thread)
            baseline = counters(traced[0].spans)
            for outcome in traced:
                if counters(outcome.spans) != baseline:
                    outcome.failures.append("counters differ between identical operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in measured if o.failures)
    if trace:
        values = layer_metrics(plain, traced, one_thread, kernels, import_s)
        units = PER_LAYER_UNITS
    else:
        if workload.via_cli:
            peak_rss_mb = statistics.median(o.peak_rss_mb for o in plain)
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "solve_s": statistics.median(o.seconds for o in plain),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "pass_rate": (len(measured) - failed) / len(measured),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    details = {
        "workload": name,
        "dims": list(workload.dims),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "solve_s_samples": [o.seconds for o in plain],
        "failures": [f for o in measured for f in o.failures],
    }
    if trace:
        details["traced_solve_s_samples"] = [o.seconds for o in traced]
        details["counters"] = counters(traced[0].spans)
        details["counters_1thread"] = counters(one_thread.spans)
        details["kernels_ms"] = kernels
        details["spans"] = [o.spans for o in traced] + [one_thread.spans]
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, details = out["result"], out["details"]
    path = wl.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**details, "result": result}, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, dims {details['dims']}, "
          f"{result['attempted']} operations, {result['failed']} failed")
    print("env " + json.dumps(details["env"], sort_keys=True))
    if details.get("counters"):
        c = details["counters"]
        print(f"counters: {c['ipm_iterations']} IPM iterations, "
              f"Krylov per step {c['krylov_per_step']}")
    for failure in details["failures"]:
        print(f"FAILED: {failure}")
    for key, metric in result["metrics"].items():
        print(f"{key}: {metric['value']:.6g} {metric['unit']}")
    print(f"details: {path.relative_to(wl.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
