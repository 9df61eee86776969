#!/usr/bin/env python3
"""Paired timing of two checkouts on one benchmark workload.

    python tools/ab.py --parent DIR --change DIR --workload denoise-64 --pairs 10

Each run is a fresh process that generates the workload's inputs with the
workload code of its own checkout (``benchmarks/workloads.py``), makes one
discarded warm-up operation and then ``--solves`` timed ones, each checked
as the benchmark checks it; the run's time is their median.  A pair is one
run of each side, and the side that runs first alternates from pair to
pair.  Both checkouts are reached through links of the same length in a
temporary directory, ``parent`` and ``change``, so that the two processes
see paths, and so module and file names, of equal length.

Every run is printed with its IPM and Krylov counts, then each side's
median and quartiles over its runs and the pairs each side won; a tie
counts for neither.  A last line gives the verdict of the claim rule, by
which a change may claim a gain in ``solve_s``: it won at least 9 in 10
of all pairs, and its median is below the parent's by more than the
parent's interquartile range.  The exit status is 1 when an operation
failed its check, and with ``--same-iterates`` also when the two sides'
counts or recovered spectra (hashed bytes) differ.  ``--dims`` replaces the
workload's grid, for quick checks of the tool itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")  # link names of equal length
WORKLOADS = ("masked-64", "denoise-64", "cli-2d")


def _operation(wl, problem, workdir: Path) -> dict:
    """One checked operation of the workload; its time, failures, counts and β hash."""
    import fftlasso
    from fftlasso.dataio import read_volume

    if problem.workload.via_cli:
        outcome = wl.solve_cli(problem, workdir)
        with open(workdir / "report.jsonl", encoding="utf-8") as fh:
            summary = json.loads(fh.read().splitlines()[-1])
        beta = read_volume(str(workdir / "beta.f64"))[0]
        seconds, failures = outcome.seconds, outcome.failures
        ipm, krylov = summary["iterations"], summary["total_krylov"]
    else:
        config = fftlasso.IpmConfig(tol=wl.SOLVE_TOL, cg_tol=wl.CG_TOL)
        start = time.perf_counter()
        beta, report = fftlasso.solve(problem.b, problem.mask, config)
        seconds = time.perf_counter() - start
        failures = wl.check_solution(problem, beta, report.status, report.lam)
        ipm, krylov = report.iterations, report.total_krylov
    return {"seconds": seconds, "failures": failures, "ipm": ipm, "krylov": krylov,
            "beta": hashlib.sha256(beta.tobytes()).hexdigest()}


def child(root: str, name: str, seed: str, solves: str, dims: str) -> None:
    """One run in this process, on the checkout at ``root``; prints its
    operations as one JSON line."""
    root = Path(root)  # the link, not resolved
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import workloads as wl

    # the CLI workload starts `fftlasso solve` from these: keep them on the link
    wl.ROOT, wl.SRC = root, root / "src"
    workload = wl.with_dims(name, tuple(map(int, dims.split(","))) if dims else None)
    with tempfile.TemporaryDirectory() as tmp:
        problem = wl.make_problem(workload, int(seed), Path(tmp))
        runs = [_operation(wl, problem, Path(tmp)) for _ in range(int(solves) + 1)][1:]
    print(json.dumps(runs))


def _run(link: Path, args) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "child", str(link), args.workload,
         str(args.seed), str(args.solves), args.dims or ""],
        capture_output=True, text=True, env=env, cwd=link.parent, check=False)
    if done.returncode != 0:
        raise SystemExit(f"ab: the {link.name} run failed:\n{done.stderr}")
    ops = json.loads(done.stdout.splitlines()[-1])
    return {"solve_s": statistics.median(op["seconds"] for op in ops),
            "failures": [f for op in ops for f in op["failures"]],
            "iterates": sorted({(op["ipm"], op["krylov"], op["beta"]) for op in ops})}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _yes(holds: bool) -> str:
    return "yes" if holds else "no"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--solves", type=int, default=5,
                        help="timed operations per run, after one warm-up")
    parser.add_argument("--dims", help="grid replacing the workload's, e.g. 16,16,16")
    parser.add_argument("--same-iterates", action="store_true",
                        help="fail when the counts or the recovered spectra differ")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.solves < 1:
        parser.error("--pairs and --solves must be positive")

    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        links = {side: Path(tmp) / side for side in SIDES}
        for side, link in links.items():
            link.symlink_to(getattr(args, side).resolve(), target_is_directory=True)
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                run = _run(links[side], args)
                runs[side].append(run)
                counts = ", ".join(f"ipm {ipm} krylov {krylov}"
                                   for ipm, krylov, _ in run["iterates"])
                failed = f"  FAILED: {'; '.join(run['failures'])}" if run["failures"] else ""
                print(f"pair {pair:2d} {side}  solve_s {run['solve_s']:.4f}  {counts}{failed}",
                      flush=True)

    wins = {side: 0 for side in SIDES}
    for parent, change in zip(runs["parent"], runs["change"]):
        if parent["solve_s"] != change["solve_s"]:
            wins["parent" if parent["solve_s"] < change["solve_s"] else "change"] += 1
    medians, iqrs = {}, {}
    for side in SIDES:
        q1, medians[side], q3 = _quartiles([run["solve_s"] for run in runs[side]])
        iqrs[side] = q3 - q1
        print(f"{side}: median {medians[side]:.4f} s, quartiles {q1:.4f}-{q3:.4f} s "
              f"(IQR {iqrs[side]:.4f} s), won {wins[side]} of {args.pairs} pairs")
    print(f"change/parent median: {medians['change'] / medians['parent'] - 1:+.1%}")
    won = 10 * wins["change"] >= 9 * args.pairs
    gain = medians["parent"] - medians["change"]
    clear = gain > iqrs["parent"]
    print(f"claim rule: change won {wins['change']} of {args.pairs} pairs, 9 in 10 needed: "
          f"{_yes(won)}; median gain {gain:+.4f} s over parent IQR {iqrs['parent']:.4f} s: "
          f"{_yes(clear)}; gain claimable: {_yes(won and clear)}")

    status = 0
    if any(run["failures"] for side in SIDES for run in runs[side]):
        print("some operations FAILED their checks")
        status = 1
    iterates = {side: sorted({it for run in runs[side] for it in run["iterates"]})
                for side in SIDES}
    if args.same_iterates:
        if iterates["parent"] == iterates["change"] and len(iterates["parent"]) == 1:
            print("same iterates: counts and spectra are identical in every run")
        else:
            print(f"iterates DIFFER: parent {iterates['parent']}, change {iterates['change']}")
            status = 1
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        child(*sys.argv[2:])
    else:
        sys.exit(main())
