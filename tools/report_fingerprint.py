#!/usr/bin/env python3
"""Fingerprint every report the solver writes, to check byte identity.

    PYTHONPATH=src python tools/report_fingerprint.py [--drop KEY ...]

Runs nine fixed cases in a temporary directory, under fixed relative file
names, and prints one ``sha256  name`` line per artefact:

- ``cli-16``: criterion 9's 16^3 ``fftlasso solve`` case;
- ``cli-256x256``: a 256^2 byte-mask volume with 30% missing, with
  ``--impute``;
- ``lib-32``: a 32^3 library solve with 15% missing (seeds 42/43);
- ``lib-32-denoise``: the same grid and seeds with an empty mask, where
  ``G = I`` and no iteration makes a transform;
- ``lib-256x256-denoise``: a 256^2 library solve with an empty mask
  (seeds 42/43), the same path on a 2-D grid;
- ``lib-40``: a 40^3 library solve with 15% missing (seeds 42/43), whose
  64,000 entries end in a partial block of the solver's O(n) sweeps; its
  records and spectrum are hashed together into one line;
- ``lib-16-max-iters``: a 16^3 library solve with 15% missing (seeds
  42/43) stopped by ``max_iters=5`` before it converges, so that the
  best-iterate exit and its ``final_*`` fields are hashed too;
- ``lib-8-pcg-cap``: an 8^3 library solve with 15% missing (seeds 42/43)
  with ``fftlasso.pcg.MAX_ITERS_CAP`` set to 1, whose second step hits
  PCG's iteration limit, so that the ``stalled`` exit, its ``reason`` and
  the best iterate it returns are hashed too;
- ``probe-1d``: a 1-D masked solve, probed at every iterate with
  ``preconditioned_spectrum`` and over its trajectory with
  ``scaling_trajectory_check``.  The ``spectra`` line rests on the
  eigenvalue routines of ``numpy.linalg``, so it also changes with the
  LAPACK build numpy links.

Reports and record dicts are hashed as sorted-key JSON lines with
``wall_time`` removed; recovered spectra and imputed volumes as their raw
float64 bytes.  A change that must not alter behaviour prints the same
lines as its parent; point ``PYTHONPATH`` at the other checkout's ``src``
and diff the two outputs.  A change that deletes record keys on purpose
is checked the same way, with ``--drop KEY`` for each deleted key given
to the parent's run, which then hashes its records without them:

    PYTHONPATH=../parent/src python tools/report_fingerprint.py --drop KEY

prints the lines that the change must print.

The lines compare only between runs with the same BLAS thread count.  The
inner products of PCG (``np.vdot``) and of the objective (``@``) run on
OpenBLAS, which splits a dot product over its threads and so rounds
differently with another count.  With
``OPENBLAS_NUM_THREADS=1`` against the default on a 2-core machine, 10 of
the 22 lines differ (``cli-256x256`` but its stdout, ``lib-32``,
``lib-32-denoise``, ``lib-256x256-denoise`` and ``lib-40``), with the same
iteration counts.  The tool prints ``os.cpu_count()`` and
``OPENBLAS_NUM_THREADS`` to stderr, so that two outputs can be checked to
be comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

import fftlasso.pcg
from fftlasso.cli import main
from fftlasso.diagnostics import preconditioned_spectrum, scaling_trajectory_check
from fftlasso.fourier import GridShape
from fftlasso.ipm import IpmConfig, solve
from fftlasso.masking import Mask, observe
from fftlasso.synthetic import SyntheticSpec, generate_synthetic


UNHASHED = {"wall_time"}  # record keys left out of every hash; --drop adds to it


def emit(name: str, data: bytes) -> None:
    print(f"{hashlib.sha256(data).hexdigest()}  {name}")


def json_lines(records) -> bytes:
    return "".join(
        json.dumps({k: v for k, v in rec.items() if k not in UNHASHED}, sort_keys=True) + "\n"
        for rec in records
    ).encode()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cli_case(name: str, generate_args: list[str], solve_args: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if main(["generate", *generate_args, "--signal", "signal.f64", "--mask", "mask.bin"]):
            raise SystemExit(f"{name}: generate failed")
        code = main(["solve", "--input", "signal.f64", "--mask", "mask.bin",
                     "--output", "beta.f64", "--report", "report.jsonl", *solve_args])
    with open("report.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    emit(f"{name}/report", json_lines(records))
    emit(f"{name}/beta", read_bytes("beta.f64"))
    if "--impute" in solve_args:
        emit(f"{name}/imputed", read_bytes("imputed.f64"))
    emit(f"{name}/stdout+exit", f"{out.getvalue()}exit {code}\n".encode())


def solve_bytes(b, mask: Mask, config: IpmConfig, observer=None) -> tuple[bytes, bytes]:
    """The records and the summary as JSON lines, and the spectrum's raw bytes."""
    beta, report = solve(b, mask, config, observer)
    return (json_lines([rec.to_dict() for rec in report.records] + [report.to_dict()]),
            beta.tobytes())


def library_case(name: str, b, mask: Mask, config: IpmConfig, observer=None) -> None:
    records, beta = solve_bytes(b, mask, config, observer)
    emit(f"{name}/records", records)
    emit(f"{name}/beta", beta)


def probe_case(name: str) -> None:
    # criterion 6's instance: 4 active coefficients of 48, 7 samples missing
    rng = np.random.default_rng(6000)
    n = 48
    mask = Mask(np.sort(rng.choice(n, size=7, replace=False)), GridShape((n,)))
    beta_true = np.zeros(n)
    idx = rng.choice(n, size=4, replace=False)
    beta_true[idx] = (1.0 + rng.random(4)) * np.sign(rng.standard_normal(4))
    b = observe(beta_true, mask) + 0.02 * rng.standard_normal(mask.n_observed)

    states, spectra = [], []

    def watch(state, record):
        states.append(state)
        spectra.append(preconditioned_spectrum(state, mask).to_dict())

    library_case(name, b, mask, IpmConfig(lam=0.4, tol=1e-8), observer=watch)
    emit(f"{name}/spectra", json_lines(spectra))
    emit(f"{name}/scaling", json_lines([scaling_trajectory_check(states).to_dict()]))


def run() -> None:
    cli_case("cli-16", ["--dims", "16,16,16", "--noise-seed", "9", "--missing-seed", "10"],
             [])
    cli_case("cli-256x256",
             ["--dims", "256,256", "--noise-seed", "23", "--missing-seed", "24",
              "--missing-fraction", "0.3", "--mask-format", "bytemask"],
             ["--impute", "imputed.f64"])
    noisy, mask, _ = generate_synthetic(
        SyntheticSpec(dims=(32, 32, 32), noise_seed=42, missing_seed=43))
    library_case("lib-32", noisy[~mask.missing_bool], mask, IpmConfig())
    noisy, mask, _ = generate_synthetic(
        SyntheticSpec(dims=(32, 32, 32), noise_seed=42, missing_fraction=0.0, missing_seed=43))
    library_case("lib-32-denoise", noisy, mask, IpmConfig())
    noisy, mask, _ = generate_synthetic(
        SyntheticSpec(dims=(256, 256), noise_seed=42, missing_fraction=0.0, missing_seed=43))
    library_case("lib-256x256-denoise", noisy, mask, IpmConfig())
    noisy, mask, _ = generate_synthetic(
        SyntheticSpec(dims=(40, 40, 40), noise_seed=42, missing_seed=43))
    emit("lib-40/records+beta", b"".join(solve_bytes(noisy[~mask.missing_bool], mask, IpmConfig())))
    noisy, mask, _ = generate_synthetic(
        SyntheticSpec(dims=(16, 16, 16), noise_seed=42, missing_seed=43))
    library_case("lib-16-max-iters", noisy[~mask.missing_bool], mask, IpmConfig(max_iters=5))
    noisy, mask, _ = generate_synthetic(
        SyntheticSpec(dims=(8, 8, 8), noise_seed=42, missing_seed=43))
    cap, fftlasso.pcg.MAX_ITERS_CAP = fftlasso.pcg.MAX_ITERS_CAP, 1
    try:
        library_case("lib-8-pcg-cap", noisy[~mask.missing_bool], mask, IpmConfig())
    finally:
        fftlasso.pcg.MAX_ITERS_CAP = cap
    probe_case("probe-1d")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--drop", action="append", default=[], metavar="KEY",
                        help="also leave KEY out of every hashed record")
    UNHASHED.update(parser.parse_args().drop)
    print(f"cpu_count={os.cpu_count()} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
          file=sys.stderr)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            run()
        finally:
            os.chdir(cwd)
