#!/usr/bin/env python3
"""The on-disk workflow: volume/mask files and the command-line interface.

Exercises the same entry points a shell user would:

    fftlasso generate --dims 16,16,16 --signal s.f64 --mask m.idx
    fftlasso solve --input s.f64 --mask m.idx --output beta.f64 \
                   --report report.jsonl --impute filled.f64
    fftlasso bench --sizes 8,16 --report bench.jsonl
"""

import json
import tempfile
from pathlib import Path

from fftlasso.cli import main
from fftlasso.dataio import read_volume

with tempfile.TemporaryDirectory(prefix="fftlasso_demo_") as tmp:  # removed on exit
    workdir = Path(tmp)
    signal = str(workdir / "signal.f64")
    mask = str(workdir / "mask.idx")
    beta = str(workdir / "beta.f64")
    filled = str(workdir / "filled.f64")
    report = str(workdir / "report.jsonl")

    print(f"working in {workdir}\n== generate ==")
    main(["generate", "--dims", "16,16,16", "--noise-seed", "3",
          "--missing-seed", "4", "--signal", signal, "--mask", mask])

    print("\n== solve ==")
    code = main(["solve", "--input", signal, "--mask", mask, "--output", beta,
                 "--report", report, "--impute", filled])
    print(f"exit code {code}")

    values, dims = read_volume(beta)
    print(f"\nrecovered spectrum volume: dims {dims}, "
          f"{(abs(values) > 1e-6 * abs(values).max()).sum()} active coefficients")

    with open(report, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    meta, summary = records[0], records[-1]
    print(f"report: {len(records) - 2} iteration records, "
          f"lambda = {meta['lambda']:.3f} ({meta['lambda_source']}), "
          f"final objective {summary['final_objective']:.4e}")

    print("\n== bench ==")
    main(["bench", "--sizes", "8,16", "--seed", "7",
          "--report", str(workdir / "bench.jsonl")])
