"""Command-line front end: generate / solve / bench."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dataio import read_mask, read_volume, write_mask, write_volume
from .fourier import GridShape, synthesize
from .ipm import IpmConfig, solve
from .synthetic import SyntheticSpec, generate_synthetic

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_MAX_ITERS = 2
EXIT_STALLED = 3
_EXIT_BY_STATUS = {"converged": EXIT_OK, "max_iters": EXIT_MAX_ITERS, "stalled": EXIT_STALLED}


def _parse_dims(text: str) -> tuple[int, ...]:
    """Integers separated by ``,`` or ``x``; an empty part is an error."""
    try:
        return tuple(int(part) for part in text.replace("x", ",").split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse dims {text!r}") from exc


def _check_writable(*paths: str | None) -> None:
    """Refuse, before any input is read or any solve runs, an output path
    that names a directory or whose directory does not exist or cannot be
    written; None is no path."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ValueError(f"cannot write {path}: not a file in a writable directory")


def _write_report(path: str, records: list[dict]) -> None:
    """Write ``records`` as JSON lines.  A NaN or infinity raises
    ``ValueError`` before the file is opened, so no partial report is left."""
    lines = [json.dumps(record, sort_keys=True, allow_nan=False) + "\n" for record in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _config(args, lam: float | None = None) -> IpmConfig:
    """The solver configuration from the flags of :func:`_solver_flags`."""
    return IpmConfig(lam=lam, tol=args.tol, cg_tol=args.cg_tol, max_iters=args.max_iters)


def _solver_flags() -> argparse.ArgumentParser:
    """The solver flags that ``solve`` and ``bench`` share, defaulting to
    :class:`IpmConfig`'s fields."""
    defaults = IpmConfig()
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--tol", type=float, default=defaults.tol)
    flags.add_argument("--cg-tol", type=float, default=defaults.cg_tol)
    flags.add_argument("--max-iters", type=int, default=defaults.max_iters)
    return flags


def _cmd_generate(args) -> int:
    _check_writable(args.signal, args.mask, args.truth)
    dims = _parse_dims(args.dims)
    spec = SyntheticSpec(
        dims=dims,
        noise_seed=args.noise_seed,
        missing_fraction=args.missing_fraction,
        missing_seed=args.missing_seed,
    )
    noisy, mask, truth = generate_synthetic(spec)
    write_volume(args.signal, noisy, dims)
    write_mask(args.mask, mask, fmt=args.mask_format)
    if args.truth:
        write_volume(args.truth, truth, dims)
    print(f"wrote {args.signal} ({'x'.join(map(str, dims))}, "
          f"{mask.n_missing} of {mask.shape.n} samples missing)")
    return EXIT_OK


def _cmd_solve(args) -> int:
    _check_writable(args.output, args.report, args.impute)
    values, dims = read_volume(args.input)
    mask = read_mask(args.mask)
    if tuple(dims) != mask.shape.dims:
        raise ValueError(f"volume dims {dims} do not match mask dims {mask.shape.dims}")

    b = values[~mask.missing_bool]
    del values  # the solve holds only the observed samples
    beta, report = solve(b, mask, _config(args, lam=args.lam))

    write_volume(args.output, beta, dims)
    if args.impute:
        write_volume(args.impute, synthesize(beta, mask.shape), dims)

    records = [{
        "record": "meta",
        "input": args.input,
        "dims": list(dims),
        "unknowns": mask.shape.n,
        "ipm_variables": 2 * mask.shape.n,
        "missing": mask.n_missing,
        "lambda": report.lam,
        "lambda_source": "flag" if args.lam is not None else "default",
        "tol": report.tol,
        "cg_tol": args.cg_tol,
    }]
    records.extend(rec.to_dict() for rec in report.records)
    records.append(report.to_dict())
    if args.report:
        _write_report(args.report, records)

    print(f"{report.status} in {report.iterations} iterations, "
          f"objective {report.final_objective:.6e}, "
          f"total Krylov iterations {report.total_krylov}")
    if report.reason:
        print(f"stalled: {report.reason}", file=sys.stderr)
    return _EXIT_BY_STATUS[report.status]


def _cmd_bench(args) -> int:
    _check_writable(args.report)
    # every cube is checked before the first solve: a bad edge costs no run
    specs = [
        SyntheticSpec(
            dims=GridShape((size, size, size)).dims,
            noise_seed=args.seed,
            missing_fraction=args.missing_fraction,
            missing_seed=args.seed + 1,
        )
        for size in _parse_dims(args.sizes)
    ]
    config = _config(args)
    records = []
    worst = EXIT_OK
    for spec in specs:
        size = spec.dims[0]
        noisy, mask, _ = generate_synthetic(spec)
        b = noisy[~mask.missing_bool]
        _, report = solve(b, mask, config)
        row = {
            "record": "bench",
            "size": list(spec.dims),
            "unknowns": mask.shape.n,
            "ipm_variables": 2 * mask.shape.n,
            "missing": mask.n_missing,
            "status": report.status,
            "iterations": report.iterations,
            "total_krylov": report.total_krylov,
            "krylov_per_iteration": report.krylov_counts,
            "lambda": report.lam,
            "wall_time": report.wall_time,
        }
        records.append(row)
        print(f"{size}^3: n={row['unknowns']}, {row['status']} in "
              f"{row['iterations']} iterations, {row['total_krylov']} Krylov, "
              f"{report.wall_time:.2f}s")
        if report.reason:
            print(f"stalled at {size}^3: {report.reason}", file=sys.stderr)
        worst = max(worst, _EXIT_BY_STATUS[report.status])
    if args.report:
        _write_report(args.report, records)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fftlasso",
        description="Sparse spectral recovery from noisy, incomplete signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solver = _solver_flags()

    gen = sub.add_parser("generate", help="write a synthetic volume and mask")
    gen.add_argument("--dims", required=True, help="grid dims, e.g. 32,32,32 or 32x32x32")
    gen.add_argument("--noise-seed", type=int, default=0)
    gen.add_argument("--missing-seed", type=int, default=1)
    gen.add_argument("--missing-fraction", type=float, default=0.15)
    gen.add_argument("--mask-format", choices=["indices", "bytemask"], default="indices")
    gen.add_argument("--signal", required=True, help="output volume path")
    gen.add_argument("--mask", required=True, help="output mask path")
    gen.add_argument("--truth", help="optional noise-free volume path")
    gen.set_defaults(func=_cmd_generate)

    slv = sub.add_parser("solve", parents=[solver],
                         help="recover the sparse spectrum of a volume")
    slv.add_argument("--input", required=True, help="noisy volume (full grid)")
    slv.add_argument("--mask", required=True, help="missing-sample mask")
    slv.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="l1 penalty (default: 0.1 * max correlation)")
    slv.add_argument("--output", required=True, help="recovered spectrum volume")
    slv.add_argument("--report", help="JSON-lines solve report")
    slv.add_argument("--impute", help="optional imputed signal volume")
    slv.set_defaults(func=_cmd_solve)

    ben = sub.add_parser("bench", parents=[solver], help="synthetic cube benchmark")
    ben.add_argument("--sizes", required=True, help="cube edges, e.g. 8,16,32")
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--missing-fraction", type=float, default=0.15)
    ben.add_argument("--report", help="JSON-lines bench report")
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
