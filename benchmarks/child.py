"""Fresh-process entry points of the fftlasso benchmark.

    python3 benchmarks/child.py import
        print the seconds taken by ``import fftlasso, fftlasso.cli``
    python3 benchmarks/child.py cli SPANS_JSON ARGS...
        run ``fftlasso ARGS...`` with tracing on; write the spans
    python3 benchmarks/child.py solve SPANS_JSON WORKLOAD SEED DIMS
        generate the workload's inputs and run one traced library solve

``run.py`` starts these; they are not meant to be run by hand.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    # Time the import before anything else loads modules it would share;
    # the parent puts the checkout's src on PYTHONPATH.
    start = time.perf_counter()
    import fftlasso.cli

    end = time.perf_counter()
    import json
    from pathlib import Path

    import workloads

    workloads.import_package()
    mode = argv[0]
    if mode == "import":
        print(json.dumps({"import_s": end - start}))
        return 0

    from tracing import Tracer

    tracer = Tracer()
    spans_path = Path(argv[1])
    if mode == "cli":
        tracer.record("fftlasso.import", start, end)
        try:
            with tracer.installed():
                return fftlasso.cli.main(argv[2:])
        finally:
            spans_path.write_text(json.dumps({"spans": tracer.take()}))
    if mode == "solve":
        dims = tuple(int(d) for d in argv[4].split(","))
        workload = workloads.with_dims(argv[2], dims)
        problem = workloads.make_problem(workload, int(argv[3]), spans_path.parent)
        outcome = workloads.solve_in_process(problem, tracer)
        spans_path.write_text(json.dumps({
            "seconds": outcome.seconds,
            "failures": outcome.failures,
            "records_wall_s": outcome.records_wall_s,
            "spans": outcome.spans,
        }))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
