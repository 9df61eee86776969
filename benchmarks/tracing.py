"""Timing spans around the public functions of fftlasso's layer modules.

While installed, the tracer replaces each public function of a layer
module, in every module of the package that binds it, by a wrapper that
records a span ``[name, start, end, parent]``.  ``parent`` is the index of
the enclosing span in the same list, or -1 for a root.  Spans stay in
memory until :meth:`Tracer.take`; the benchmark writes them out at the end.
Nothing in the package itself changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

#: Modules on the solve path, innermost first.
LAYERS = ("fourier", "masking", "newton_system", "pcg", "ipm", "dataio", "cli")


def _public_functions():
    """(qualified name, function) for each public function a layer defines."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"fftlasso.{layer}")
        names = getattr(module, "__all__", None)
        if names is None:
            names = [name for name in vars(module) if not name.startswith("_")]
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found.append((f"{module.__name__}.{name}", fn))
    return found


class Tracer:
    """Records nested spans of the wrapped functions in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Add a root span measured by the caller."""
        self.spans.append([name, start, end, -1])

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public functions for the duration of the block."""
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in _public_functions()}
        replaced = []
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "fftlasso":
                continue
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    replaced.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the root spans'
    durations.
    """
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _), child_s in zip(spans, inner):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s
    return out


def krylov_per_step(spans) -> list[int]:
    """Condensed-operator applications inside each PCG solve, in order.

    PCG starts from zero, so it applies the operator once per iteration:
    these are the Krylov iteration counts of the Newton steps.
    """
    steps = {i: 0 for i, span in enumerate(spans) if span[0] == "fftlasso.pcg.pcg_solve"}
    for name, _, _, parent in spans:
        if name == "fftlasso.newton_system.apply_kkt" and parent in steps:
            steps[parent] += 1
    return [steps[i] for i in sorted(steps)]
