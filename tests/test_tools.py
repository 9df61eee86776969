"""Smoke tests of the tools that byte-identity and benchmark checks rest on."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fftlasso

ROOT = Path(__file__).resolve().parents[1]

NAMES = [
    "cli-16/report", "cli-16/beta", "cli-16/stdout+exit",
    "cli-256x256/report", "cli-256x256/beta", "cli-256x256/imputed",
    "cli-256x256/stdout+exit",
    "lib-32/records", "lib-32/beta",
    "lib-32-denoise/records", "lib-32-denoise/beta",
    "lib-256x256-denoise/records", "lib-256x256-denoise/beta",
    "lib-40/records+beta", "lib-16-max-iters/records", "lib-16-max-iters/beta",
    "lib-8-pcg-cap/records", "lib-8-pcg-cap/beta",
    "probe-1d/records", "probe-1d/beta", "probe-1d/spectra", "probe-1d/scaling",
]


def test_report_fingerprint_lines():
    env = {**os.environ, "PYTHONPATH": str(Path(fftlasso.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "report_fingerprint.py")],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    matches = [re.fullmatch(r"[0-9a-f]{64}  (\S+)", line) for line in done.stdout.splitlines()]
    assert all(matches), done.stdout
    assert [m.group(1) for m in matches] == NAMES


#: The functions that the layered benchmark (``benchmarks/run.py``) times by
#: name.  Its tracer wraps only the functions a layer module defines and
#: lists in ``__all__``, so a renamed or unlisted one would silently read 0.
TRACED = [
    "fourier.synthesize", "fourier.analyze", "masking.gram",
    "newton_system.apply_kkt", "newton_system.apply_precond_inverse",
    "newton_system.recover_eliminated", "pcg.pcg_solve",
    "ipm.newton_direction", "ipm.ipm_step", "ipm.solve",
]


@pytest.mark.parametrize("name", TRACED)
def test_traced_functions_stay_public(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"fftlasso.{layer}")
    assert attr in module.__all__
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert f'"{name}"' in (ROOT / "benchmarks" / "run.py").read_text(encoding="utf-8")


def test_code_lines(tmp_path):
    """Docstrings, comment-only lines and blank lines are not code; other
    string literals are, on every line they span."""
    (tmp_path / "sample.py").write_text('''"""Module docstring,
over two lines."""

# a comment
import os  # trailing comment


def f():
    """Function docstring."""
    text = """a literal
    on two lines"""
    return text
''', encoding="utf-8")
    (tmp_path / "empty.py").write_text("", encoding="utf-8")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split("\n") == ["     0  empty.py", "     5  sample.py", "     5  total", ""]


def test_code_lines_of_the_package():
    """One line per module of the package, then their sum."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                          capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = sorted(p.name for p in Path(fftlasso.__file__).parent.glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    assert sum(int(count) for count, _ in rows[:-1]) == int(rows[-1][0]) > 0


#: The directories whose calls may pass an option of the package.
CALLERS = ["src", "tests", "demos", "tools", "benchmarks"]


def _options(tree: ast.Module):
    """``(function, called name, parameter, position)`` of every parameter
    with a default of a function or method in ``tree``; ``position`` counts
    the arguments a call gives before it, None for a keyword-only one.  A
    method's ``self`` is not given, and ``__init__`` is called by its class."""
    classes = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = classes.get(id(fn))
        given = fn.args.posonlyargs + fn.args.args
        bound = 0 if cls is None else 1
        name = cls if fn.name == "__init__" else fn.name
        label = f"{cls}.{fn.name}" if cls else fn.name
        for position in range(len(given) - len(fn.args.defaults), len(given)):
            yield label, name, given[position].arg, position - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield label, name, arg.arg, None


def _passes(call: ast.Call, parameter: str, position) -> bool:
    if any(k.arg in (None, parameter) for k in call.keywords):  # **kwargs or by name
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_option_has_a_caller():
    """Each parameter with a default, of a function or method that the
    package defines, is passed by at least one call of that name in the
    repository's code: by keyword, by position, or through ``*args`` or
    ``**kwargs``.  An option that nothing passes is a setting without a
    caller; make it a constant.  Options that only tests set are kept."""
    calls = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    package = Path(fftlasso.__file__).parent
    unset = [f"{path.stem}.{label}({parameter}=)"
             for path in sorted(package.glob("*.py"))
             for label, name, parameter, position
             in _options(ast.parse(path.read_text(encoding="utf-8")))
             if not any(_passes(call, parameter, position) for call in calls.get(name, []))]
    assert unset == []


def test_ab_pairs_one_tree_against_itself():
    """``tools/ab.py`` on 2 pairs of a 16^3 grid, with this checkout as
    both sides: every run is printed, the side that runs first alternates,
    the claim rule's verdict is printed, whatever it is, and
    ``--same-iterates`` finds the same counts and spectra."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--parent", str(ROOT), "--change",
         str(ROOT), "--workload", "masked-64", "--dims", "16,16,16", "--pairs", "2",
         "--solves", "1", "--same-iterates"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    runs = [line.split()[:3] for line in done.stdout.splitlines() if line.startswith("pair")]
    assert runs == [["pair", "1", "parent"], ["pair", "1", "change"],
                    ["pair", "2", "change"], ["pair", "2", "parent"]]
    assert re.search(r"^parent: median [0-9.]+ s, quartiles .*won \d of 2 pairs$",
                     done.stdout, re.M)
    assert re.search(r"^claim rule: change won [0-2] of 2 pairs, 9 in 10 needed: (yes|no); "
                     r"median gain [+-][0-9.]+ s over parent IQR [0-9.]+ s: (yes|no); "
                     r"gain claimable: (yes|no)$", done.stdout, re.M)
    assert "same iterates: counts and spectra are identical in every run" in done.stdout
