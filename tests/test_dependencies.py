"""The package's runtime dependencies are exactly the ones it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(package: Path) -> set[str]:
    """Top-level names of the absolute imports in every module of ``package``."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_runtime_dependencies_match_imports():
    """A third-party import must be declared, and a declared dependency used."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    third_party = (imported_top_level_modules(ROOT / "src" / "fftlasso")
                   - set(sys.stdlib_module_names) - {"fftlasso"})
    assert third_party == declared == {"numpy"}
