#!/usr/bin/env python3
"""Count the code lines of each module of a Python package.

    python tools/code_lines.py [PACKAGE_DIR]

Prints one ``count  module`` line per ``.py`` file under ``PACKAGE_DIR``
(default: ``src/fftlasso`` of this checkout), sorted by path, then
``count  total``.  A code line is a line that holds part of a token other
than a comment; blank lines, comment-only lines and the lines of
docstrings (a string literal that is the first statement of a module,
class or function) do not count.  A string literal anywhere else counts
on every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "fftlasso"
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(package).as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
