"""Print the docstring, blank-or-comment and code lines of each spectrunc module.

Usage::

    python scripts/src_lines.py [SRC]

``SRC`` is the directory that holds the ``spectrunc`` package (``src`` in a
checkout, the default).  Each line of ``SRC/spectrunc/*.py`` falls in one
class, taken in this order:

* docstring: a line of a module, class or function docstring, as ``ast``
  places it;
* blank or comment: among the rest, a line that is empty or holds only a
  ``#`` comment once stripped;
* code: every other line.

One tab-separated row is printed per module, in name order, then a
``total`` row; the columns are ``docstring``, ``blank_or_comment``,
``code`` and ``lines``, and the first three add up to the last.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("docstring", "blank_or_comment", "code", "lines")


def count(text: str) -> tuple[int, int, int, int]:
    """``(docstring, blank_or_comment, code, lines)`` of one module's source text."""
    lines = text.splitlines()
    doc: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                doc.update(range(first.lineno, first.end_lineno + 1))
    rest = [line.strip() for ln, line in enumerate(lines, 1) if ln not in doc]
    blank = sum(1 for s in rest if not s or s.startswith("#"))
    return len(doc), blank, len(rest) - blank, len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[1] if len(argv) > 1 else "src")
    print("module", *COLUMNS, sep="\t")
    total = [0] * len(COLUMNS)
    for path in sorted((src / "spectrunc").glob("*.py")):
        row = count(path.read_text(encoding="utf-8"))
        total = [a + b for a, b in zip(total, row)]
        print(path.stem, *row, sep="\t")
    print("total", *total, sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
