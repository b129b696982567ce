"""Print the docstring, blank-or-comment and code lines of each spectrunc module.

Usage::

    python scripts/src_lines.py [SRC]
    python scripts/src_lines.py OLD_SRC NEW_SRC

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

Given two trees, each column is printed three times, as ``<column>_before``
(OLD_SRC), ``<column>_after`` (NEW_SRC) and ``<column>_change`` (after minus
before, signed), for every module of either tree; a module missing from a
tree counts 0 there.
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


def counts(src: Path) -> dict[str, tuple[int, ...]]:
    """Module name -> :func:`count` of each module of ``src/spectrunc``, in name order."""
    return {
        path.stem: count(path.read_text(encoding="utf-8"))
        for path in sorted((src / "spectrunc").glob("*.py"))
    }


def _with_total(rows: dict[str, tuple[int, ...]]) -> dict[str, tuple[int, ...]]:
    return {**rows, "total": tuple(map(sum, zip(*rows.values())))}


def main(argv: list[str]) -> int:
    trees = [Path(a) for a in argv[1:]] or [Path("src")]
    if len(trees) == 1:
        print("module", *COLUMNS, sep="\t")
        for name, row in _with_total(counts(trees[0])).items():
            print(name, *row, sep="\t")
        return 0
    if len(trees) != 2:
        print("usage: src_lines.py [SRC] | OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = map(counts, trees)
    zero = (0,) * len(COLUMNS)
    names = sorted({*old, *new})
    before = _with_total({name: old.get(name, zero) for name in names})
    after = _with_total({name: new.get(name, zero) for name in names})
    sides = ("before", "after", "change")
    print("module", *(f"{c}_{side}" for c in COLUMNS for side in sides), sep="\t")
    for name in before:
        cells = [(b, a, f"{a - b:+d}") for b, a in zip(before[name], after[name])]
        print(name, *(cell for triple in cells for cell in triple), sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
