"""Print every line of the spectrunc package that a pytest run never executes.

Usage::

    python scripts/uncovered.py [PYTEST_ARGS...]

Run from the root of a checkout.  The arguments go to ``pytest.main``,
which runs in this process; without any, the run is Tier-1 with criterion 6
(the n = 4000 decay sweep) deselected.  A ``sys.settrace`` tracer, also
set for new threads through ``threading.settrace``, records the lines run
in frames whose code lies in ``src/spectrunc``; frames elsewhere are not
traced line by line.

After pytest's own output, one line is printed per executable line that
never ran, in file and line order::

    src/spectrunc/<module>.py:<line>: <source, stripped>

The executable lines of a module are those that its code objects, nested
ones included, name in ``co_lines()``.  A module that was never imported
has every such line listed.  The exit code is pytest's.

Only this interpreter is traced: a test that runs ``spectrunc`` in a child
process (``subprocess``, ``python -m spectrunc.cli``) counts for nothing,
so a line that only such tests reach is listed.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectrunc"
DEFAULT_ARGS = [
    "-q",
    "-p",
    "no:cacheprovider",
    "--deselect",
    "tests/test_acceptance.py::test_criterion_06_error_rate_scaling",
]


def executable_lines(code: types.CodeType) -> set[int]:
    """The lines ``code`` and the code objects nested in it can execute."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def trace(run) -> tuple[object, dict[str, bytearray]]:
    """``run()``'s result, and a flag per line of each package file that ran.

    The flags of a file are made at its first call; from then on a traced
    line allocates nothing, so tests that measure ``tracemalloc`` peaks
    read as they do untraced.
    """
    prefix = str(PACKAGE) + "/"
    hits: dict[str, bytearray] = {}
    tracers: dict[str, Callable] = {}

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        on_line = tracers.get(path)
        if on_line is None:
            if not path.startswith(prefix):
                return None
            lines = len(Path(path).read_text(encoding="utf-8").splitlines())
            seen = hits[path] = bytearray(lines + 1)  # indexed by line number

            def on_line(frame, event, arg):
                seen[frame.f_lineno] = 1
                return on_line

            tracers[path] = on_line
        on_line(frame, event, arg)
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    code, hits = trace(lambda: pytest.main(argv or DEFAULT_ARGS))
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        seen = hits.get(str(path), b"")
        ran = {line for line, flag in enumerate(seen) if flag}
        for line in sorted(executable_lines(compile(text, str(path), "exec")) - ran):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
