"""The byte contract: ``scripts/output_digests.py`` prints the checked-in digests.

``tests/output_digests.txt`` holds the script's output for this tree,
under ``# `` lines that stamp what those bytes depend on
(:func:`conftest.stamp`): the Python, numpy and scipy versions, and both
OpenBLAS builds with the one thread the script pins, read in a process
that the script's own pin set up.  On a host with another stamp the test
skips and names both stamps; it never passes on a mismatch.  A change that
moves bytes rewrites the file, with
``python tests/test_output_digests.py > tests/output_digests.txt``, and
lists each moved line in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "output_digests.txt"
SCRIPT = ROOT / "scripts" / "output_digests.py"

#: prints the stamp after running the script's top, which pins the BLAS, but not its main;
#: conftest reads the BLAS through the package, so both directories go on the path
_STAMP = (
    "import runpy, sys; runpy.run_path(sys.argv[1]); sys.path[:0] = sys.argv[2:]; "
    "import conftest; print(*conftest.stamp(), sep='\\n')"
)


def _start(*argv: str) -> subprocess.Popen:
    """This interpreter, run with ``argv``."""
    return subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _lines(run: subprocess.Popen) -> list[str]:
    """The stdout lines of a run that must succeed."""
    out, err = run.communicate(timeout=120)
    assert run.returncode == 0, err
    return out.splitlines()


def _stamp_and_digests() -> tuple[list[str], list[str]]:
    """The stamp and the script's output, from two processes that run side by side."""
    stamp = _start("-c", _STAMP, str(SCRIPT), str(ROOT / "tests"), str(ROOT / "src"))
    digests = _start(str(SCRIPT), str(ROOT / "src"))
    return _lines(stamp), _lines(digests)


def test_outputs_match_the_checked_in_digests():
    golden = GOLDEN.read_text().splitlines()
    golden_stamp = [line[2:] for line in golden if line.startswith("# ")]
    stamp, digests = _stamp_and_digests()
    if stamp != golden_stamp:
        pytest.skip(f"digests checked in for {golden_stamp}; this host is {stamp}")
    assert digests == [line for line in golden if not line.startswith("# ")]


if __name__ == "__main__":
    stamp, digests = _stamp_and_digests()
    print(*(f"# {line}" for line in stamp), *digests, sep="\n")
