"""Apply one-line mutants to the verdict code and report which ones the tests kill.

Usage::

    python scripts/mutants.py [NAME ...] [-- PYTEST_ARGS ...]

Each entry of ``MUTANTS`` replaces one fragment of one module of
``src/spectrunc`` by another.  Every fragment must occur exactly once in
the checkout the script sits in; a stale entry, or an unknown NAME, stops
the script with exit 2 before anything runs.

For each mutant named (every mutant without NAMEs) the script copies
``src/``, ``tests/``, ``scripts/`` and ``pyproject.toml`` to a temporary
directory, applies the replacement there, and runs pytest on the copy in a
child process, with ``-x -q -p no:cacheprovider`` and PYTEST_ARGS (by
default Tier-1 without criterion 6, the n = 4000 decay sweep, and without
this script's own smoke test).  It prints one line per mutant::

    <name>\t<killed|survived>\t<seconds>s[\t<note>]

``killed`` means some test failed, ``survived`` that all passed; any other
pytest exit is printed as ``error (pytest exit N)``.  A note says why a
known survivor stays.  The exit code is 0 once every mutant has run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the note of a survivor whose absolute tolerance ROADMAP item 3 makes relative
ITEM_3 = "ROADMAP item 3: an absolute tolerance, with no test at its flip point"

#: name -> (module, fragment, replacement, note)
MUTANTS = {
    "bound_tol_1e-4": ("harness.py", "BOUND_TOL = 1e-8", "BOUND_TOL = 1e-4", ITEM_3),
    "bound_verdict_strict": (
        "harness.py",
        "bound_satisfied=err_F <= bound_value + BOUND_TOL,",
        "bound_satisfied=err_F < bound_value,",
        "",
    ),
    "beats_full_strict": (
        "harness.py",
        '"beats_full": err_F <= err_full + 1e-12,',
        '"beats_full": err_F < err_full,',
        "",
    ),
    "beats_guarantee_strict": (
        "harness.py",
        '"beats_guarantee": err_F <= rates.frobenius,',
        '"beats_guarantee": err_F < rates.frobenius,',
        "",
    ),
    "completion_precondition_strict": (
        "harness.py",
        "config.p >= thr.p_raw, config.p",
        "config.p > thr.p_raw, config.p",
        "",
    ),
    "decay_precondition_strict": (
        "harness.py",
        "precondition_holds=stats.tail_2 >= delta / 16.0,",
        "precondition_holds=stats.tail_2 > delta / 16.0,",
        "",
    ),
    "pass_rate_counts_failed_preconditions": (
        "harness.py",
        "if r.precondition_holds and r.bound_satisfied is not None]",
        "if r.bound_satisfied is not None]",
        "",
    ),
    "trace_identity_margin_1e4": (
        "harness.py",
        "TRACE_IDENTITY_MARGIN = 1e8",
        "TRACE_IDENTITY_MARGIN = 1e4",
        "a precision margin: no test or digest measures an error between 1e4 and 1e8 "
        "rounding scales, where the trace identity keeps fewer than seven digits",
    ),
    "check_tol_1e-3": ("proofcheck.py", "CHECK_TOL = 1e-9", "CHECK_TOL = 1e-3", ITEM_3),
    "check_tol_as_0": (
        "proofcheck.py", "passed=slack >= -CHECK_TOL)", "passed=slack >= 0.0)", ITEM_3
    ),
    "precondition_without_slack": (
        "bounds.py",
        "holds = measured <= allowance * (1.0 + 1e-9) + 1e-300",
        "holds = measured <= allowance",
        "",
    ),
    "denoising_precondition_inclusive": (
        "bounds.py",
        "precondition_holds=nu < allowance,",
        "precondition_holds=nu <= allowance,",
        "",
    ),
    "envelope_m1_strict": (
        "bounds.py",
        "if sig[j - 1] >= (1.0 + 2.0 * eps) * sig_k1:",
        "if sig[j - 1] > (1.0 + 2.0 * eps) * sig_k1:",
        "",
    ),
    "envelope_m2_strict": ("bounds.py", "if sig[j - 1] >= thresh:", "if sig[j - 1] > thresh:", ""),
    "arpack_max_k_100": ("linalg.py", "ARPACK_MAX_K = 64", "ARPACK_MAX_K = 100", ""),
    "arpack_min_n_400": ("linalg.py", "ARPACK_MIN_N = 200", "ARPACK_MIN_N = 400", ""),
    "evr_max_fraction_0.3": ("linalg.py", "EVR_MAX_FRACTION = 0.2", "EVR_MAX_FRACTION = 0.3", ""),
}

DEFAULT_PYTEST_ARGS = [
    "--deselect",
    "tests/test_acceptance.py::test_criterion_06_error_rate_scaling",
    "--ignore",
    "tests/test_mutants.py",
]


def stale() -> list[str]:
    """Names of the mutants whose fragment does not occur exactly once in the checkout."""
    package = ROOT / "src" / "spectrunc"
    return [
        name
        for name, (module, fragment, _, _) in MUTANTS.items()
        if (package / module).read_text(encoding="utf-8").count(fragment) != 1
    ]


def run(name: str, pytest_args: list[str]) -> tuple[str, float]:
    """Apply mutant ``name`` to a copy of the checkout, run pytest on it: (outcome, seconds)."""
    module, fragment, replacement, _ = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as work:
        copy = Path(work)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        path = copy / "src" / "spectrunc" / module
        path.write_text(
            path.read_text(encoding="utf-8").replace(fragment, replacement), encoding="utf-8"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])
        ))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
        start = time.perf_counter()
        code = subprocess.run(argv, cwd=copy, env=env, capture_output=True).returncode
        seconds = time.perf_counter() - start
    outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
    return outcome, seconds


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    names, pytest_args = argv[:split], argv[split + 1 :]
    unknown = [name for name in names if name not in MUTANTS]
    bad = stale()
    if unknown or bad:
        for name in unknown:
            print(f"unknown mutant {name!r}", file=sys.stderr)
        for name in bad:
            print(f"mutant {name!r}: its fragment does not occur exactly once", file=sys.stderr)
        return 2
    for name in names or MUTANTS:
        outcome, seconds = run(name, pytest_args or DEFAULT_PYTEST_ARGS)
        note = MUTANTS[name][3]
        print(name, outcome, f"{seconds:.1f}s", *([note] if note else []), sep="\t", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
