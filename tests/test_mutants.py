"""``scripts/mutants.py`` applies a one-line mutant to a copy of the checkout and runs pytest."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants(*argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "mutants.py"), *argv],
                          capture_output=True, text=True)


def test_one_mutant_is_killed_by_the_test_at_its_flip_point_and_survives_another():
    target = "tests/test_bounds.py::test_envelope_frozen_three_regimes"
    proc = _mutants("envelope_m1_strict", "--", target)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"envelope_m1_strict\tkilled\t\d+\.\ds\n", proc.stdout)
    proc = _mutants("envelope_m1_strict", "--", "tests/test_src_lines.py")
    assert re.fullmatch(r"envelope_m1_strict\tsurvived\t\d+\.\ds\n", proc.stdout)
    assert (ROOT / "src/spectrunc/bounds.py").read_text().count(
        "if sig[j - 1] >= (1.0 + 2.0 * eps) * sig_k1:") == 1  # the checkout is untouched


def test_an_unknown_mutant_stops_the_script_before_any_run():
    proc = _mutants("no_such_mutant")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "unknown mutant 'no_such_mutant'\n"
