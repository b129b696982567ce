"""``scripts/uncovered.py`` lists the package lines a pytest run never executes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LISTED = re.compile(r"(src/spectrunc/\w+\.py):(\d+): (.*)")


def test_lists_each_line_never_run_with_its_source(tmp_path):
    (tmp_path / "test_one.py").write_text(
        "from spectrunc.bounds import check_rank\n\n\ndef test_rank():\n    check_rank(1, 2)\n"
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "uncovered.py"), "test_one.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout.splitlines()
    first = next(i for i, line in enumerate(out) if LISTED.fullmatch(line))
    assert "1 passed" in out[first - 1]
    listed = {}
    for line in out[first:]:
        path, number, text = LISTED.fullmatch(line).groups()
        source = (ROOT / path).read_text(encoding="utf-8").splitlines()
        assert source[int(number) - 1].strip() == text
        listed.setdefault(path, []).append(int(number))
    assert all(numbers == sorted(numbers) for numbers in listed.values())
    assert list(listed) == sorted(listed)

    bounds = (ROOT / "src/spectrunc/bounds.py").read_text(encoding="utf-8").splitlines()
    check = bounds.index("def check_rank(k: int, n: int) -> None:") + 1
    assert check + 2 not in listed["src/spectrunc/bounds.py"]  # the test
    assert check + 3 in listed["src/spectrunc/bounds.py"]  # its raise
    cli = (ROOT / "src/spectrunc/cli.py").read_text(encoding="utf-8").splitlines()
    assert cli.index("    sys.exit(main())") + 1 in listed["src/spectrunc/cli.py"]  # never imported
