"""``scripts/src_lines.py`` counts every line of each module in one class."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_three_classes_add_up_to_each_module():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0].split("\t") == ["module", "docstring", "blank_or_comment", "code", "lines"]
    rows = {name: list(map(int, cells)) for name, *cells in (r.split("\t") for r in out[1:])}
    modules = sorted((ROOT / "src" / "spectrunc").glob("*.py"))
    assert list(rows) == [p.stem for p in modules] + ["total"]
    for path in modules:
        doc, blank, code, lines = rows[path.stem]
        assert lines == len(path.read_text(encoding="utf-8").splitlines())
        assert doc + blank + code == lines and min(doc, blank, code) > 0
    assert rows["total"] == [sum(r[i] for n, r in rows.items() if n != "total") for i in range(4)]
