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


def test_two_trees_print_before_after_and_change(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "spectrunc").mkdir(parents=True)
    (new / "spectrunc").mkdir(parents=True)
    (old / "spectrunc" / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    (old / "spectrunc" / "gone.py").write_text("y = 2\n")
    (new / "spectrunc" / "a.py").write_text('"""Doc\nover two lines."""\n# note\nx = 1\nz = 3\n')
    (new / "spectrunc" / "added.py").write_text("w = 4\n")
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_lines.py"), str(old), str(new)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0].split("\t") == ["module"] + [
        f"{c}_{s}" for c in ("docstring", "blank_or_comment", "code", "lines")
        for s in ("before", "after", "change")
    ]
    rows = {name: cells for name, *cells in (r.split("\t") for r in out[1:])}
    assert rows == {
        "a": ["1", "2", "+1", "1", "1", "+0", "1", "2", "+1", "3", "5", "+2"],
        "added": ["0", "0", "+0", "0", "0", "+0", "0", "1", "+1", "0", "1", "+1"],
        "gone": ["0", "0", "+0", "0", "0", "+0", "1", "0", "-1", "1", "0", "-1"],
        "total": ["1", "2", "+1", "1", "1", "+0", "2", "3", "+1", "4", "6", "+2"],
    }
