"""``scripts/pairs.py`` judges paired benchmark runs: canned results, no benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "scripts" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

#: the parent's wall_s per pair: median 10.0, quartiles 9.925 and 10.1
PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
#: a parent whose quartile spread (10) exceeds a 24% bound on its median (10)
WIDE = [5.0, 15.0] * 5


def _summary(change, parent=PARENT, better="lower", failed=(0, 0)):
    benchmark = {"workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "m", "better": better, "bound": 0.24}]}
    runs = [{"pair": i, "workload": "w", "side": side, "attempted": 10,
             "failed": failed[j] if i == 0 else 0, "metrics": {"m": v}}
            for i, values in enumerate(zip(parent, change))
            for j, (side, v) in enumerate(zip(pairs.SIDES, values))]
    return pairs.summarize(runs, benchmark)["w"]


@pytest.mark.parametrize("change, parent, better, wins, regression, gain", [
    # 10/10 wins and a median gap (1.0) wider than the parent's quartile spread (0.175)
    ([v - 1.0 for v in PARENT], PARENT, "lower", "10/10", "ok", "met"),
    # 9/10 wins, but a gap (0.05) inside the spread
    ([v - 0.05 for v in PARENT[:9]] + [PARENT[9] + 0.05], PARENT, "lower", "9/10", "ok",
     "not met"),
    # a wide gap, but 8/10 wins
    ([v - 1.0 for v in PARENT[:8]] + [v + 0.1 for v in PARENT[8:]], PARENT, "lower", "8/10",
     "ok", "not met"),
    # 30% worse against a 24% bound
    ([v * 1.3 for v in PARENT], PARENT, "lower", "0/10", "worse", "not met"),
    # 10% worse, inside the bound, but the parent spreads wider than the bound
    ([v * 1.1 for v in WIDE], WIDE, "lower", "0/10", "unresolved", "not met"),
    # as wide a parent, but every run of the change reads better than every run of it
    ([4.0] * 10, WIDE, "lower", "10/10", "ok", "not met"),
    # higher is better: 30% lower is worse, and 1.0 higher in every pair is a gain
    ([v * 0.7 for v in PARENT], PARENT, "higher", "0/10", "worse", "not met"),
    ([v + 1.0 for v in PARENT], PARENT, "higher", "10/10", "ok", "met"),
], ids=["met", "inside_spread", "eight_of_ten", "worse", "unresolved", "wide_but_all_better",
        "higher_worse", "higher_met"])
def test_each_verdict(change, parent, better, wins, regression, gain):
    row = _summary(change, parent, better)["metrics"]["m"]
    assert (row["change_wins"], row["regression"], row["gain"]) == (wins, regression, gain)
    assert row["parent_median"] == sorted(parent)[4] / 2 + sorted(parent)[5] / 2


def test_a_larger_share_of_failed_ops_is_worse():
    row = _summary(PARENT, failed=(0, 1))
    assert (row["failed_ops"], row["attempted_ops"]) == ({"parent": 0, "change": 1},
                                                         {"parent": 100, "change": 100})
    assert row["metrics"]["m"]["regression"] == "worse"
    assert _summary(PARENT, failed=(1, 1))["metrics"]["m"]["regression"] == "ok"
    # a gain in every pair does not count when the change fails more ops
    faster = _summary([v - 1.0 for v in PARENT], failed=(0, 1))["metrics"]["m"]
    assert (faster["change_wins"], faster["regression"], faster["gain"]) == ("10/10", "worse",
                                                                             "not met")


def test_the_table_prints_one_row_per_workload_and_metric():
    lines = pairs.table({"w": _summary([v - 1.0 for v in PARENT])})
    assert lines[0].split("\t") == list(pairs.COLUMNS)
    assert lines[1].split("\t") == ["w", "m", "10", "9", "9.925", "10.1", "10/10", "0/0", "ok",
                                    "met"]


def test_a_run_reads_the_last_line_or_counts_one_failed_op(tmp_path):
    result = {"attempted": 4, "failed": 0, "metrics": {"m": {"value": 1.5, "unit": "s"}}}
    printer = [sys.executable, "-c", f"print('host'); print({json.dumps(result)!r})"]
    run = pairs.run_once(tmp_path, printer, "w", 0, 1.0)
    assert (run["code"], run["attempted"], run["failed"], run["metrics"]) == (0, 4, 0, {"m": 1.5})
    crash = [sys.executable, "-c", "import sys; sys.exit(3)"]
    run = pairs.run_once(tmp_path, crash, "w", 0, 1.0)
    assert (run["code"], run["attempted"], run["failed"], run["metrics"]) == (3, 1, 1, {})
