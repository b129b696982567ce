"""Run the benchmark on two trees in alternating pairs and judge each end-to-end metric.

Usage::

    python scripts/pairs.py PARENT CHANGE [--pairs N] [--out FILE]

PARENT and CHANGE are two checkouts.  CHANGE's ``BENCHMARK.json`` names the
command, the run length (``run_seconds``), the workloads and the end-to-end
metrics with their bounds.  Pair i (0 <= i < N, N = 10 by default) runs
``<command> --workload W --seed i --seconds S --trace 0`` in each tree, on
every workload in turn, one run at a time: the parent first on even i, the
change first on odd i.  The last line a run prints is its JSON result; a
run that exits non-zero or prints none counts as one failed op of one.

For each workload and end-to-end metric one tab-separated row gives the two
medians, the parent's quartiles (inclusive method), the pairs the change
won (ties count for neither), the failed ops of each side, and two verdicts:

* regression: ``worse`` when the change's median is worse than the
  parent's by more than the metric's bound (a fraction of the parent's
  median), or when the change fails a larger share of its ops; else
  ``unresolved`` when the parent's quartile spread exceeds the bound (as a
  fraction of its median) and not every run of the change reads better
  than every run of the parent; else ``ok``;
* gain: ``met`` when the change won at least 9 of every 10 pairs, its
  median is better than the parent's by more than the parent's quartile
  spread, and it fails no larger share of its ops; else ``not met``.

``--out FILE`` writes the summary and every run as JSON.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
COLUMNS = ("workload", "metric", "parent_median", "change_median", "parent_q25", "parent_q75",
           "change_wins", "failed_ops", "regression", "gain")


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: exit code, elapsed seconds, ops and metric values."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    run = {"code": proc.returncode, "elapsed": time.perf_counter() - start}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {**run, "attempted": 1, "failed": 1, "metrics": {}}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**run, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def _judge(parent: dict[int, float], change: dict[int, float], bound: float, lower: bool,
           worse_ops: bool) -> dict:
    """The row of one metric on one workload, from each side's value per pair."""
    sign = 1.0 if lower else -1.0  # sign * (change - parent) > 0: the change is worse
    p, c = sorted(parent.values()), sorted(change.values())
    pm, cm = statistics.median(p), statistics.median(c)
    q25, _, q75 = statistics.quantiles(p, n=4, method="inclusive")
    paired = sorted(parent.keys() & change.keys())
    wins = sum(sign * (change[i] - parent[i]) < 0 for i in paired)
    every_run_better = max(c) < min(p) if lower else min(c) > max(p)
    if worse_ops or sign * (cm - pm) > bound * abs(pm):
        regression = "worse"
    elif q75 - q25 > bound * abs(pm) and not every_run_better:
        regression = "unresolved"
    else:
        regression = "ok"
    met = not worse_ops and 10 * wins >= 9 * len(paired) and sign * (pm - cm) > q75 - q25
    return {"parent_median": pm, "change_median": cm, "parent_q25": q25, "parent_q75": q75,
            "change_wins": f"{wins}/{len(paired)}", "regression": regression,
            "gain": "met" if met else "not met"}


def summarize(runs: list[dict], benchmark: dict) -> dict:
    """workload -> attempted and failed ops per side, and one row per end-to-end metric."""
    summary = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        mine = {side: [r for r in runs if (r["workload"], r["side"]) == (workload, side)]
                for side in SIDES}
        attempted = {side: sum(r["attempted"] for r in mine[side]) for side in SIDES}
        failed = {side: sum(r["failed"] for r in mine[side]) for side in SIDES}
        share = {side: failed[side] / max(attempted[side], 1) for side in SIDES}
        metrics = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [{r["pair"]: r["metrics"][name] for r in mine[side] if name in r["metrics"]}
                      for side in SIDES]
            metrics[name] = _judge(*values, metric["bound"], metric["better"] == "lower",
                                   share["change"] > share["parent"])
        summary[workload] = {"attempted_ops": attempted, "failed_ops": failed, "metrics": metrics}
    return summary


def table(summary: dict) -> list[str]:
    """The tab-separated lines that print the summary, a header line first."""
    lines = ["\t".join(COLUMNS)]
    for workload, row in summary.items():
        failed = "/".join(str(row["failed_ops"][side]) for side in SIDES)
        for name, cells in row["metrics"].items():
            values = [f"{cells[c]:.4g}" for c in COLUMNS[2:6]]
            lines.append("\t".join([workload, name, *values, cells["change_wins"], failed,
                                    cells["regression"], cells["gain"]]))
    return lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the parent's quartiles")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    command, seconds = benchmark["command"], benchmark["run_seconds"]
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in (w["name"] for w in benchmark["workloads"]):
            for side in order:
                run = run_once(trees[side], command, workload, pair, seconds)
                runs.append({"pair": pair, "workload": workload, "side": side,
                             "first": side == order[0], **run})
                print(f"pair {pair} {workload} {side}: exit {run['code']}, {run['metrics']}",
                      file=sys.stderr, flush=True)
    summary = summarize(runs, benchmark)
    print(*table(summary), sep="\n")
    if args.out:
        doc = {"command": f"{' '.join(command)} --workload <workload> --seed <pair> "
                          f"--seconds {seconds} --trace 0",
               "pairs": args.pairs, "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
