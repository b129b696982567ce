"""spectrunc benchmark entry point.

    python3 perfbench/run.py --workload {decay_sweep,trial_mix,cli_files}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload is one single-process
closed loop (the next call starts when the previous one returns) in a
child process whose BLAS thread count is pinned to the number of usable
cores.  ``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` reports per-layer metrics from a traced run, plus a
single-threaded BLAS pass as a diagnostic baseline.  Host facts and
per-pass details print before the last line, which is the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("decay_sweep", "trial_mix", "cli_files")
SETUP_PROBES = 5
#: the seed whose outputs perfbench/reference.json holds
DEFAULT_SEED = 0
#: the whole run, including set-up probes, must end within this many seconds
BUDGET_S = 170.0


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_worker(args, mode: str, blas_threads: int, workdir: Path, deadline: float, tag: str) -> dict:
    result = workdir / f"result-{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--workdir", str(workdir), "--result", str(result),
    ]
    if mode == "trace":
        cmd += ["--spans", str(WORK / f"spans-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, env=child_env(blas_threads), timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(result.read_text())


def setup_seconds(configs: list[str], blas_threads: int, deadline: float) -> list[float]:
    """Wall time of fresh set-up probes, from spawn to exit.

    ``wait()`` without a timeout blocks in waitpid, which times the exit
    exactly (``subprocess.run(timeout=...)`` polls in steps of up to 50 ms);
    a timer kills a probe that outlives the deadline.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), *configs],
            env=child_env(blas_threads),
            stdout=subprocess.DEVNULL,
        )
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "spectrunc" / "__init__.py").is_file():
        print(f"error: no spectrunc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if args.trace == 0:
            main_run = run_worker(args, "time", nproc, workdir, deadline, "time")
            setup = setup_seconds(main_run["configs"], nproc, deadline)
            runs = [main_run]
            metrics = {
                "wall_s": metric(statistics.median(main_run["walls"]), "s"),
                "setup_s": metric(statistics.median(setup), "s"),
                "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
            }
            detail = {"wall_s_samples": main_run["walls"], "setup_s_samples": setup,
                      "op_times": main_run["op_times"]}
        else:
            main_run = run_worker(args, "trace", nproc, workdir, deadline, "trace")
            blas1 = run_worker(args, "once", 1, workdir, deadline, "blas1")
            runs = [main_run, blas1]
            untraced = statistics.median(main_run["walls"])
            traced = statistics.median(main_run["traced_walls"])
            metrics = {name: metric(v, _unit(name)) for name, v in main_run["layers"].items()}
            metrics["trace.overhead_s"] = metric(traced - untraced, "s")
            metrics["blas1_wall_s"] = metric(blas1["walls"][0], "s")
            detail = {"untraced_wall_s_samples": main_run["walls"],
                      "traced_wall_s_samples": main_run["traced_walls"]}
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"failed op: {f}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"host": main_run["host"], "reference": main_run["reference"]}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith(".n3_g"):
        return "Gn3"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
