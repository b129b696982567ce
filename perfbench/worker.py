"""One workload process: make the inputs, run passes in a closed loop, judge outputs.

run.py starts it with the BLAS thread count pinned in the environment and
PYTHONPATH set to the checkout's ``src``:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode {time,trace,once,record} --workdir DIR --result FILE [--spans FILE]

time    untraced passes for S seconds, at least two (the byte check needs two)
trace   untraced passes for S/4 seconds, then traced passes for S/4 seconds,
        at least one each; traced outputs must equal the untraced bytes
once    a single untraced pass
record  a single pass whose output digests become the reference
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_facts() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            b = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"
        return " ".join(str(b.get(k, "")) for k in ("name", "version", "openblas configuration")).strip()

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        llc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(ops, gate, label, tracer=None, op_table=None):
    """Run every op once, back to back; judge the outputs after the clock stops.

    Returns the pass's wall time, its per-op times, and the peak RSS so far,
    read before the gate allocates anything.  Outputs are dropped once
    judged, so the next pass does not run beside them.
    """
    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = len(op_table)
            op_table[tracer.op] = {"name": op.name, "kind": op.kind, "trials": op.trials}
        t0 = time.perf_counter()
        try:
            outs, error = op.run(), None
        except Exception:  # an op that raises is a failed op, not a failed run
            outs, error = None, traceback.format_exc(limit=4)
        results.append((op, outs, error, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.op = None
    for op, outs, error, _ in results:
        if outs is not None:
            for name, path in op.files.items():
                try:
                    outs[name] = path.read_bytes()
                except OSError as e:
                    error = f"missing output {name}: {e}"
        gate.judge(op, outs, error, label)
    return wall, {op.name: dt for op, _, _, dt in results}, rss


def closed_loop(ops, gate, seconds, min_passes, label, tracer=None, op_table=None):
    """Passes until ``seconds`` have gone by (at least ``min_passes``).

    Returns the pass wall times, per-op times, and the peak RSS after the
    first pass: later passes add allocator fragmentation that depends on how
    many passes fit, so only the first pass gives a peak every run shares.
    """
    walls, op_times, first_rss = [], [], None
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        wall, times, rss = run_pass(ops, gate, label, tracer, op_table)
        walls.append(wall)
        op_times.append(times)
        first_rss = rss if first_rss is None else first_rss
    return walls, op_times, first_rss


def load_reference(workload: str, seed: int, host: dict):
    from gate import REFERENCE_KEYS

    path = HERE / "reference.json"
    if not path.exists():
        return None, "no reference file"
    ref = json.loads(path.read_text())
    if seed != ref["seed"]:
        return None, f"seed {seed} is not the reference seed {ref['seed']}"
    differ = [k for k in REFERENCE_KEYS if ref["host"][k] != host[k]]
    if differ:
        return None, f"host facts differ from the reference: {', '.join(differ)}"
    return ref["workloads"][workload], "reference applies"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["time", "trace", "once", "record"], required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    import spectrunc

    if not Path(spectrunc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"spectrunc imported from {spectrunc.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3

    import gate as gate_mod
    import workloads

    host = host_facts()
    ops, configs = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if args.mode == "record":
        reference, note = None, "recording"
    else:
        reference, note = load_reference(args.workload, args.seed, host)
    gate = gate_mod.Gate(reference, record=args.mode == "record")
    result = {"host": host, "reference": note, "configs": [str(c) for c in configs]}

    if args.mode == "time":
        result["walls"], result["op_times"], result["peak_rss_mb"] = closed_loop(
            ops, gate, args.seconds, 2, "pass"
        )
    elif args.mode in ("once", "record"):
        wall, _, _ = run_pass(ops, gate, "pass")
        result["walls"] = [wall]
        if args.mode == "record":
            result["digests"] = gate.digests
            result["reference_host"] = {k: host[k] for k in gate_mod.REFERENCE_KEYS}
    else:
        from tracing import Tracer, layer_metrics

        quarter = args.seconds / 4
        result["walls"], _, _ = closed_loop(ops, gate, quarter, 1, "untraced pass")
        tracer, op_table = Tracer(), {}
        tracer.install()
        try:
            traced, _, _ = closed_loop(ops, gate, quarter, 1, "traced pass", tracer, op_table)
        finally:
            tracer.uninstall()
        result["traced_walls"] = traced
        result["layers"] = layer_metrics(tracer.spans, op_table, len(traced))
        if args.spans:
            tracer.dump(args.spans, op_table)

    result["attempted"] = gate.attempted
    result["failed"] = gate.failed
    result["failures"] = gate.failures
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
