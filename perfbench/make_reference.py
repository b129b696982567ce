"""Record the output digests the gate compares against for the default seed.

    python3 perfbench/make_reference.py

Runs one pass of every workload with seed 0 and the BLAS thread count
pinned to the usable cores, and writes perfbench/reference.json together
with the host facts it holds for.  Re-record only when a change to the
program is meant to change its outputs, and say so in that change.
"""

import json
import os
import shutil
import sys
import time
from types import SimpleNamespace

from run import DEFAULT_SEED, HERE, WORK, WORKLOADS, run_worker


def main() -> int:
    nproc = len(os.sched_getaffinity(0))
    WORK.mkdir(exist_ok=True)
    doc = {"seed": DEFAULT_SEED, "host": None, "workloads": {}}
    for workload in WORKLOADS:
        workdir = WORK / f"reference-{workload}-{os.getpid()}"
        workdir.mkdir()
        try:
            args = SimpleNamespace(workload=workload, seed=DEFAULT_SEED, seconds=0)
            res = run_worker(args, "record", nproc, workdir, time.monotonic() + 600, "record")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res["failed"]:
            print("\n".join(res["failures"]), file=sys.stderr)
            return 1
        doc["host"] = res["reference_host"]
        doc["workloads"][workload] = res["digests"]
    (HERE / "reference.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
