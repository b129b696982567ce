"""Correctness gate: counts failed ops instead of stopping the run.

An op fails when it raises, when its invariant check reports a problem,
when its outputs differ from the reference for the default seed, or when
its output bytes differ from those of its first pass in the same process.

The reference holds digests, not outputs: for each output file, every
leaf path (list indices dropped) keeps the full list of its discrete values
(ints, bools, strings, nulls, and a marker where a float sits), compared
exactly, and ``[count, sum |x|, min, max]`` of its floats, compared with
``RTOL``.  It applies only when the host facts it was recorded with
match.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback

import numpy as np

#: declared relative tolerance for continuous outputs against the reference
RTOL = 1e-6
ATOL = 1e-12

#: host facts that must agree before a reference is compared
REFERENCE_KEYS = ("numpy", "scipy", "numpy_blas", "scipy_blas", "blas_threads")


def parse_matrix(data: bytes) -> np.ndarray:
    """Independent parser for the ``sym n`` format; raises ValueError."""
    header, _, body = data.partition(b"\n")
    tok = header.split()
    if len(tok) != 2 or tok[0] != b"sym":
        raise ValueError("missing 'sym n' header")
    n = int(tok[1])
    values = np.fromstring(body, sep=" ")
    if values.size != n * n:
        raise ValueError(f"expected {n * n} entries, parsed {values.size}")
    A = values.reshape(n, n)
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entry")
    if not np.array_equal(A, A.T):
        raise ValueError("not exactly symmetric")
    return A


def parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    bad = [i for i, row in enumerate(rows, start=2) if len(row) != len(header)]
    if bad:
        raise ValueError(f"rows with a wrong field count, first at line {bad[0]}")
    return header, rows


def output_hash(outs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(k for k in outs if not k.startswith("_")):
        val = outs[key]
        h.update(key.encode() + b"\0")
        h.update(val if isinstance(val, bytes) else repr(val).encode())
        h.update(b"\0")
    return h.hexdigest()


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _leaves(obj, path, out):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _leaves(val, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for val in obj:
            _leaves(val, path + "[]", out)
    else:
        out.setdefault(path, []).append(obj)


def _float_stats(a: np.ndarray) -> list:
    return [int(a.size), float(np.abs(a).sum()), float(a.min()), float(a.max())]


def _summarize(leaves: dict[str, list]) -> dict:
    digest = {}
    for path, vals in leaves.items():
        floats = [v for v in vals if isinstance(v, float)]
        entry = {}
        if floats:
            entry["f"] = _float_stats(np.asarray(floats))
        if len(floats) < len(vals):
            entry["d"] = ["<float>" if isinstance(v, float) else v for v in vals]
        digest[path] = entry
    return digest


def digest(outs: dict) -> dict:
    """Digest of every output of one op, keyed by output name."""
    result = {}
    for name, val in outs.items():
        if name.startswith("_"):
            continue
        if name.endswith(".sym"):
            A = parse_matrix(val)
            result[name] = {
                "n": {"d": [A.shape[0]]},
                "entries": {"f": _float_stats(A)},
                "trace": {"f": _float_stats(np.trace(A))},
                "fro": {"f": _float_stats(np.linalg.norm(A))},
            }
            continue
        leaves: dict[str, list] = {}
        if name.endswith(".json"):
            _leaves(json.loads(val), "", leaves)
        elif name.endswith(".csv"):
            header, rows = parse_csv(val)
            for row in rows:
                for col, text in zip(header, row):
                    leaves.setdefault(col, []).append(_cell(text))
        else:
            leaves = {"value": [val]}
        result[name] = _summarize(leaves)
    return result


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare(ref: dict, got: dict) -> list[str]:
    problems = []
    for name in sorted(set(ref) | set(got)):
        if name not in ref or name not in got:
            problems.append(f"{name}: output present on one side only")
            continue
        r, g = ref[name], got[name]
        for path in sorted(set(r) | set(g)):
            if path not in r or path not in g:
                problems.append(f"{name}:{path} present on one side only")
            elif r[path].get("d") != g[path].get("d"):
                problems.append(f"{name}:{path} discrete values differ")
            elif "f" in r[path] or "f" in g[path]:
                rf, gf = r[path].get("f", [0]), g[path].get("f", [0])
                if rf[0] != gf[0] or not all(_close(x, y) for x, y in zip(rf[1:], gf[1:])):
                    problems.append(
                        f"{name}:{path} [count, sum|x|, min, max] {gf} "
                        f"vs reference {rf} (rtol {RTOL})"
                    )
    return problems


class Gate:
    """Judges every op a worker runs and counts the failures."""

    def __init__(self, reference: dict | None, record: bool = False):
        self.reference = reference  # op name -> digest, or None
        self.digests: dict[str, dict] | None = {} if record else None
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def judge(self, op, outs: dict | None, error: str | None, label: str) -> None:
        self.attempted += 1
        problems = [error] if error else []
        if outs is not None:
            h = output_hash(outs)
            if op.name in self.first:
                if h != self.first[op.name]:
                    problems.append("output bytes differ from the first pass")
            else:
                try:
                    problems += op.check(outs)
                    if self.reference is not None:
                        problems += compare(self.reference[op.name], digest(outs))
                    if self.digests is not None:
                        self.digests[op.name] = digest(outs)
                except (ValueError, KeyError, IndexError, TypeError):
                    problems.append(traceback.format_exc(limit=2))
                if not problems:
                    self.first[op.name] = h
        if problems:
            self.failed += 1
            self.failures.append(f"{label} {op.name}: " + "; ".join(problems)[:2000])
