"""Outside-in span tracer for the spectrunc layers and the LAPACK boundary.

``Tracer.install`` replaces, in every ``spectrunc`` namespace that binds
them, the public functions of each spectrunc module with wrappers that
record one span per call, and does the same for the numpy/scipy solver
entry points that spectrunc reaches through module attributes.  Nothing
under ``src/`` changes; ``Tracer.uninstall`` puts every original back.

A span is ``[name, start, end, parent, op, child_s, size]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` the id of the
benchmark operation that caused it, ``child_s`` the time covered by its
direct children, and ``size`` a per-kind quantity (matrix order for
solvers, characters parsed or bytes produced for io).  Self time is
``end - start - child_s``; calls are synchronous and single-threaded, so
child spans never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

#: spectrunc modules, which are the layers the tracer names
LAYERS = ("cli", "harness", "io", "proofcheck", "estimators", "synth", "bounds", "linalg")

#: io functions whose first argument is the text being parsed
_TEXT_READERS = {"read_matrix", "read_observations", "read_samples", "parse_config"}


def _scipy_eigh_name(args, kwargs) -> str:
    subset = kwargs.get("subset_by_index") is not None or kwargs.get("subset_by_value") is not None
    return "lapack.eigh_subset" if subset else "lapack.eigh"


def _order(args, kwargs) -> int:
    a = args[0] if args else kwargs.get("a", kwargs.get("A"))
    return int(a.shape[0])


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name, size_of_call=None, size_of_result=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [
                name if fixed else name(args, kwargs),
                0.0,
                0.0,
                parent,
                self.op,
                0.0,
                size_of_call(args, kwargs) if size_of_call else 0,
            ]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[2] = end
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if size_of_result:
                rec[6] = size_of_result(result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg
        import scipy.sparse.linalg

        lapack = [
            (numpy.linalg, "eigh", "lapack.eigh", _order),
            (numpy.linalg, "eigvalsh", "lapack.eigvalsh", _order),
            (numpy.linalg, "qr", "lapack.qr", _order),
            (numpy.linalg, "svd", "lapack.svd", _order),
            (scipy.linalg, "eigh", _scipy_eigh_name, _order),
            (scipy.sparse.linalg, "eigsh", "lapack.arpack", _order),
        ]
        for owner, attr, name, size in lapack:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, size_of_call=size))

        modules = {
            mod_name: mod
            for mod_name, mod in sys.modules.items()
            if mod is not None and (mod_name == "spectrunc" or mod_name.startswith("spectrunc."))
        }
        wrappers = {}
        for mod_name, mod in modules.items():
            layer = mod_name.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod_name:
                    continue
                call_size = result_size = None
                if layer == "io" and attr in _TEXT_READERS:
                    call_size = lambda args, kwargs: len(args[0]) if args else len(kwargs["text"])
                elif layer == "io" and attr.endswith("_bytes"):
                    result_size = len
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", call_size, result_size)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- reporting

    def dump(self, path, ops: dict[int, dict]) -> None:
        """Write every span and the op table as JSON."""
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "child_s", "size"],
            "ops": {str(k): v for k, v in ops.items()},
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _key(name: str) -> str:
    """Metric prefix of a span: solver name, io direction, or module."""
    layer, _, fn = name.partition(".")
    if layer == "lapack":
        return name
    if layer == "io":
        return "io.read" if fn.startswith(("read_", "parse_")) else "io.write"
    return layer


def layer_metrics(spans: list[list], ops: dict[int, dict], passes: int) -> dict[str, float]:
    """Per-layer counters and self times, per traced pass.

    ``ops`` maps op id to ``{"kind": ..., "trials": ...}``; dense
    eigensolves per trial are counted over the ops of that experiment kind.
    ``lapack.eigh.n3_g`` is computed as sum(n^3) / 1e9 over full dense
    eigensolves, not measured.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, float] = defaultdict(float)
    eigh_by_op: dict[int, int] = defaultdict(int)
    for name, start, end, _parent, op, child_s, n in spans:
        key = _key(name)
        self_s[key] += end - start - child_s
        calls[key] += 1
        size[key] += n
        if name == "lapack.eigh":
            size["lapack.eigh.n3"] += float(n) ** 3
            eigh_by_op[op] += 1

    def per_trial(kind: str) -> float:
        trials = sum(o["trials"] for o in ops.values() if o["kind"] == kind)
        dense = sum(eigh_by_op[i] for i, o in ops.items() if o["kind"] == kind)
        return dense / trials if trials else 0.0

    p = float(passes)
    m = {
        "lapack.eigh_subset.calls": calls["lapack.eigh_subset"] / p,
        "lapack.eigh_subset.self_s": self_s["lapack.eigh_subset"] / p,
        "lapack.arpack.calls": calls["lapack.arpack"] / p,
        "lapack.arpack.self_s": self_s["lapack.arpack"] / p,
        "lapack.eigh.calls": calls["lapack.eigh"] / p,
        "lapack.eigh.self_s": self_s["lapack.eigh"] / p,
        "lapack.eigh.n3_g": size["lapack.eigh.n3"] / 1e9 / p,
        "lapack.eigvalsh.self_s": self_s["lapack.eigvalsh"] / p,
        "lapack.qr.self_s": self_s["lapack.qr"] / p,
        "lapack.svd.self_s": self_s["lapack.svd"] / p,
        "alignment.dense_eig_per_trial": per_trial("alignment"),
        "covariance.dense_eig_per_trial": per_trial("covariance"),
        "io.read.calls": calls["io.read"] / p,
        "io.read.self_s": self_s["io.read"] / p,
        "io.read.mb": size["io.read"] / 1e6 / p,
        "io.write.calls": calls["io.write"] / p,
        "io.write.self_s": self_s["io.write"] / p,
        "io.write.mb": size["io.write"] / 1e6 / p,
    }
    for layer in ("proofcheck", "synth", "harness", "bounds", "estimators", "linalg", "cli"):
        m[f"{layer}.self_s"] = self_s[layer] / p
    return m
