"""File formats, config parsing and deterministic report serialization.

Text formats (whitespace-separated, ``#`` starts a comment line, numbers
written with 17 significant digits so values round-trip losslessly):

matrix        ``sym n`` header, then n rows of n entries; validated
              symmetric to absolute tolerance 1e-12 on read.
observations  ``obs n p count`` header, then ``count`` lines ``i j value``
              with 1-based upper-triangular indices (i <= j).
samples       ``samples N n`` header, then N rows of n entries.
config        ``key = value`` lines; unknown or duplicate keys are errors.
              Read by :mod:`spectrunc.config`, whose names this module
              re-exports.

Decimal conversion is the cost of the file formats, so a ``sym n`` file
converts only its n(n+1)/2 distinct values: the writer formats each upper
entry once and reuses its text for a bitwise-equal mirror, and the reader
parses a lower token only where its text differs from the upper token it
mirrors.  Output bytes and parsed bits are those of converting every entry.

Reports serialize to JSON (full nested structure, config and tool stamp
included) or CSV (one row per trial, fixed column set across all
experiments).  Serialization contains nothing volatile -- two runs with
identical inputs produce byte-identical output; in particular measured
wall-clock time is reported on stderr by the CLI but never serialized.
"""

from __future__ import annotations

import array
import dataclasses
import json
import math
import sys
from typing import TYPE_CHECKING, Any

from .config import (  # re-exported: the config format is one of the file formats
    ExperimentConfig,
    FormatError,
    _data_lines,
    parse_config,
    parse_value,
    read_config,
)

if TYPE_CHECKING:
    import numpy as np

    from .estimators import ObservationSet, SampleSet
    from .harness import ExperimentReport
    from .proofcheck import AlignmentReport

__all__ = [
    "FormatError",
    "read_matrix",
    "matrix_bytes",
    "read_observations",
    "observations_bytes",
    "read_samples",
    "samples_bytes",
    "parse_value",
    "parse_config",
    "read_config",
    "report_json_bytes",
    "report_csv_bytes",
    "alignment_json_bytes",
    "alignment_csv_bytes",
    "bound_json_bytes",
    "bound_csv_bytes",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_float(tok: str, line: int, what: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise FormatError(f"invalid {what} {tok!r}", line) from None
    if not math.isfinite(v):
        raise FormatError(f"{what} must be finite, got {tok!r}", line)
    return v


def _parse_int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"invalid {what} {tok!r}", line) from None


def _read_rows(lines: list[tuple[int, str]], width: int, what: str) -> np.ndarray:
    """Parse data lines into a ``(len(lines), width)`` float array, one line at a time.

    A line converts whole, each token through ``float``; only a line that fails
    (a token ``float`` rejects, or a non-finite value) is walked token by token,
    to name its first bad token.  Lines are checked in order, so the first bad
    line is the one reported.
    """
    import numpy as np

    out = np.empty((len(lines), width))
    for r, (ln, s) in enumerate(lines):
        tok = s.split()
        if len(tok) != width:
            raise FormatError(f"expected {width} entries in row, found {len(tok)}", ln)
        try:
            out[r] = list(map(float, tok))
            ok = np.isfinite(out[r]).all()
        except ValueError:
            ok = False
        if not ok:
            for t in tok:  # raises at the first bad token
                _parse_float(t, ln, what)
    return out


def _table_bytes(header: str, fmt: str, rows) -> bytes:
    """``header``, then one line ``fmt % row`` per row tuple; newline-terminated."""
    return ("\n".join([header, *(fmt % row for row in rows)]) + "\n").encode()


def _float_rows_bytes(header: str, X: np.ndarray) -> bytes:
    """``header``, then each row of ``X`` with every entry as ``format(v, ".17g")``."""
    fmt = " ".join(["%.17g"] * X.shape[1])  # "%.17g" % v == format(v, ".17g")
    return _table_bytes(header, fmt, (tuple(row.tolist()) for row in X))


# ---------------------------------------------------------------- matrices


def _read_sym_rows(lines: list[tuple[int, str]], n: int) -> np.ndarray | None:
    """Parse ``n`` rows of ``n`` entries, converting each distinct token once.

    Each row's upper part (j >= i) goes through ``float``; a lower token is
    converted only where its text differs from the upper token it mirrors,
    and otherwise takes that token's value, which is what ``float`` gives
    for equal text.  Returns None on any malformed row or non-finite value,
    for :func:`_read_rows` to name the first bad line.
    """
    import numpy as np

    A = np.empty((n, n))
    pending: list[list[str] | None] = [[] for _ in range(n)]  # column j's upper tokens
    for i, (_, s) in enumerate(lines):
        tok = s.split()
        if len(tok) != n:
            return None
        try:
            A[i, i:] = list(map(float, tok[i:]))
            A[i, :i] = A[:i, i]
            lower, mirror = tok[:i], pending[i]
            if lower != mirror:
                for j in [j for j, (a, b) in enumerate(zip(lower, mirror)) if a != b]:
                    A[i, j] = float(lower[j])
        except ValueError:
            return None
        pending[i] = None
        for col, t in zip(pending[i + 1 :], tok[i + 1 :]):
            col.append(t)
    return A if np.isfinite(A).all() else None


def read_matrix(text: str) -> np.ndarray:
    import numpy as np

    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty matrix file")
    hline, htok = lines[0][0], lines[0][1].split()
    if len(htok) != 2 or htok[0] != "sym":
        raise FormatError("expected header 'sym n'", hline)
    n = _parse_int(htok[1], hline, "dimension")
    if n < 1:
        raise FormatError(f"dimension must be >= 1, got {n}", hline)
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} data rows, found {len(lines) - 1}", hline)
    A = _read_sym_rows(lines[1:], n)
    if A is None:  # the row walk converts every token and names the first bad line
        A = _read_rows(lines[1:], n, "matrix entry")
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(A - A.T)
        if asym.size and asym.max() > 1e-12:
            r, c = np.unravel_index(np.argmax(asym), asym.shape)
            raise FormatError(
                f"matrix not symmetric at ({r + 1}, {c + 1}): "
                f"|A_ij - A_ji| = {asym[r, c]:.3e}",
                lines[1 + int(r)][0],
            )
        S = (A + A.T) / 2.0
    if not np.all(np.isfinite(S)):
        # entries above half the float range overflow in A + A.T; halving
        # first is exact there (such values are far from subnormal)
        S = A / 2.0 + A.T / 2.0
    return S


def matrix_bytes(A: np.ndarray) -> bytes:
    """``sym n`` text of a square matrix, every entry as ``format(v, ".17g")``.

    Each row's upper part (j >= i) is formatted once; an entry below the
    diagonal reuses its mirror's text where the two are bitwise equal (so
    0.0 and -0.0 stay distinct) and is formatted itself otherwise.
    """
    import numpy as np

    A = np.ascontiguousarray(A, dtype=np.float64)
    n = A.shape[0]
    bits = A.view(np.uint64)
    fmt = " ".join(["%.17g"] * n)
    pending: list[list[str] | None] = [[] for _ in range(n)]  # column j's upper texts
    rows = [f"sym {n}".encode()]
    for i in range(n):
        upper = (fmt[6 * i :] % tuple(A[i, i:].tolist())).split(" ")
        lower, pending[i] = pending[i], None
        for j in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
            lower[j] = _fmt(A[i, j])
        rows.append(" ".join(lower + upper).encode())
        for col, t in zip(pending[i + 1 :], upper[1:]):
            col.append(t)
    rows.append(b"")  # the final newline
    return b"\n".join(rows)


# ------------------------------------------------------------ observations


def _convert_observations(lines: list[tuple[int, str]]):
    """``i j value`` lines as int64, int64 and float arrays, unchecked.

    Raises ValueError on a line without three tokens or a token that ``int``
    or ``float`` rejects, and OverflowError on an index beyond int64.  The
    numbers go straight into C arrays, so no Python number outlives its line.
    """
    import numpy as np

    rows, cols, vals = array.array("q"), array.array("q"), array.array("d")
    for _, s in lines:
        i, j, v = s.split()
        rows.append(int(i))
        cols.append(int(j))
        vals.append(float(v))
    return (
        np.frombuffer(rows, dtype=np.int64),
        np.frombuffer(cols, dtype=np.int64),
        np.frombuffer(vals, dtype=np.float64),
    )


def read_observations(text: str) -> ObservationSet:
    import numpy as np

    from .estimators import ObservationSet

    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty observation file")
    hline, htok = lines[0][0], lines[0][1].split()
    if len(htok) != 4 or htok[0] != "obs":
        raise FormatError("expected header 'obs n p count'", hline)
    n = _parse_int(htok[1], hline, "dimension")
    p = _parse_float(htok[2], hline, "observation probability")
    count = _parse_int(htok[3], hline, "observation count")
    if len(lines) - 1 != count:
        raise FormatError(f"expected {count} observation lines, found {len(lines) - 1}", hline)
    try:
        rows, cols, vals = _convert_observations(lines[1:])
        ok = ((1 <= rows) & (rows <= cols) & (cols <= n)).all() and np.isfinite(vals).all()
    except (ValueError, OverflowError):
        ok = False
    if ok:
        rows -= 1
        cols -= 1
    else:  # convert again line by line, raising at the first bad line
        rows = np.empty(count, dtype=np.int64)
        cols = np.empty(count, dtype=np.int64)
        vals = np.empty(count)
        for idx, (ln, s) in enumerate(lines[1:]):
            tok = s.split()
            if len(tok) != 3:
                raise FormatError("expected 'i j value'", ln)
            i = _parse_int(tok[0], ln, "row index")
            j = _parse_int(tok[1], ln, "column index")
            if not 1 <= i <= j <= n:
                raise FormatError(
                    f"indices must satisfy 1 <= i <= j <= {n}, got ({i}, {j})", ln
                )
            rows[idx] = i - 1
            cols[idx] = j - 1
            vals[idx] = _parse_float(tok[2], ln, "observed value")
    try:
        return ObservationSet(n=n, p=p, rows=rows, cols=cols, values=vals)
    except ValueError as e:
        if "duplicate" in str(e):  # only a failing read pays for locating the repeat
            first: dict[tuple[int, int], int] = {}
            for (ln, _), i, j in zip(lines[1:], rows.tolist(), cols.tolist()):
                if (i, j) in first:
                    msg = f"duplicate observation position ({i + 1}, {j + 1}), first on line"
                    raise FormatError(f"{msg} {first[i, j]}", ln) from None
                first[i, j] = ln
        raise FormatError(str(e), hline) from None


def observations_bytes(obs: ObservationSet) -> bytes:
    return _table_bytes(
        f"obs {obs.n} {_fmt(obs.p)} {obs.count}",
        "%d %d %.17g",
        zip((obs.rows + 1).tolist(), (obs.cols + 1).tolist(), obs.values.tolist()),
    )


# ----------------------------------------------------------------- samples


def read_samples(text: str) -> SampleSet:
    from .estimators import SampleSet

    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty sample file")
    hline, htok = lines[0][0], lines[0][1].split()
    if len(htok) != 3 or htok[0] != "samples":
        raise FormatError("expected header 'samples N n'", hline)
    N = _parse_int(htok[1], hline, "sample count")
    n = _parse_int(htok[2], hline, "dimension")
    if N < 1 or n < 1:
        raise FormatError("sample count and dimension must be >= 1", hline)
    if len(lines) - 1 != N:
        raise FormatError(f"expected {N} sample rows, found {len(lines) - 1}", hline)
    return SampleSet(N=N, n=n, X=_read_rows(lines[1:], n, "sample entry"))


def samples_bytes(samples: SampleSet) -> bytes:
    return _float_rows_bytes(f"samples {samples.N} {samples.n}", samples.X)


# ----------------------------------------------------------------- reports

#: fixed CSV schema: one row per trial, identical columns for every experiment
CSV_COLUMNS = (
    "trial_id",
    "precondition_holds",
    "precondition_margin",
    "measured_error_F",
    "measured_error_2",
    "tail_F",
    "tail_2",
    "ratio_F",
    "bound_value",
    "bound_satisfied",
    "delta",
    "k_used",
    "p",
    "observed_count",
    "mu0",
    "gamma_k",
    "stable_rank",
    "effective_rank",
    "m1",
    "m2",
    "nu",
    "noise_norm_2",
    "threshold_raw",
    "threshold_clamped",
    "threshold_vacuous",
    "err_full_F",
    "rate_frobenius",
    "rate_spectral",
    "beats_guarantee",
    "beats_full",
    "admissibility_expr",
    "rate",
    "direction_trial",
    "sin_head_alignment",
    "sin_tail_separation",
    "sin_subspace_capture",
    "sin_reference_range_alignment",
    "checks_passed",
    "checks_total",
    "all_checks_passed",
)



def _scalar(v: Any) -> Any:
    """A numpy bool, integer or float scalar as its Python value; others unchanged.

    numpy is looked up, not imported: a numpy scalar exists only once it is loaded.
    """
    np = sys.modules.get("numpy")
    if np is None:
        return v
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def _csv_cell(v: Any) -> str:
    v = _scalar(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def report_csv_bytes(report: ExperimentReport) -> bytes:
    from .harness import TrialRecord

    own = {f.name for f in dataclasses.fields(TrialRecord)}  # the rest come from aux
    rows = [",".join(CSV_COLUMNS)]
    rows += [
        ",".join(
            _csv_cell(getattr(r, col) if col in own else r.aux.get(col)) for col in CSV_COLUMNS
        )
        for r in report.trials
    ]
    return ("\n".join(rows) + "\n").encode()


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return _scalar(obj)


def report_json_bytes(report: ExperimentReport) -> bytes:
    """Full nested report as canonical JSON bytes (runtime excluded)."""
    doc = {
        "tool": report.tool,
        "experiment": report.experiment,
        "config": dataclasses.asdict(report.config),
        "pass_rate": report.pass_rate,
        "aggregates": _jsonable(report.aggregates),
        "trials": [_jsonable(dataclasses.asdict(r)) for r in report.trials],
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def alignment_json_bytes(report: AlignmentReport) -> bytes:
    doc = dataclasses.asdict(report)
    doc["all_passed"] = report.all_passed
    return (json.dumps(_jsonable(doc), indent=2) + "\n").encode()


def alignment_csv_bytes(report: AlignmentReport) -> bytes:
    rows = ["name,lhs,rhs,slack,passed"]
    rows += [
        f"{c.name},{_fmt(c.lhs)},{_fmt(c.rhs)},{_fmt(c.slack)},{_csv_cell(c.passed)}"
        for c in report.checks
    ]
    return ("\n".join(rows) + "\n").encode()


def _bound_doc(result: Any) -> dict[str, Any]:
    """The result's fields; a non-finite one (an overflow) raises ValueError naming it."""
    doc = dataclasses.asdict(result) if dataclasses.is_dataclass(result) else {"value": result}
    doc = _jsonable(doc)
    for name, v in doc.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"bound result field {name!r} is not finite: {v}")
    return doc


def bound_json_bytes(result: Any) -> bytes:
    """Any :mod:`spectrunc.bounds` result, a report dataclass or a scalar, as JSON."""
    return (json.dumps(_bound_doc(result), indent=2, allow_nan=False) + "\n").encode()


def bound_csv_bytes(result: Any) -> bytes:
    """Any bounds result as a header and one row; dict fields (``inputs``) are dropped."""
    doc = {k: v for k, v in _bound_doc(result).items() if not isinstance(v, dict)}
    return (",".join(doc) + "\n" + ",".join(map(_csv_cell, doc.values())) + "\n").encode()
