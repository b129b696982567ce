"""Every text format: input files, the run config, and deterministic reports.

Text formats (whitespace-separated, ``#`` starts a comment line, numbers
written with 17 significant digits so values round-trip losslessly):

matrix        ``sym n`` header, then n rows of n entries
              (:func:`read_matrix_file`, :func:`write_matrix`).
observations  ``obs n p count`` header, then ``count`` lines ``i j value``
              with 1-based upper-triangular indices (i <= j)
              (:func:`read_observations_file`).
samples       ``samples N n`` header, then N rows of n entries
              (:func:`read_samples_file`).
config        ``key = value`` lines, one per run-config field
              (:func:`read_config`, or :func:`parse_config` of its text).

Each data format has one reader, which reads its file a line at a time
through :class:`_DataLines`.  Reports serialize to JSON (the full nested
structure) or CSV (one row per trial, columns ``CSV_COLUMNS``).
"""

from __future__ import annotations

import array
import dataclasses
import inspect
import json
import math
import types
import typing
from typing import TYPE_CHECKING, Any, Iterable, Iterator, TextIO

from .config import ExperimentConfig

if TYPE_CHECKING:
    import numpy as np

    from .estimators import ObservationSet, SampleSet
    from .harness import ExperimentReport
    from .proofcheck import AlignmentReport

__all__ = [
    "FormatError",
    "read_matrix_file",
    "write_matrix",
    "read_observations_file",
    "read_samples_file",
    "parse_value",
    "parse_pairs",
    "parse_kwargs",
    "parse_config",
    "read_config",
    "report_json_bytes",
    "report_csv_bytes",
    "alignment_json_bytes",
    "alignment_csv_bytes",
    "bound_json_bytes",
    "bound_csv_bytes",
]


class FormatError(ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class _DataLines:
    """``(line number, stripped line)`` for every non-blank, non-comment line of ``chunks``.

    ``chunks`` is any iterable of text, such as an open text file, which
    gives a line at a time.  Each chunk is split by ``str.splitlines``, so
    ``\\r\\n``, a form feed, ``\\u2028`` or another separator it knows ends a
    line in a file too, and the lines are numbered as in the whole text.
    Iterating gives the one generator that reads them, which also counts
    them, so a reader's loop runs on it directly.
    """

    __slots__ = ("_taken", "_lines", "_hline", "_count", "_what")

    def __init__(self, chunks: Iterable[str]):
        self._taken = 0
        self._lines = self._read(chunks)

    def __iter__(self) -> Iterator[tuple[int, str]]:
        return self._lines

    def _read(self, chunks: Iterable[str]) -> Iterator[tuple[int, str]]:
        raws = (part for chunk in chunks for part in chunk.splitlines())
        for ln, raw in enumerate(raws, 1):
            s = raw.strip()
            if s and s[0] != "#":
                self._taken += 1
                yield ln, s

    def header(self, name: str, form: str) -> tuple[int, list[str]]:
        """Line number and tokens of the first data line, which must read as ``form``."""
        first = next(self._lines, None)
        if first is None:
            raise FormatError(f"empty {name} file")
        self._hline, s = first
        htok, words = s.split(), form.split()
        if len(htok) != len(words) or htok[0] != words[0]:
            raise FormatError(f"expected header '{form}'", self._hline)
        return self._hline, htok

    def declare(self, count: int, what: str) -> _DataLines:
        """The guard of a parse of the ``count`` data lines (``what``) the header declares."""
        self._count, self._what = count, what
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, etype, error, tb) -> None:
        """Count the data lines the parse left; a total other than the declared one wins.

        It is reported on the header in place of whatever the parse raised:
        a bad line, or an array too large to allocate.  And a bad line, raised
        in the parse's loop, comes ahead of any fault found after the last
        line: the order of checks of a reader that holds the whole file.
        """
        if etype is None or issubclass(etype, Exception):
            found = self._taken - 1 + sum(1 for _ in self._lines)  # all but the header
            if found != self._count:
                raise FormatError(f"expected {self._count} {self._what}, found {found}", self._hline)


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


def _row_error(tok: list[str], width: int, line: int, what: str) -> None:
    """Raise the fault of a rejected row: its entry count, or its first bad token."""
    if len(tok) != width:
        raise FormatError(f"expected {width} entries in row, found {len(tok)}", line)
    for t in tok:
        _parse_float(t, line, what)


def _lines_bytes(header: str, lines) -> bytes:
    """``header``, then each of ``lines``, each ended by a newline, as UTF-8."""
    return ("\n".join([header, *lines]) + "\n").encode()


# ---------------------------------------------------------------- matrices

#: rows of ``sym n`` text whose tokens in one column one :class:`_Mirror` string
#: joins; a multiple of ``_MIRROR_BATCH``, so that each string starts a batch
_MIRROR_ROWS = 32

#: rows whose tokens :class:`_Mirror` holds as they are before adding them to the strings
_MIRROR_BATCH = 8


class _Mirror:
    """Each column's upper tokens of the rows so far, which its lower part mirrors.

    Column j's text is a list of strings that each join, with single
    spaces, its tokens of ``_MIRROR_ROWS`` rows, followed by its tokens of
    the rows not yet added.  Rows are added ``_MIRROR_BATCH`` at a time,
    and every column past a batch takes a token of each of its rows, so
    all columns share the batch and chunk boundaries.  A batch extends only
    the newest string of each column: a token is copied at most
    ``_MIRROR_ROWS / _MIRROR_BATCH`` times, where re-joining a whole column
    would copy O(n^3) characters.
    """

    def __init__(self, n: int):
        self._columns: list[list[str] | None] = [[] for _ in range(n)]
        self._rows: list[tuple[int, list[str]]] = []  # (i, row i's tokens) not yet added

    def take(self, i: int) -> list[str]:
        """Column i's strings and tokens, for rows 0..i-1; the column is released."""
        pieces, self._columns[i] = self._columns[i], None
        pieces.extend([tokens[i - r - 1] for r, tokens in self._rows])
        return pieces

    def push(self, i: int, tokens: list[str]) -> None:
        """Add row i's tokens of columns i+1, i+2, ... to those columns."""
        self._rows.append((i, tokens))
        if len(self._rows) < _MIRROR_BATCH:
            return
        # the batch's tokens of each column past it, as one tuple per column
        batch = zip(*[tokens[i - r :] for r, tokens in self._rows])
        columns = self._columns[i + 1 :]
        if self._rows[0][0] % _MIRROR_ROWS == 0:
            for col, ts in zip(columns, batch):
                col.append(" ".join(ts))
        else:
            for col, ts in zip(columns, batch):
                col[-1] = f"{col[-1]} {' '.join(ts)}"
        self._rows = []


def read_matrix_file(path) -> np.ndarray:
    """A ``sym n`` file as a symmetric float64 array, read one row at a time.

    Only the n(n+1)/2 distinct values are converted: each row's upper part
    (j >= i) goes through ``float``, and a lower token only where its text
    differs from the upper token it mirrors (:class:`_Mirror`); otherwise
    it takes that token's value, which is what ``float`` gives for equal
    text.  So only a differently spelled pair can be asymmetric.  Where
    there is one, the matrix is checked after the last row by
    ``linalg.asymmetric_pair`` and averaged by ``linalg.symmetrize``;
    otherwise nothing is checked or averaged, so a file :func:`write_matrix`
    wrote reads back bit for bit.
    """
    import numpy as np

    from .linalg import asymmetric_pair, symmetrize

    with open(path, "r", encoding="utf-8") as fh:
        lines = _DataLines(fh)
        hline, htok = lines.header("matrix", "sym n")
        n = _parse_int(htok[1], hline, "dimension")
        if n < 1:
            raise FormatError(f"dimension must be >= 1, got {n}", hline)
        row_lines: list[int] = []
        spelled = False  # whether a lower entry was converted itself
        with lines.declare(n, "data rows"):
            A = np.empty((n, n))
            mirror = _Mirror(n)  # after A: a header too large to allocate builds no columns
            for i, (ln, s) in zip(range(n), lines):
                tok = s.split()
                ok = len(tok) == n
                try:
                    if ok:
                        A[i, i:] = list(map(float, tok[i:]))
                        A[i, :i] = A[:i, i]
                        upper = " ".join(mirror.take(i))
                        if " ".join(tok[:i]) != upper:
                            spelled = True
                            upper = upper.split(" ")
                            for j in [j for j, (a, b) in enumerate(zip(tok, upper)) if a != b]:
                                A[i, j] = float(tok[j])
                        ok = np.isfinite(A[i]).all()
                except ValueError:
                    ok = False
                if not ok:
                    _row_error(tok, n, ln, "matrix entry")
                row_lines.append(ln)
                mirror.push(i, tok[i + 1 :])
    if not spelled:
        return A
    pair = asymmetric_pair(A)
    if pair is not None:
        i, j, d = pair
        raise FormatError(
            f"matrix not symmetric at ({i + 1}, {j + 1}): |A_ij - A_ji| = {d:.3e}", row_lines[i]
        )
    return symmetrize(A)


def _matrix_lines(A: np.ndarray) -> Iterator[str]:
    """``sym n`` text of a square matrix, one newline-terminated line at a time.

    Every entry is written as ``format(v, ".17g")``, but only the distinct
    values are formatted: each row's upper part (j >= i) once, and an entry
    below the diagonal only where it differs bitwise from its mirror (so
    0.0 and -0.0 stay distinct); otherwise it reuses the mirror's text
    (:class:`_Mirror`).
    """
    import numpy as np

    A = np.ascontiguousarray(A, dtype=np.float64)
    n = A.shape[0]
    bits = A.view(np.uint64)
    fmt = " ".join(["%.17g"] * n)
    mirror = _Mirror(n)
    yield f"sym {n}\n"
    for i in range(n):
        upper = (fmt[6 * i :] % tuple(A[i, i:].tolist())).split(" ")
        lower = mirror.take(i)
        differ = np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist()
        if differ:
            lower = " ".join(lower).split(" ")
            for j in differ:
                lower[j] = _fmt(A[i, j])
        yield " ".join(lower + upper) + "\n"
        mirror.push(i, upper[1:])


def write_matrix(A: np.ndarray, fh: TextIO) -> None:
    """Write ``sym n`` text of a square matrix to ``fh``, one row at a time."""
    fh.writelines(_matrix_lines(A))


# ------------------------------------------------------------ observations


def _observation_error(s: str, line: int, n: int) -> None:
    """Raise the fault of a rejected ``i j value`` line, checked token by token."""
    tok = s.split()
    if len(tok) != 3:
        raise FormatError("expected 'i j value'", line)
    i = _parse_int(tok[0], line, "row index")
    j = _parse_int(tok[1], line, "column index")
    if not 1 <= i <= j <= n:
        raise FormatError(f"indices must satisfy 1 <= i <= j <= {n}, got ({i}, {j})", line)
    _parse_float(tok[2], line, "observed value")


def read_observations_file(path) -> ObservationSet:
    """An ``obs n p count`` file as an :class:`ObservationSet`, read one line at a time.

    Indices and values go straight into C arrays, with each line's line
    number for naming a repeated position, so no Python number outlives
    its line.  Only a line that fails the checks is walked token by token,
    to name its fault.
    """
    import numpy as np

    from .estimators import ObservationSet

    with open(path, "r", encoding="utf-8") as fh:
        lines = _DataLines(fh)
        hline, htok = lines.header("observation", "obs n p count")
        n = _parse_int(htok[1], hline, "dimension")
        p = _parse_float(htok[2], hline, "observation probability")
        count = _parse_int(htok[3], hline, "observation count")
        if n < 1:
            raise FormatError(f"n must be >= 1, got {n}", hline)
        if count < 0:
            raise FormatError(f"observation count must be >= 0, got {count}", hline)
        rows, cols, at = array.array("q"), array.array("q"), array.array("q")
        vals = array.array("d")
        with lines.declare(count, "observation lines"):
            for ln, s in lines:  # lines past ``count`` are parsed too; the count check wins
                try:
                    i, j, v = s.split()
                    i = int(i)
                    j = int(j)
                    v = float(v)
                    ok = 0 < i <= j <= n and v - v == 0  # v - v is nan for inf and nan
                except ValueError:
                    ok = False
                if not ok:
                    _observation_error(s, ln, n)
                rows.append(i - 1)
                cols.append(j - 1)
                vals.append(v)
                at.append(ln)
    rows = np.frombuffer(rows, dtype=np.int64)
    cols = np.frombuffer(cols, dtype=np.int64)
    try:
        return ObservationSet(
            n=n, p=p, rows=rows, cols=cols, values=np.frombuffer(vals, dtype=np.float64)
        )
    except ValueError as e:
        if "duplicate" in str(e):  # only a failing read pays for locating the repeat
            first: dict[tuple[int, int], int] = {}
            for ln, i, j in zip(at, rows.tolist(), cols.tolist()):
                if (i, j) in first:
                    msg = f"duplicate observation position ({i + 1}, {j + 1}), first on line"
                    raise FormatError(f"{msg} {first[i, j]}", ln) from None
                first[i, j] = ln
        raise FormatError(str(e), hline) from None


# ----------------------------------------------------------------- samples


def read_samples_file(path) -> SampleSet:
    """A ``samples N n`` file as a :class:`SampleSet`, read one row at a time.

    A row converts whole, each token through ``float``; only a row that
    fails (a token ``float`` rejects, or a non-finite value) is walked token
    by token, to name its first bad token.
    """
    import numpy as np

    from .estimators import SampleSet

    with open(path, "r", encoding="utf-8") as fh:
        lines = _DataLines(fh)
        hline, htok = lines.header("sample", "samples N n")
        N = _parse_int(htok[1], hline, "sample count")
        n = _parse_int(htok[2], hline, "dimension")
        if N < 1 or n < 1:
            raise FormatError("sample count and dimension must be >= 1", hline)
        with lines.declare(N, "sample rows"):
            X = np.empty((N, n))
            for r, (ln, s) in zip(range(N), lines):
                tok = s.split()
                ok = len(tok) == n
                try:
                    if ok:
                        X[r] = list(map(float, tok))
                        ok = np.isfinite(X[r]).all()
                except ValueError:
                    ok = False
                if not ok:
                    _row_error(tok, n, ln, "sample entry")
    return SampleSet(N=N, n=n, X=X)


# ------------------------------------------------------------------ config


def parse_value(text: str, annotation: Any) -> Any:
    """Convert one config or ``--set`` value by its parameter's type annotation.

    ``X | None`` converts as ``X``; a tuple of floats accepts comma- or
    space-separated values.  Floats, alone or in a tuple, must be finite.
    """
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        (annotation,) = [a for a in typing.get_args(annotation) if a is not type(None)]
    if typing.get_origin(annotation) is tuple:
        value = floats = tuple(float(v) for v in text.replace(",", " ").split())
    else:
        value = annotation(text)
        floats = (value,) if annotation is float else ()
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{text!r} is not finite")
    return value


def parse_kwargs(params: dict[str, inspect.Parameter], raw: dict[str, str]) -> dict[str, Any]:
    """Bind ``key -> text`` inputs to the parameters ``params`` names by key.

    Raises ValueError naming every unknown key, then every missing key of a
    parameter without a default, each list sorted, then the first value
    :func:`parse_value` rejects.  Returns the keyword arguments, keyed by
    each parameter's ``.name``.
    """
    unknown = sorted(set(raw) - set(params))
    if unknown:
        raise ValueError(f"unknown key(s): {', '.join(unknown)}")
    missing = sorted(key for key, p in params.items() if p.default is p.empty and key not in raw)
    if missing:
        raise ValueError(f"missing mandatory key(s): {', '.join(missing)}")
    kwargs = {}
    for key, text in raw.items():
        try:
            kwargs[params[key].name] = parse_value(text, params[key].annotation)
        except ValueError as e:
            raise ValueError(f"invalid value for {key!r}: {e}") from None
    return kwargs


#: config key -> its :class:`ExperimentConfig` parameter; ``k_oracle`` is spelled ``k = oracle``
_CONFIG_PARAMS = {
    "spectrum" if name == "spectrum_kind" else name: p
    for name, p in inspect.signature(ExperimentConfig, eval_str=True).parameters.items()
    if name != "k_oracle"
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` experiment configuration text.

    The keys are the :class:`ExperimentConfig` fields (``spectrum`` for
    ``spectrum_kind``, ``k = oracle`` for ``k_oracle``).  Fields without a
    default are mandatory.  Unknown and duplicate keys are rejected by name;
    another experiment's parameter is rejected by :class:`ExperimentConfig`.
    """
    return _parse_config([text])


def read_config(path) -> ExperimentConfig:
    """Read a config file line by line, as :func:`parse_config` reads its text."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_config(fh)


def parse_pairs(items: Iterable[tuple[int | None, str]], malformed: str,
                duplicate: str) -> dict[str, str]:
    """``key -> value`` of ``key = value`` items, each with its line number or None.

    The one splitter of config lines and ``bounds --set`` items: whitespace
    runs read as one space around a stripped key and value, so ``k=3`` and
    ``k = 3`` bind alike.  An item without ``=``, a key or a value, and a
    repeated key, raise :class:`FormatError` on the item's line, from the
    template ``malformed`` (given ``item``) or ``duplicate`` (given ``key``).
    """
    raw: dict[str, str] = {}
    for ln, item in items:
        key, eq, value = " ".join(item.split()).partition("=")
        key, value = key.strip(), value.strip()
        if not (eq and key and value):
            raise FormatError(malformed.format(item=item), ln)
        if key in raw:
            raise FormatError(duplicate.format(key=key), ln)
        raw[key] = value
    return raw


def _parse_config(chunks: Iterable[str]) -> ExperimentConfig:
    raw = parse_pairs(_DataLines(chunks), "expected 'key = value'", "duplicate key {key!r}")
    oracle = raw.get("k") == "oracle"
    if oracle:
        del raw["k"]
    try:
        return ExperimentConfig(**parse_kwargs(_CONFIG_PARAMS, raw), k_oracle=oracle)
    except ValueError as e:
        raise FormatError(str(e)) from None


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


def _py(v: Any) -> Any:
    """A numpy scalar as its Python value (``v.item()``); any other value unchanged."""
    return v.item() if type(v).__module__ == "numpy" else v


def _csv_cell(v: Any) -> str:
    """A CSV cell: ``true``/``false`` for a bool, empty for None, ``%.17g`` for a float."""
    v = _py(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _csv_line(cells) -> str:
    """``cells`` as :func:`_csv_cell` writes them, separated by commas."""
    return ",".join(map(_csv_cell, cells))


def _json_scalar(v: Any) -> Any:
    """json's hook for what it cannot write: a numpy scalar's Python value, or TypeError."""
    if type(v).__module__ == "numpy":
        return v.item()
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_bytes(doc: Any) -> bytes:
    """``doc`` as indented JSON with a final newline; a non-finite float raises ValueError."""
    return (json.dumps(doc, indent=2, allow_nan=False, default=_json_scalar) + "\n").encode()


def report_csv_bytes(report: ExperimentReport) -> bytes:
    rows = ({**r.aux, **vars(r)} for r in report.trials)  # a record field wins over aux
    lines = (_csv_line([row.get(col) for col in CSV_COLUMNS]) for row in rows)
    return _lines_bytes(_csv_line(CSV_COLUMNS), lines)


def report_json_bytes(report: ExperimentReport) -> bytes:
    """Full nested report as canonical JSON bytes."""
    return _json_bytes(
        {
            "tool": report.tool,
            "experiment": report.config.experiment,
            "config": dataclasses.asdict(report.config),
            "pass_rate": report.pass_rate,
            "aggregates": report.aggregates,
            "trials": [vars(r) for r in report.trials],
        }
    )


def alignment_json_bytes(report: AlignmentReport) -> bytes:
    doc = dataclasses.asdict(report)
    doc["all_passed"] = report.all_passed
    return _json_bytes(doc)


def alignment_csv_bytes(report: AlignmentReport) -> bytes:
    """A header of ``proofcheck.AlignmentCheck``'s fields, then one row per check."""
    from .proofcheck import AlignmentCheck

    header = _csv_line(f.name for f in dataclasses.fields(AlignmentCheck))
    return _lines_bytes(header, (_csv_line(dataclasses.astuple(c)) for c in report.checks))


def _check_fields(doc: dict[str, Any], what: str) -> None:
    """Raise ValueError naming the first float of ``doc`` that is not finite (an overflow)."""
    for name, v in doc.items():
        v = _py(v)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{what} field {name!r} is not finite: {v}")


def _bound_doc(result: Any) -> dict[str, Any]:
    """The result's fields, checked by :func:`_check_fields`."""
    doc = dataclasses.asdict(result) if dataclasses.is_dataclass(result) else {"value": result}
    _check_fields(doc, "bound result")
    return doc


def bound_json_bytes(result: Any) -> bytes:
    """Any :mod:`spectrunc.bounds` result, a report dataclass or a scalar, as JSON."""
    return _json_bytes(_bound_doc(result))


def bound_csv_bytes(result: Any) -> bytes:
    """Any bounds result as a header and one row; dict fields (``inputs``) are dropped."""
    doc = {k: v for k, v in _bound_doc(result).items() if not isinstance(v, dict)}
    return _lines_bytes(_csv_line(doc), [_csv_line(doc.values())])
