"""Every text format: input files, the run config, and deterministic reports.

Text formats (whitespace-separated, ``#`` starts a comment line, numbers
written with 17 significant digits so values round-trip losslessly):

matrix        ``sym n`` header, then n rows of n entries; validated
              symmetric to ``linalg.SYMMETRY_TOL`` (absolute, 1e-12) on read,
              and a differently spelled pair averaged by ``linalg.symmetrize``.
observations  ``obs n p count`` header, then ``count`` lines ``i j value``
              with 1-based upper-triangular indices (i <= j).
samples       ``samples N n`` header, then N rows of n entries.
config        ``key = value`` lines, one per run-config field; unknown,
              duplicate and missing mandatory keys are errors here.  Which
              keys an experiment takes, and each value's domain, are
              :class:`ExperimentConfig`'s rules (:mod:`spectrunc.config`).

Decimal conversion is the cost of the file formats, so a ``sym n`` file
converts only its n(n+1)/2 distinct values: the writer formats each upper
entry once and reuses its text for a bitwise-equal mirror, and the reader
parses a lower token only where its text differs from the upper token it
mirrors.  Output bytes and parsed bits are those of converting every entry.

Files stream: the ``*_file`` readers parse about 16 Ki characters of whole
lines at a time and :func:`write_matrix` writes a row at a time, through
the parsers and row formatter that the text functions use.  Besides the
array they hold one block or row of text, and for a ``sym n`` file the
pending mirror text: each column's upper tokens so far, which its lower
part is compared with or reuses (:class:`_Mirror`).  At most n^2/4
tokens are pending: 0.65 to 0.8 times the array for 17-digit entries of
20 to 23 characters.
Faults are reported in the order of a reader that holds the whole file.

Reports serialize to JSON (full nested structure, config and tool stamp
included) or CSV (one row per trial, fixed column set across all
experiments).  Serialization contains nothing volatile -- two runs with
identical inputs produce byte-identical output; in particular measured
wall-clock time is reported on stderr by the CLI but never serialized.
The writers take each document as it is: a numpy scalar, as Python-API
inputs may leave in a record or a bound result, is written as its Python
value, and a CSV cell is ``true``/``false`` for a bool, empty for None and
``%.17g`` for a float.  JSON holds no ``Infinity`` or ``NaN``: a non-finite
float raises ValueError, and any other value json cannot write TypeError.
"""

from __future__ import annotations

import array
import dataclasses
import inspect
import json
import math
import types
import typing
from typing import TYPE_CHECKING, Any, Iterator, TextIO

from .config import ExperimentConfig

if TYPE_CHECKING:
    import numpy as np

    from .estimators import ObservationSet, SampleSet
    from .harness import ExperimentReport
    from .proofcheck import AlignmentReport

__all__ = [
    "FormatError",
    "read_matrix",
    "read_matrix_file",
    "matrix_bytes",
    "write_matrix",
    "read_observations",
    "read_observations_file",
    "observations_bytes",
    "read_samples",
    "read_samples_file",
    "samples_bytes",
    "parse_value",
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


#: characters of whole lines read from a file at a time (one line at least)
_BLOCK = 1 << 14


def _file_lines(fh: TextIO) -> Iterator[str]:
    """The lines of an open text file, as ``str.splitlines`` splits its whole text.

    The file is read as ``readlines(_BLOCK)``, which never cuts a line, and
    each of its lines is split with ``str.splitlines``, so ``\\r\\n``, a
    form feed, ``\\u2028`` or another separator it knows ends a line in a
    file too.  One block's list of lines is held at a time.
    """
    while True:
        lines = fh.readlines(_BLOCK)
        if not lines:
            return
        for line in lines:
            yield from line.splitlines()
        del lines  # before the next block is read


class _DataLines:
    """``(line number, stripped line)`` for every non-blank, non-comment line of a source.

    ``source`` is a text or an open text file (:func:`_file_lines`); the
    lines are numbered as in the whole text.  Iterating gives the one
    generator that reads them, which also counts them, so a parser's loop
    runs on it directly.  As a context, after :meth:`declare`, it guards the
    parse of the data lines a header declares.
    """

    __slots__ = ("_taken", "_lines", "_hline", "_count", "_what")

    def __init__(self, source: str | TextIO):
        self._taken = 0
        self._lines = self._read(source)

    def __iter__(self) -> Iterator[tuple[int, str]]:
        return self._lines

    def _read(self, source: str | TextIO) -> Iterator[tuple[int, str]]:
        raws = source.splitlines() if isinstance(source, str) else _file_lines(source)
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


def _parse_matrix(source: str | TextIO) -> np.ndarray:
    """``sym n`` text or file as a symmetric float64 array, one row at a time.

    Each row's upper part (j >= i) goes through ``float``; a lower token is
    converted only where its text differs from the upper token it mirrors,
    and otherwise takes that token's value, which is what ``float`` gives
    for equal text.  So only such differently spelled pairs can be
    asymmetric, and only they are checked, after the last row.  Where there
    are any, ``linalg.symmetrize`` averages the matrix, which leaves every
    exactly mirrored pair with its bits; otherwise nothing is averaged, so
    a file :func:`write_matrix` wrote reads back bit for bit.
    """
    import numpy as np

    from .linalg import SYMMETRY_TOL, symmetrize

    lines = _DataLines(source)
    hline, htok = lines.header("matrix", "sym n")
    n = _parse_int(htok[1], hline, "dimension")
    if n < 1:
        raise FormatError(f"dimension must be >= 1, got {n}", hline)
    row_lines: list[int] = []
    spelled = array.array("q")  # i * n + j of each lower entry converted itself
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
                        upper = upper.split(" ")
                        for j in [j for j, (a, b) in enumerate(zip(tok, upper)) if a != b]:
                            A[i, j] = float(tok[j])
                            spelled.append(i * n + j)
                    ok = np.isfinite(A[i]).all()
            except ValueError:
                ok = False
            if not ok:
                _row_error(tok, n, ln, "matrix entry")
            row_lines.append(ln)
            mirror.push(i, tok[i + 1 :])
    r, c = np.divmod(np.frombuffer(spelled, dtype=np.int64), n)  # lower (r, c), upper (c, r)
    with np.errstate(over="ignore"):
        asym = np.abs(A[r, c] - A[c, r])
    worst = asym.max(initial=0.0)
    if worst > SYMMETRY_TOL:
        # the first such entry in row order, which is an upper one
        at = np.flatnonzero(asym == worst)
        k = at[np.argmin(c[at] * n + r[at])]
        raise FormatError(
            f"matrix not symmetric at ({c[k] + 1}, {r[k] + 1}): |A_ij - A_ji| = {worst:.3e}",
            row_lines[c[k]],
        )
    return symmetrize(A) if spelled else A


def read_matrix(text: str) -> np.ndarray:
    """Parse ``sym n`` text; the same parser reads files in :func:`read_matrix_file`."""
    return _parse_matrix(text)


def read_matrix_file(path) -> np.ndarray:
    """Read a ``sym n`` file line by line into a symmetric float64 array."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_matrix(fh)


def _matrix_lines(A: np.ndarray) -> Iterator[str]:
    """``sym n`` text of a square matrix, one newline-terminated line at a time.

    Every entry is written as ``format(v, ".17g")``.  Each row's upper part
    (j >= i) is formatted once; an entry below the diagonal reuses its
    mirror's text where the two are bitwise equal (so 0.0 and -0.0 stay
    distinct) and is formatted itself otherwise.
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


def matrix_bytes(A: np.ndarray) -> bytes:
    """``sym n`` text of a square matrix, as :func:`write_matrix` writes it."""
    return "".join(_matrix_lines(A)).encode()


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


def _parse_observations(source: str | TextIO) -> ObservationSet:
    """``obs n p count`` text or file as an :class:`ObservationSet`, one line at a time.

    Indices and values go straight into C arrays, with each line's line
    number for naming a repeated position, so no Python number outlives
    its line.  Only a line that fails the checks is walked token by token,
    to name its fault.
    """
    import numpy as np

    from .estimators import ObservationSet

    lines = _DataLines(source)
    hline, htok = lines.header("observation", "obs n p count")
    n = _parse_int(htok[1], hline, "dimension")
    p = _parse_float(htok[2], hline, "observation probability")
    count = _parse_int(htok[3], hline, "observation count")
    rows, cols, vals, at = array.array("q"), array.array("q"), array.array("d"), array.array("q")
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


def read_observations(text: str) -> ObservationSet:
    """Parse ``obs n p count`` text, as :func:`read_observations_file` reads a file."""
    return _parse_observations(text)


def read_observations_file(path) -> ObservationSet:
    """Read an ``obs n p count`` file line by line."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_observations(fh)


def observations_bytes(obs: ObservationSet) -> bytes:
    entries = zip((obs.rows + 1).tolist(), (obs.cols + 1).tolist(), obs.values.tolist())
    return _lines_bytes(
        f"obs {obs.n} {_fmt(obs.p)} {obs.count}", ("%d %d %.17g" % e for e in entries)
    )


# ----------------------------------------------------------------- samples


def _parse_samples(source: str | TextIO) -> SampleSet:
    """``samples N n`` text or file as a :class:`SampleSet`, one row at a time.

    A row converts whole, each token through ``float``; only a row that
    fails (a token ``float`` rejects, or a non-finite value) is walked token
    by token, to name its first bad token.
    """
    import numpy as np

    from .estimators import SampleSet

    lines = _DataLines(source)
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


def read_samples(text: str) -> SampleSet:
    """Parse ``samples N n`` text, as :func:`read_samples_file` reads a file."""
    return _parse_samples(text)


def read_samples_file(path) -> SampleSet:
    """Read a ``samples N n`` file line by line."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_samples(fh)


def samples_bytes(samples: SampleSet) -> bytes:
    fmt = " ".join(["%.17g"] * samples.X.shape[1])  # "%.17g" % v == format(v, ".17g")
    rows = (fmt % tuple(row.tolist()) for row in samples.X)
    return _lines_bytes(f"samples {samples.N} {samples.n}", rows)


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
    return _parse_config(text)


def read_config(path) -> ExperimentConfig:
    """Read a config file line by line, as :func:`parse_config` reads text."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_config(fh)


def _parse_config(source: str | TextIO) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for ln, s in _DataLines(source):
        joined = " ".join(s.split())
        if "=" not in joined:
            raise FormatError("expected 'key = value'", ln)
        key, _, value = joined.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise FormatError("expected 'key = value'", ln)
        if key in raw:
            raise FormatError(f"duplicate key {key!r}", ln)
        raw[key] = value

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
    """Full nested report as canonical JSON bytes (runtime excluded)."""
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
    return _lines_bytes(
        "name,lhs,rhs,slack,passed",
        (_csv_line([c.name, c.lhs, c.rhs, c.slack, c.passed]) for c in report.checks),
    )


def _bound_doc(result: Any) -> dict[str, Any]:
    """The result's fields; a non-finite one (an overflow) raises ValueError naming it."""
    doc = dataclasses.asdict(result) if dataclasses.is_dataclass(result) else {"value": result}
    for name, v in doc.items():
        v = _py(v)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"bound result field {name!r} is not finite: {v}")
    return doc


def bound_json_bytes(result: Any) -> bytes:
    """Any :mod:`spectrunc.bounds` result, a report dataclass or a scalar, as JSON."""
    return _json_bytes(_bound_doc(result))


def bound_csv_bytes(result: Any) -> bytes:
    """Any bounds result as a header and one row; dict fields (``inputs``) are dropped."""
    doc = {k: v for k, v in _bound_doc(result).items() if not isinstance(v, dict)}
    return _lines_bytes(_csv_line(doc), [_csv_line(doc.values())])
