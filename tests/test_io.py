"""File formats and serialization: lossless round trips, line-numbered errors."""

import dataclasses
import inspect
import json
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import spectrunc.io
from spectrunc import (
    EXPERIMENTS,
    ExperimentConfig,
    TrialRecord,
    relative_error_bound,
    run_experiment,
)
from spectrunc.estimators import ObservationSet, SampleSet
from spectrunc.io import (
    CSV_COLUMNS,
    FormatError,
    bound_csv_bytes,
    bound_json_bytes,
    matrix_bytes,
    observations_bytes,
    parse_config,
    read_config,
    read_matrix,
    read_matrix_file,
    read_observations,
    read_observations_file,
    read_samples,
    read_samples_file,
    report_csv_bytes,
    report_json_bytes,
    samples_bytes,
    write_matrix,
)
from spectrunc.linalg import require_symmetric
from spectrunc.synth import rng_stream


# -------------------------------------------------------------- round trips


def test_matrix_round_trip_bitwise():
    rng = rng_stream(31, 0)
    M = rng.standard_normal((6, 6))
    A = (M + M.T) / 2.0
    back = read_matrix(matrix_bytes(A).decode())
    np.testing.assert_array_equal(back, A)


@settings(max_examples=50, deadline=None)
@given(hst.floats(allow_nan=False, allow_infinity=False, width=64))
def test_seventeen_digits_round_trip(x):
    A = np.array([[x]])
    back = read_matrix(matrix_bytes(A).decode())
    assert back[0, 0] == x


def test_observations_round_trip():
    obs = ObservationSet(
        n=4,
        p=1 / 3,
        rows=np.array([0, 0, 2]),
        cols=np.array([0, 3, 2]),
        values=np.array([1.5, -2.0, 1 / 7]),
    )
    back = read_observations(observations_bytes(obs).decode())
    assert back.n == 4 and back.p == obs.p and back.count == 3
    np.testing.assert_array_equal(back.rows, obs.rows)
    np.testing.assert_array_equal(back.cols, obs.cols)
    np.testing.assert_array_equal(back.values, obs.values)


def test_samples_round_trip():
    ss = SampleSet(N=3, n=2, X=rng_stream(32, 0).standard_normal((3, 2)))
    back = read_samples(samples_bytes(ss).decode())
    np.testing.assert_array_equal(back.X, ss.X)


def test_comments_and_blank_lines_are_skipped():
    text = "# a matrix\n\nsym 2\n# rows follow\n1 0\n\n0 1\n"
    np.testing.assert_array_equal(read_matrix(text), np.eye(2))


def _reference_row(row) -> str:
    return " ".join(format(float(v), ".17g") for v in row)


def test_writers_match_per_entry_format():
    rng = rng_stream(33, 0)
    X = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
    X[0] = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, -1 / 3]
    X[1] = rng.standard_normal(5)
    A = X[:5]
    assert matrix_bytes(A).decode() == "\n".join(
        ["sym 5", *map(_reference_row, A)]
    ) + "\n"
    assert samples_bytes(SampleSet(N=6, n=5, X=X)).decode() == "\n".join(
        ["samples 6 5", *map(_reference_row, X)]
    ) + "\n"
    iu, ju = np.triu_indices(5)
    values = A[iu, ju]
    obs = ObservationSet(n=5, p=1 / 3, rows=iu, cols=ju, values=values)
    assert observations_bytes(obs).decode() == "\n".join(
        [f"obs 5 {format(1 / 3, '.17g')} {iu.size}"]
        + [f"{i + 1} {j + 1} {format(v, '.17g')}" for i, j, v in zip(iu, ju, values)]
    ) + "\n"


#: values whose text is easy to get wrong: signed zeros, subnormals, the float range
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1 / 3]
_ENTRIES = hst.floats(allow_nan=False, allow_infinity=False, width=64) | hst.sampled_from(
    _EDGE_VALUES
)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_matrix_bytes_reuses_mirror_text_only_for_equal_bits(data):
    n = data.draw(hst.integers(1, 8))
    A = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            A[i, j] = A[j, i] = data.draw(_ENTRIES)
    # break some mirror pairs: another value, the negated value (0.0 against
    # -0.0 when the entry is zero), or the next float
    for i, j in data.draw(hst.lists(hst.tuples(hst.integers(0, n - 1),
                                               hst.integers(0, n - 1)), max_size=6)):
        if i != j:
            mirror = A[j, i]
            A[i, j] = data.draw(hst.sampled_from(
                [-mirror, np.nextafter(mirror, 0.0), data.draw(_ENTRIES)]
            ))
    expected = "\n".join([f"sym {n}", *map(_reference_row, A)]) + "\n"
    assert matrix_bytes(A).decode() == expected
    assert matrix_bytes(np.asfortranarray(A)).decode() == expected


def test_matrix_bytes_keeps_signed_zero_mirrors_apart():
    A = np.array([[1.0, 0.0], [-0.0, 1.0]])
    assert matrix_bytes(A) == b"sym 2\n1 0\n-0 1\n"
    assert matrix_bytes(A.T) == b"sym 2\n1 -0\n0 1\n"


def _reference_read(text: str) -> np.ndarray:
    """Every token through ``float``, then the symmetric average."""
    A = np.array([[float(t) for t in row.split()] for row in text.splitlines()[1:]])
    assert np.abs(A - A.T).max() <= 1e-12
    return (A + A.T) / 2.0


def test_read_matrix_parses_differently_spelled_mirrors():
    for half in ("0.5", "5e-1", "+.5", "0.50000"):
        text = f"sym 3\n1 0.5 -2\n{half} 3 1e-3\n-2.0 0.001 2\n"
        back = read_matrix(text)
        np.testing.assert_array_equal(back, _reference_read(text))
        assert back[1, 0] == back[0, 1] == 0.5


_SPELLINGS = [
    lambda v: format(v, ".17g"),
    repr,
    lambda v: format(v, ".30e"),
    lambda v: format(v, "+.17e").replace("e-0", "e-").replace("+0.", "+."),
]


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_read_matrix_bits_match_per_token_parse(data):
    n = data.draw(hst.integers(1, 6))
    unit = hst.floats(-1.0, 1.0, width=64)
    U = np.array([[data.draw(unit) for _ in range(n)] for _ in range(n)])
    A = np.triu(U) + np.triu(U, 1).T
    # asymmetry just inside or just outside the 1e-12 tolerance
    for i, j in data.draw(hst.lists(hst.tuples(hst.integers(0, n - 1),
                                               hst.integers(0, n - 1)), max_size=3)):
        if i > j:
            A[i, j] = A[j, i] + data.draw(hst.sampled_from([0.0, 0.9e-12, -1.1e-12]))
    rows = [" ".join(data.draw(hst.sampled_from(_SPELLINGS))(float(v)) for v in row)
            for row in A]
    text = "\n".join([f"sym {n}", *rows]) + "\n"
    parsed = np.array([[float(t) for t in row.split()] for row in rows])
    asym = np.abs(parsed - parsed.T)
    if asym.max() > 1e-12:
        assert err_line(read_matrix, text) == 2 + int(np.argmax(asym)) // n
    else:
        assert read_matrix(text).tobytes() == _reference_read(text).tobytes()


# ------------------------------------------------------------ format errors


def err_line(fn, text):
    with pytest.raises(FormatError) as ei:
        fn(text)
    return ei.value.line


def test_accepted_tokens_are_those_float_accepts():
    assert read_matrix("sym 1\n1_0\n")[0, 0] == float("1_0")
    assert read_samples("samples 1 2\n\u0661 +.5\n").X.tolist() == [[1.0, 0.5]]
    assert err_line(read_matrix, "sym 1\n0x10\n") == 2
    assert err_line(read_matrix, "sym 1\nInfinity\n") == 2


def test_matrix_errors_carry_line_numbers():
    assert err_line(read_matrix, "wat 2\n1 0\n0 1\n") == 1
    assert err_line(read_matrix, "sym 2\n1 0\n") == 1  # row count on header
    assert err_line(read_matrix, "sym 2\n1 0\n0 1 2\n") == 3
    assert err_line(read_matrix, "sym 2\n1 x\n0 1\n") == 2
    assert err_line(read_matrix, "sym 2\n1 inf\n0 1\n") == 2
    # asymmetry reported on the row of the offending entry
    assert err_line(read_matrix, "sym 2\n1 2\n3 1\n") == 2
    with pytest.raises(FormatError):
        read_matrix("")


def test_observations_errors():
    assert err_line(read_observations, "obs 3 0.5 1\n2 1 5.0\n") == 2  # i > j
    assert err_line(read_observations, "obs 3 0.5 1\n1 4 5.0\n") == 2
    assert err_line(read_observations, "obs 3 0.5 2\n1 1 5.0\n") == 1
    assert err_line(read_observations, "obs 3 0.5 1\n1 1\n") == 2
    assert err_line(read_observations, "obs 3 2.0 1\n1 1 5.0\n") == 1  # bad p
    assert err_line(read_observations, "obs 3 0.5 2\n1 1 5.0\n1.0 2 3\n") == 3  # index
    assert err_line(read_observations, "obs 3 0.5 1\n1 x 5.0\n") == 2
    assert err_line(read_observations, "obs 3 0.5 2\n1 1 5.0\n1 2 inf\n") == 3  # value
    # a repeated position names the repeating line and the pair
    dup = "obs 3 0.5 3\n1 1 5.0\n1 2 1.0\n1 1 6.0\n"
    assert err_line(read_observations, dup) == 4
    with pytest.raises(FormatError, match=r"\(1, 1\), first on line 2"):
        read_observations(dup)
    assert err_line(read_observations, dup.replace("1 2 1.0\n", "# c\n1 2 1.0\n")) == 5
    assert err_line(read_observations, "obs 3 2.0 2\n1 1 5.0\n1 1 6.0\n") == 1  # bad p first


def test_samples_errors():
    assert err_line(read_samples, "samples 2 2\n1 0\n") == 1
    assert err_line(read_samples, "samples 2 2\n1 0\n0 1 2\n") == 3
    assert err_line(read_samples, "samples 0 2\n") == 1
    assert err_line(read_samples, "samples 2 2\n1 0\n0 x\n") == 3
    assert err_line(read_samples, "samples 2 2\n1 nan\n0 1\n") == 2


def test_first_bad_row_is_reported():
    # a bad or non-finite token in row 2 comes before a short row 4
    short4 = "0 0 1 0\n0 0 0\n"
    assert err_line(read_matrix, "sym 4\n1 0 0 0\n0 x 0 0\n" + short4) == 3
    assert err_line(read_matrix, "sym 4\n1 0 0 0\n0 1e999 0 0\n" + short4) == 3
    assert err_line(read_samples, "samples 4 4\n1 0 0 0\n0 nan 0 0\n" + short4) == 3
    # and an out-of-range index on one line before a bad value on a later one
    assert err_line(read_observations, "obs 3 0.5 2\n2 1 5.0\n1 1 x\n") == 2


def test_first_bad_matrix_line_wins_across_mirrors():
    # a bad lower token on line 3 (its mirror reads 2) before a bad upper token on line 4
    text = "sym 3\n1 2 3\nx 1 0\n3 0 y\n"
    assert err_line(read_matrix, text) == 3
    with pytest.raises(FormatError, match="'x'"):
        read_matrix(text)
    # an inf below the diagonal is the inf above it, reported on the earlier line
    assert err_line(read_matrix, "sym 3\n1 0 inf\n0 1 0\ninf 0 1\n") == 2
    assert err_line(read_matrix, "sym 3\n1 0 0\n0 1 0\n1e999 0 1\n") == 4


def test_comment_lines_between_rows_keep_line_numbers():
    text = "sym 2\n# first row\n1 0\n\n   \n# second row\n0 1\n"
    np.testing.assert_array_equal(read_matrix(text), np.eye(2))
    assert err_line(read_matrix, text.replace("0 1\n", "0 inf\n")) == 7
    samples = "samples 2 1\n\n# a\n3\n# b\n4\n"
    np.testing.assert_array_equal(read_samples(samples).X, [[3.0], [4.0]])
    assert err_line(read_samples, samples.replace("4\n", "four\n")) == 6
    obs = "obs 2 0.5 2\n# i j value\n1 1 2.5\n\n1 2 -1\n"
    back = read_observations(obs)
    np.testing.assert_array_equal(back.values, [2.5, -1.0])
    assert err_line(read_observations, obs.replace("1 2 -1", "2 1 -1")) == 5


def test_a_header_too_large_to_allocate_is_still_a_short_file():
    # the row count is checked before the declared array could be allocated
    with pytest.raises(FormatError, match="expected 100000000 data rows, found 1"):
        read_matrix("sym 100000000\n1 2\n")
    assert err_line(read_samples, "samples 10000000000 10000000000\n1 2\n") == 1


# ------------------------------------------------------------------ streaming

#: every line separator ``str.splitlines`` knows, and a file's usual ones
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]

_VALID_FILES = {
    read_matrix: (read_matrix_file,
                  "# m\nsym 3\n1 0.5 -2\n\n5e-1 3 1e-3\n# row 3\n-2.0 0.001 2"),
    read_observations: (read_observations_file, "obs 3 0.5 3\n1 1 2.5\n# c\n1 3 -1\n3 3 4"),
    read_samples: (read_samples_file, "samples 3 2\n1 2\n\n3 4\n  5 6  \n"),
    parse_config: (read_config, "experiment = relative\nn = 3\n# c\ntrials = 2\nseed = 0\n"
                   "\nspectrum = powerlaw\nspectrum_beta = 1\nbasis = haar\nk = 1\neps = 0.1"),
}


#: a file shorter than its header that also has a bad line, and one with a line
#: past its declared count: each is reported on the header, as a wrong count
_MISCOUNTED = {
    read_matrix: ["sym 3\n1 x 0\n0 1 0\n", "sym 2\n1 0\n0 1\n0 0\n"],
    read_observations: ["obs 3 0.5 3\n1 1 x\n1 2 1\n", "obs 3 0.5 1\n1 1 2.5\n1 2 1\n"],
    read_samples: ["samples 3 2\n1 x\n3 4\n", "samples 1 2\n1 2\n3 4\n"],
}


def _as_bytes(parsed) -> list:
    """A reader's result, with every array as its bytes."""
    fields = [parsed] if isinstance(parsed, np.ndarray) else dataclasses.astuple(parsed)
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in fields]


@pytest.mark.parametrize("block", [1, 5, 1 << 16])
@pytest.mark.parametrize("sep", _SEPARATORS)
def test_file_readers_match_text_readers(tmp_path, monkeypatch, sep, block):
    # a small block reads one line, or a few, at a time
    monkeypatch.setattr(spectrunc.io, "_BLOCK", block)
    path = tmp_path / "in.txt"
    for read_text, (read_file, text) in _VALID_FILES.items():
        text = text.replace("\n", sep)
        path.write_bytes(text.encode())
        assert _as_bytes(read_file(path)) == _as_bytes(read_text(text))
        # the same text with a bad last line, and a miscounted file, fail as their text does
        miscounted = [t.replace("\n", sep) for t in _MISCOUNTED.get(read_text, [])]
        for bad in [text + sep + "x", *miscounted]:
            path.write_bytes(bad.encode())
            with pytest.raises(FormatError) as from_file:
                read_file(path)
            assert str(from_file.value) == str(pytest.raises(FormatError, read_text, bad).value)
        for bad in miscounted:
            assert pytest.raises(FormatError, read_text, bad).value.line == 1


def test_every_public_name_is_defined_in_io():
    # perfbench's tracer times a function as io work only in the module that defines it
    io = spectrunc.io
    assert [name for name in io.__all__ if getattr(io, name).__module__ != io.__name__] == []


_EXTREME_VALUES = [1.0, -0.0, 0.0, 5e-324, -5e-324, 1.5e-323, 2.2250738585072014e-308,
                   1e308, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_read_matrix_round_trips_at_the_extremes(data):
    # subnormal and huge entries together, as written and spelled otherwise: a
    # differently spelled pair reads as its one value, halved first where its
    # sum overflows
    n = data.draw(hst.integers(1, 5))
    A = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            A[i, j] = A[j, i] = data.draw(hst.sampled_from(_EXTREME_VALUES))
    assert read_matrix(matrix_bytes(A).decode()).tobytes() == A.tobytes()
    rows = [" ".join(data.draw(hst.sampled_from(_SPELLINGS))(float(v)) for v in row)
            for row in A]
    assert read_matrix("\n".join([f"sym {n}", *rows]) + "\n").tobytes() == A.tobytes()


def test_read_matrix_keeps_a_subnormal_beside_a_huge_entry():
    A = np.array([[2.0**1023, 5e-324], [5e-324, 1.0]])
    assert read_matrix(matrix_bytes(A).decode()).tobytes() == A.tobytes()
    assert read_matrix(f"sym 1\n{2.0**1023!r}\n")[0, 0] == 2.0**1023
    big = "1.7976931348623157e308"
    back = read_matrix(f"sym 2\n1 {big}\n{float(big):.30e} 1\n")  # the pair's sum overflows
    assert back[0, 1] == back[1, 0] == float(big)


def test_read_matrix_averages_a_pair_as_require_symmetric_does():
    # (5e-324 + 1e-323) / 2 rounds to 1e-323; require_symmetric's
    # 5e-324/2 + 1e-323/2 gave 5e-324
    back = read_matrix("sym 2\n1 5e-324\n1e-323 1\n")
    A = np.array([[1.0, 5e-324], [1e-323, 1.0]])
    assert back.tobytes() == require_symmetric(A).tobytes()
    assert back[0, 1] == back[1, 0] == 1e-323


# ----------------------------------------------------- mirror text in chunks
# ``sym n`` files keep each column's pending mirror text in chunks of rows;
# n = 75 spans several chunks and is no multiple of a chunk's row count


def test_matrix_bytes_breaks_mirror_pairs_past_the_first_chunk(tmp_path):
    n = 75
    A = np.random.default_rng(29).standard_normal((n, n))
    A = np.triu(A) + np.triu(A, 1).T
    A[70, 40] = np.nextafter(A[40, 70], 0.0)  # one ulp from its mirror
    A[45, 66], A[66, 45] = 0.0, -0.0
    A[74, 2] = -A[2, 74]
    for M in (A, A.T):
        expected = ("\n".join([f"sym {n}", *map(_reference_row, M)]) + "\n").encode()
        assert matrix_bytes(M) == expected
        path = tmp_path / "M.sym"
        with open(path, "w", encoding="utf-8") as fh:
            write_matrix(M, fh)
        assert path.read_bytes() == expected


def test_read_matrix_checks_mirror_pairs_past_the_first_chunk(tmp_path):
    n = 75
    A = np.round(np.random.default_rng(23).standard_normal((n, n)), 3)
    A = np.triu(A) + np.triu(A, 1).T
    A[40, 70] = A[70, 40] = 2.0
    rows = matrix_bytes(A).decode().splitlines()
    row = rows[1 + 70].split()
    assert row[40] == "2"
    row[40] = "2.0"  # spelled otherwise than its mirror
    row[45] = format(A[45, 70] + 0.5e-12, ".17g")  # asymmetric inside the tolerance
    rows[1 + 70] = " ".join(row)
    text = "\n".join(rows) + "\n"
    back = read_matrix(text)
    assert back.tobytes() == _reference_read(text).tobytes()
    assert back[70, 40] == back[40, 70] == 2.0
    path = tmp_path / "A.sym"
    path.write_text(text)
    assert read_matrix_file(path).tobytes() == back.tobytes()
    # outside the tolerance: named at the upper entry, on its row's line
    row[45] = format(A[45, 70] + 1e-3, ".17g")
    rows[1 + 70] = " ".join(row)
    with pytest.raises(FormatError) as ei:
        read_matrix("\n".join(rows) + "\n")
    assert str(ei.value) == "line 47: matrix not symmetric at (46, 71): |A_ij - A_ji| = 1.000e-03"


def _traced_peak(fn) -> int:
    """Bytes traced at the peak of ``fn()``, above what was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _goe_300() -> np.ndarray:
    """A symmetric standard-normal matrix of order 300: 17-digit entries of about 20 characters."""
    M = np.random.default_rng(7).standard_normal((300, 300))
    return (M + M.T) / 2.0


# one str per pending mirror token held 2.5 (writer) and 2.9 (reader) times
# the array beyond it here; text joined in chunks holds about 0.65 of it


def test_write_matrix_holds_at_most_the_array():
    A = _goe_300()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        assert _traced_peak(lambda: write_matrix(A, sink)) <= A.nbytes


def test_read_matrix_file_holds_at_most_the_array_beyond_it(tmp_path):
    A = _goe_300()
    path = tmp_path / "A.sym"
    path.write_bytes(matrix_bytes(A))
    read_matrix_file(path)  # loads what the reader imports on first use
    # the peak includes the array the reader returns
    assert _traced_peak(lambda: read_matrix_file(path)) <= 2 * A.nbytes


# ----------------------------------------------------------------- config


GOOD_CONFIG = """
experiment = relative
n = 24
trials = 3
seed = 7
spectrum = powerlaw
spectrum_beta = 1.0
basis = haar
k = 3
eps = 0.2
"""


def test_parse_config_full():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg == ExperimentConfig(
        experiment="relative", n=24, trials=3, seed=7,
        spectrum_kind="powerlaw", spectrum_beta=1.0, basis="haar",
        k=3, eps=0.2,
    )


def test_parse_config_lists_and_constants():
    text = """
    experiment = decay_rate
    n = 100
    trials = 2
    seed = 1
    spectrum = powerlaw
    spectrum_beta = 1.0
    basis = identity
    delta_grid = 0.1, 0.03 0.01
    C1 = 2.0
    """
    cfg = parse_config(text)
    assert cfg.delta_grid == (0.1, 0.03, 0.01)
    assert cfg.C1 == 2.0


def test_parse_config_oracle_rank():
    text = """
    experiment = covariance
    n = 20
    trials = 2
    seed = 1
    spectrum = exponential
    spectrum_c = 0.5
    basis = haar
    k = oracle
    eps = 0.25
    n_samples = 40
    """
    cfg = parse_config(text)
    assert cfg.k_oracle and cfg.k is None


def config_error(text):
    with pytest.raises(FormatError) as ei:
        parse_config(text)
    return str(ei.value)


def test_parse_config_error_reporting():
    assert "experiment" in config_error("n = 3\n")
    assert "unknown experiment 'frobnicate'" in config_error(
        GOOD_CONFIG.replace("experiment = relative", "experiment = frobnicate")
    )
    # unknown keys are reported by name, and so is another experiment's parameter
    assert config_error(GOOD_CONFIG + "widget = 3\n") == "unknown key(s): widget"
    assert config_error(GOOD_CONFIG + "nu = 0.1\n") == "experiment 'relative' does not use nu"
    # missing mandatory keys are listed
    msg = config_error("experiment = relative\nk = 3\neps = 0.1\n")
    for key in ("n", "trials", "seed", "spectrum", "basis"):
        assert key in msg
    assert "duplicate" in config_error(GOOD_CONFIG + "k = 4\n")
    assert "expected 'key = value'" in config_error("experiment relative\n")
    assert "invalid value" in config_error(GOOD_CONFIG.replace("n = 24", "n = many"))
    # domain violations surface as FormatError too
    assert "eps" in config_error(GOOD_CONFIG.replace("eps = 0.2", "eps = 0.3"))
    assert "oracle" in config_error(
        GOOD_CONFIG.replace("k = 3", "k = oracle")
    )
    # non-finite numbers are rejected by key, alone or in a list
    denoising = GOOD_CONFIG.replace("relative", "denoising").replace("eps = 0.2", "nu = nan")
    assert "invalid value for 'nu'" in config_error(denoising)
    explicit = GOOD_CONFIG.replace("spectrum = powerlaw", "spectrum = explicit").replace(
        "spectrum_beta = 1.0", "spectrum_values = " + ", ".join(["1"] * 23 + ["nan"])
    )
    assert "invalid value for 'spectrum_values'" in config_error(explicit)
    # another kind's spectrum parameter, and a wrong-length explicit spectrum
    msg = config_error(GOOD_CONFIG.replace("powerlaw", "exponential") + "spectrum_c = 0.5\n")
    assert "does not use beta" in msg
    assert "expected 24 values" in config_error(explicit.replace(", nan", ""))
    # a zero leading eigenvalue is rejected by the parameter that gives it
    zeros = (
        "experiment = covariance\nn = 4\ntrials = 1\nseed = 0\nspectrum = explicit\n"
        "spectrum_values = 0, 0, 0, 0\nbasis = haar\nk = 1\neps = 0.2\nn_samples = 50\n"
    )
    assert "spectrum_values gives a leading eigenvalue of 0" in config_error(zeros)
    underflow = GOOD_CONFIG.replace("powerlaw", "exponential").replace(
        "spectrum_beta = 1.0", "spectrum_c = 750"
    )
    assert "spectrum_c gives a leading eigenvalue of 0" in config_error(underflow)


def test_parse_kwargs_checks_keys_then_values():
    def f(a: int, b: float, c: tuple[float, ...] | None = None):
        pass

    params = {p.name: p for p in inspect.signature(f).parameters.values()}
    params["alias"] = params.pop("a")
    parse = spectrunc.io.parse_kwargs
    assert parse(params, {"c": "1, 2", "alias": "3", "b": "0.5"}) == {
        "c": (1.0, 2.0), "a": 3, "b": 0.5,
    }
    with pytest.raises(ValueError, match="^unknown key[(]s[)]: a, z$"):
        parse(params, {"z": "1", "a": "1"})  # ahead of the missing ones
    with pytest.raises(ValueError, match="^missing mandatory key[(]s[)]: alias, b$"):
        parse(params, {"c": "inf"})  # ahead of the bad value
    with pytest.raises(ValueError, match="^invalid value for 'b': 'nan' is not finite$"):
        parse(params, {"b": "nan", "alias": "x"})  # the first bad value in input order


# ----------------------------------------------------------------- reports


def small_report(experiment="relative", **kw):
    merged = dict(
        experiment=experiment, n=16, trials=3, seed=5,
        spectrum_kind="powerlaw", spectrum_beta=1.0, basis="haar",
        k=2, eps=0.2,
    )
    merged.update(kw)
    return run_experiment(ExperimentConfig(**merged))


def test_report_json_shape_and_determinism():
    rep1 = small_report()
    rep2 = small_report()
    b1 = report_json_bytes(rep1)
    assert b1 == report_json_bytes(rep2)
    doc = json.loads(b1)
    assert doc["tool"]["name"] == "spectrunc"
    assert doc["experiment"] == "relative"
    assert doc["config"]["seed"] == 5
    assert doc["pass_rate"] == 1.0
    assert len(doc["trials"]) == 3
    # wall-clock time must never reach the serialized form
    assert b"runtime" not in b1
    assert rep1.runtime_seconds > 0


def test_report_csv_fixed_schema():
    header = ",".join(CSV_COLUMNS)
    for rep in (
        small_report(),
        small_report("alignment"),
        small_report("denoising", eps=None, nu=0.01),
        small_report("decay_rate", k=None, eps=None, n=100, delta_grid=(0.1, 0.05)),
    ):
        lines = report_csv_bytes(rep).decode().strip().split("\n")
        assert lines[0] == header
        assert len(lines) == 1 + len(rep.trials)
        for row in lines[1:]:
            assert row.count(",") == len(CSV_COLUMNS) - 1
    csv = report_csv_bytes(small_report()).decode()
    assert csv == report_csv_bytes(small_report()).decode()


def test_report_csv_booleans_and_blanks():
    rep = small_report("decay_rate", k=None, eps=None, n=100, delta_grid=(0.1,))
    lines = report_csv_bytes(rep).decode().strip().split("\n")
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["precondition_holds"] == "true"
    assert row["bound_satisfied"] == ""  # decay trials carry no per-trial bound
    assert row["measured_error_2"] == ""
    assert row["k_used"] == "9"


def _as_numpy(plain: dict) -> dict:
    """Each float of ``plain`` as ``np.float64``, each int as ``np.int64``."""
    return {key: (np.float64 if isinstance(v, float) else np.int64)(v) for key, v in plain.items()}


def test_numpy_scalar_config_writes_the_plain_report():
    plain = dict(n=16, trials=3, seed=5, k=2, eps=0.2, spectrum_beta=1.0)
    rep = small_report(**_as_numpy(plain))
    assert any(isinstance(v, np.float64) for v in vars(rep.trials[0]).values())
    assert report_json_bytes(rep) == report_json_bytes(small_report(**plain))
    assert report_csv_bytes(rep) == report_csv_bytes(small_report(**plain))


def test_numpy_scalar_bound_writes_the_plain_bound():
    plain = dict(k=3, eps=0.2, tail_F=0.5, tail_2=0.25, perturbation_2=0.02)
    rep = relative_error_bound(**_as_numpy(plain))
    assert bound_json_bytes(rep) == bound_json_bytes(relative_error_bound(**plain))
    assert bound_csv_bytes(rep) == bound_csv_bytes(relative_error_bound(**plain))
    # converted before the finiteness check, so the field is named
    with pytest.raises(ValueError, match="^bound result field 'value' is not finite: inf$"):
        bound_json_bytes(np.float32("inf"))


def test_json_writers_name_a_type_json_cannot_write():
    bound = relative_error_bound(k=1, eps=Fraction(1, 4), tail_F=1.0, tail_2=1.0)
    with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
        bound_json_bytes(bound)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def test_zero_tail_perturbation_run_writes_null_gamma_k():
    # sigma_{k+1} = 0, so gamma_k = sigma_k / sigma_{k+1} is undefined in every trial
    rep = small_report(
        n=30, spectrum_kind="explicit", spectrum_beta=None,
        spectrum_values=(1.0, 1.0) + (0.0,) * 28, k=2,
    )
    doc = json.loads(report_json_bytes(rep), parse_constant=_reject_constant)
    assert [t["aux"]["gamma_k"] for t in doc["trials"]] == [None, None, None]


def test_covariance_oracle_keeping_every_rank_writes_null_admissibility():
    # a flat spectrum, well sampled: the oracle keeps all n ranks, so gamma_k is undefined
    rep = small_report(
        "covariance", n=4, trials=3, seed=11, spectrum_kind="explicit", spectrum_beta=None,
        spectrum_values=(1.0, 1.0, 1.0, 1.0), k=None, k_oracle=True, eps=0.25, n_samples=2000,
    )
    doc = json.loads(report_json_bytes(rep), parse_constant=_reject_constant)
    assert [t["aux"]["k_used"] for t in doc["trials"]] == [4, 4, 4]
    assert [t["aux"]["admissibility_expr"] for t in doc["trials"]] == [None, None, None]
    lines = report_csv_bytes(rep).decode().splitlines()
    column = CSV_COLUMNS.index("admissibility_expr")
    assert [line.split(",")[column] for line in lines[1:]] == ["", "", ""]


#: what each experiment needs on top of small_report's parameters
SMALL_EXPERIMENTS = {
    "relative": {},
    "gap": {},
    "alignment": {},
    "denoising": dict(eps=None, nu=0.01),
    "completion": dict(p=0.5, t=0.1),
    "covariance": dict(n_samples=40),
    "decay_rate": dict(k=None, eps=None, delta_grid=(0.1,)),
}


@pytest.fixture(scope="module")
def aux_keys():
    """experiment -> every aux key its trials write."""
    return {
        ex: {key for r in small_report(ex, **kw).trials for key in r.aux}
        for ex, kw in SMALL_EXPERIMENTS.items()
    }


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_csv_columns_cover_every_aux_key(experiment, aux_keys):
    # an aux key missing from CSV_COLUMNS would be dropped from the CSV silently
    assert aux_keys[experiment] <= set(CSV_COLUMNS)
    # and every column that is not a record field is written by some experiment
    record_fields = {f.name for f in dataclasses.fields(TrialRecord)}
    assert set(CSV_COLUMNS) - record_fields <= set().union(*aux_keys.values())
