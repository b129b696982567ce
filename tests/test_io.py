"""File formats and serialization: lossless round trips, line-numbered errors."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from spectrunc import EXPERIMENTS, ExperimentConfig, TrialRecord, run_experiment
from spectrunc.estimators import ObservationSet, SampleSet
from spectrunc.io import (
    CSV_COLUMNS,
    FormatError,
    matrix_bytes,
    observations_bytes,
    parse_config,
    read_matrix,
    read_observations,
    read_samples,
    report_csv_bytes,
    report_json_bytes,
    samples_bytes,
)
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
    assert "unknown experiment" in config_error("experiment = frobnicate\n")
    # unknown keys are reported by name
    msg = config_error(GOOD_CONFIG + "nu = 0.1\nwidget = 3\n")
    assert "nu" in msg and "widget" in msg
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
