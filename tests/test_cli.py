"""Command-line interface: round trips, exit codes, byte-determinism."""

import contextlib
import inspect
import io as stdio
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as hst
from scipy.sparse.linalg import ArpackNoConvergence

import spectrunc
from spectrunc import cli, covariance_reduced, linalg
from spectrunc.bounds import COVARIANCE_MODES, KINDS, SAMPLING_REGIMES
from spectrunc.cli import main
from spectrunc.estimators import SampleSet
from spectrunc.io import (
    FormatError,
    matrix_bytes,
    observations_bytes,
    read_matrix,
    read_observations,
    read_samples,
    samples_bytes,
)
from spectrunc.synth import bernoulli_observe, rng_stream


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def test_synth_writes_valid_matrix(workdir, capsys):
    out = workdir / "A.mat"
    assert run_cli("synth", "--kind", "powerlaw", "--n", "12", "--beta", "1.0",
                   "--basis", "haar", "--seed", "3", "--out", str(out)) == 0
    A = read_matrix(out.read_text())
    assert A.shape == (12, 12)
    w = np.linalg.eigvalsh(A)[::-1]
    np.testing.assert_allclose(w, 1.0 / np.arange(1, 13), atol=1e-12)
    # without --out the matrix goes to stdout
    assert run_cli("synth", "--kind", "explicit", "--n", "2", "--values", "2,1",
                   "--basis", "identity") == 0
    text = capsys.readouterr().out
    np.testing.assert_array_equal(read_matrix(text), np.diag([2.0, 1.0]))


@pytest.mark.parametrize("basis", ["haar", "identity"])
def test_synth_writes_the_matrix_of_run_trial(basis, workdir, monkeypatch):
    # synth --seed s --stream i builds the A that trial i of a run with seed s builds
    config = spectrunc.ExperimentConfig(
        experiment="relative", n=12, trials=3, seed=7, spectrum_kind="powerlaw",
        spectrum_beta=1.0, basis=basis, k=2, eps=0.2,
    )
    seen = []
    step = spectrunc.EXPERIMENTS["relative"]
    monkeypatch.setitem(spectrunc.EXPERIMENTS, "relative",
                        lambda cfg, sig, A, rng: seen.append(A.copy()) or step(cfg, sig, A, rng))
    spectrunc.run_trial(config, 2)
    out = workdir / "A.sym"
    assert run_cli("synth", "--kind", "powerlaw", "--beta", "1", "--n", "12", "--basis", basis,
                   "--seed", "7", "--stream", "2", "--out", str(out)) == 0
    assert out.read_bytes() == matrix_bytes(seen[0])


def test_synth_values_read_as_the_config_list(workdir, capsys):
    base = ["synth", "--kind", "explicit", "--n", "3", "--basis", "identity"]
    written = []
    for i, values in enumerate(("1,0.5,0.25", "1 0.5 0.25", "1, 0.5  0.25")):
        out = workdir / f"v{i}.sym"
        assert run_cli(*base, "--values", values, "--out", str(out)) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]
    for bad in ("1,inf,0.25", "1 0.5 nan"):
        assert run_cli(*base, "--values", bad) == 1
        captured = capsys.readouterr()
        assert f"error: invalid value for '--values': {bad!r} is not finite" in captured.err
        assert captured.out == ""


def test_complete_frozen_example(workdir, capsys):
    obs = workdir / "o.obs"
    obs.write_text("obs 2 0.5 1\n1 1 1.0\n")
    out = workdir / "est.mat"
    assert run_cli("complete", "--obs", str(obs), "--k", "1", "--out", str(out)) == 0
    np.testing.assert_array_equal(read_matrix(out.read_text()), np.diag([2.0, 0.0]))
    err = capsys.readouterr().err
    assert "1 observations" in err and "rank 1" in err


def test_denoise_roundtrip(workdir):
    src = workdir / "Y.mat"
    assert run_cli("synth", "--kind", "explicit", "--n", "3", "--values", "3,2,1",
                   "--basis", "identity", "--out", str(src)) == 0
    out = workdir / "D.mat"
    assert run_cli("denoise", "--matrix", str(src), "--k", "1", "--out", str(out)) == 0
    np.testing.assert_array_equal(read_matrix(out.read_text()),
                                  np.diag([3.0, 0.0, 0.0]))


def test_denoise_rejects_a_non_finite_estimate_before_writing(workdir, capsys):
    # the top eigenvalue is 9e308: the estimate was written as rows of inf
    src = workdir / "Y.sym"
    src.write_bytes(matrix_bytes(np.full((6, 6), 1.5e308)))
    out = workdir / "D.sym"
    assert run_cli("denoise", "--matrix", str(src), "--k", "2", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: output entry (1, 1) is not finite: inf\n"
    assert not out.exists()


def test_synth_near_the_top_of_the_float_range_writes_finite_entries(workdir):
    # two diagonal entries near 1.7e308 were doubled in the symmetrization: the file held inf
    out = workdir / "A.sym"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("synth", "--kind", "explicit", "--n", "3", "--values",
                       "1.7e308,1e308,1", "--basis", "haar", "--out", str(out)) == 0
    assert np.isfinite(read_matrix(out.read_text())).all()


def test_completion_run_near_the_top_of_the_float_range_is_finite(workdir):
    # ||A||_F overflowed at sigma_1 = 1e300: the sampling threshold read -inf
    # and the report could not be written
    n = 30
    values = ", ".join(repr(1e300 * (n - i) / n) for i in range(n))
    config = workdir / "c.cfg"
    config.write_text(
        f"experiment = completion\nn = {n}\ntrials = 1\nseed = 0\nbasis = haar\n"
        f"spectrum = explicit\nspectrum_values = {values}\nk = 3\neps = 0.2\np = 0.6\nt = 0.1\n"
    )
    out = workdir / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("run", "--config", str(config), "--out", str(out)) == 0
    (trial,) = json.loads(out.read_text())["trials"]
    assert math.isfinite(trial["aux"]["threshold_raw"])
    assert math.isfinite(trial["precondition_margin"])


def test_cov_matches_library(workdir):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 4))
    lines = ["samples 20 4"] + [" ".join(format(v, ".17g") for v in row) for row in X]
    src = workdir / "S.samples"
    src.write_text("\n".join(lines) + "\n")
    out = workdir / "C.mat"
    assert run_cli("cov", "--samples", str(src), "--k", "2", "--out", str(out)) == 0
    expect = covariance_reduced(read_samples(src.read_text()), 2)
    np.testing.assert_allclose(read_matrix(out.read_text()), expect, atol=1e-15)


def test_bounds_json_and_csv(capsys):
    assert run_cli("bounds", "--kind", "relative", "--set", "k=1", "--set", "eps=0.25",
                   "--set", "tail_F=1", "--set", "tail_2=1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == pytest.approx(18.015611460128483, rel=1e-14)
    assert run_cli("bounds", "--kind", "powerlaw_cutoff", "--format", "csv",
                   "--set", "delta=0.01", "--set", "beta=1", "--set", "n=10000") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out == ["value", "99"]
    assert run_cli("bounds", "--kind", "covariance_rates", "--format", "csv",
                   "--set", "norm_2=2", "--set", "r_e=10", "--set", "n_samples=10000",
                   "--set", "n=100") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "frobenius,spectral"
    assert float(out[1].split(",")[0]) == pytest.approx(0.6069708517540586, rel=1e-14)


def test_bounds_sampling_kind(capsys):
    assert run_cli("bounds", "--kind", "sampling", "--set", "regime=sqrt_k",
                   "--set", "mu0=1", "--set", "norm_F=2", "--set", "sigma_k1=1",
                   "--set", "n=64", "--set", "t=0.5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "sqrt_k"
    assert doc["p_raw"] == pytest.approx(8.0 * 4.0 * np.log(128.0) / 64.0, rel=1e-12)


@pytest.mark.parametrize("regime, extra", [("relative", "sigma_k1=1"), ("gap", "gap=1")])
def test_bounds_sampling_requires_eps_and_k(regime, extra, capsys):
    base = ["bounds", "--kind", "sampling", "--set", f"regime={regime}", "--set", extra,
            "--set", "mu0=1", "--set", "norm_F=2", "--set", "n=64", "--set", "t=0.5"]
    assert run_cli(*base, "--set", "k=2") == 1
    assert f"regime '{regime}' requires eps" in capsys.readouterr().err
    assert run_cli(*base, "--set", "eps=0.2") == 1
    assert f"regime '{regime}' requires k" in capsys.readouterr().err
    assert run_cli(*base, "--set", "eps=0.2", "--set", "k=2") == 0
    assert json.loads(capsys.readouterr().out)["regime"] == regime


@pytest.mark.parametrize("kind", list(KINDS))
def test_bounds_names_first_required_input(kind, capsys):
    # the message names every required input, sorted, so the first one too
    params = inspect.signature(KINDS[kind]).parameters.values()
    required = sorted(p.name for p in params if p.default is p.empty)
    assert run_cli("bounds", "--kind", kind) == 1
    assert capsys.readouterr().err == f"error: missing mandatory key(s): {', '.join(required)}\n"


@pytest.mark.parametrize("kind, scale", [("relative", "tail_2=1"), ("gap", "gap=1")])
def test_bounds_rejects_a_measured_perturbation_out_of_domain(kind, scale, capsys):
    base = ["bounds", "--kind", kind, "--set", "k=1", "--set", "eps=0.1",
            "--set", "tail_F=1", "--set", scale]
    assert run_cli(*base, "--set", "perturbation_2=0.001") == 0
    capsys.readouterr()
    assert run_cli(*base, "--set", "perturbation_2=-1") == 1
    captured = capsys.readouterr()
    assert "perturbation_2 must be nonnegative, got -1.0" in captured.err
    assert captured.out == ""
    assert run_cli(*base, "--set", "perturbation_2=nan") == 1
    assert "'perturbation_2'" in capsys.readouterr().err


def test_bounds_input_errors(capsys):
    # missing required input
    assert run_cli("bounds", "--kind", "relative", "--set", "k=1") == 1
    assert "missing mandatory key(s): eps, tail_2, tail_F" in capsys.readouterr().err
    # an unknown key is rejected by name
    assert run_cli("bounds", "--kind", "powerlaw_rate", "--set", "delta=0.1",
                   "--set", "beta=1", "--set", "n=100", "--set", "zeta=3") == 1
    assert "zeta" in capsys.readouterr().err
    # malformed pair and duplicate key
    assert run_cli("bounds", "--kind", "relative", "--set", "k") == 1
    capsys.readouterr()
    assert run_cli("bounds", "--kind", "relative", "--set", "k=1", "--set", "k=2") == 1
    capsys.readouterr()
    # domain violation from the bound itself
    assert run_cli("bounds", "--kind", "relative", "--set", "k=1", "--set", "eps=0.4",
                   "--set", "tail_F=1", "--set", "tail_2=1") == 1
    assert "eps" in capsys.readouterr().err
    # non-finite numbers are rejected by key, never printed as NaN
    for bad in ("nan", "inf", "-inf", "1e999"):
        assert run_cli("bounds", "--kind", "relative", "--set", "k=1", "--set", "eps=0.25",
                       "--set", f"tail_F={bad}", "--set", "tail_2=1") == 1
        captured = capsys.readouterr()
        assert "invalid value for 'tail_F'" in captured.err and captured.out == ""


def test_bounds_set_reads_its_pairs_as_a_config_line_does(capsys):
    outs = []
    for items in (["k=1", "eps=0.25", "tail_F=1", "tail_2=1"],
                  ["k = 1", "eps= 0.25", " tail_F =1", "tail_2\t=  1"]):
        assert run_cli("bounds", "--kind", "relative",
                       *(a for kv in items for a in ("--set", kv))) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert run_cli("bounds", "--kind", "relative", "--set", "k") == 1
    assert capsys.readouterr().err == "error: --set expects key=value, got 'k'\n"
    assert run_cli("bounds", "--kind", "relative", "--set", "k=1", "--set", "k = 2") == 1
    assert capsys.readouterr().err == "error: duplicate --set key 'k'\n"


def test_bounds_rejects_an_overflowing_result(capsys):
    base = ["bounds", "--kind", "relative", "--set", "k=1", "--set", "eps=0.25"]
    for fmt in ("json", "csv"):
        assert run_cli(*base, "--set", "tail_F=1e308", "--set", "tail_2=1e308",
                       "--format", fmt) == 1
        captured = capsys.readouterr()
        assert "bound result field 'value' is not finite" in captured.err
        assert captured.out == ""
    assert run_cli(*base, "--set", "tail_F=1e300", "--set", "tail_2=1e300") == 0
    assert json.loads(capsys.readouterr().out)["value"] > 1e300


_OVERFLOWING_POWERS = {
    # gamma_k**2, then the eps**-4 term, of the covariance relative mode
    "expr": [["--kind", "covariance", "--set", "mode=relative", "--set", "r_e=3",
              "--set", "k=2", "--set", "n_samples=100", "--set", f"eps={eps}",
              "--set", f"gamma_k={gamma_k}"] for eps, gamma_k in (("0.2", "1e200"),
                                                                  ("1e-90", "2"))],
    # mu0**2, then eps**-4, of the sampling relative regime
    "p_raw": [["--kind", "sampling", "--set", "regime=relative", "--set", f"mu0={mu0}",
               "--set", "norm_F=1", "--set", "n=10", "--set", "t=0.1", "--set", "sigma_k1=1",
               "--set", f"eps={eps}", "--set", "k=2"] for mu0, eps in (("1e200", "0.2"),
                                                                        ("1", "1e-90"))],
}


@pytest.mark.parametrize("field", _OVERFLOWING_POWERS)
def test_bounds_names_a_field_whose_power_overflows(field, capsys):
    # float ** raised OverflowError, which exited 2 as a numerical error
    for argv in _OVERFLOWING_POWERS[field]:
        assert run_cli("bounds", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bound result field {field!r} is not finite: inf\n"
        assert captured.out == ""


_SAMPLING = ["--kind", "sampling", "--set", "mu0=2", "--set", "norm_F=1", "--set", "n=10",
             "--set", "t=0.1"]
_EPS_K = ["--set", "eps=0.2", "--set", "k=2"]

#: field -> argvs whose sigma_k1**2 or gap**2 underflows to 0 in a divisor
_UNDERFLOWING_POWERS = {
    "p_raw": [[*_SAMPLING, "--set", "regime=sqrt_k", "--set", "sigma_k1=1e-200"],
              [*_SAMPLING, "--set", "regime=relative", "--set", "sigma_k1=1e-200", *_EPS_K],
              [*_SAMPLING, "--set", "regime=gap", "--set", "gap=1e-200", *_EPS_K]],
    "expr": [["--kind", "covariance", "--set", "mode=gap", "--set", "r_e=3", *_EPS_K,
              "--set", "n_samples=100", "--set", "norm_2=1", "--set", "gap=1e-200"]],
}


@pytest.mark.parametrize("field", _UNDERFLOWING_POWERS)
def test_bounds_names_a_field_whose_power_underflows(field, capsys):
    # the divisor was 0.0, which exited 2 as a numerical error
    for argv in _UNDERFLOWING_POWERS[field]:
        assert run_cli("bounds", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bound result field {field!r} is not finite: inf\n"
        assert captured.out == ""


#: floats across 2^-1000..2^1000, zero and the unit interval; ints up to 2^62
_FUZZ_FLOATS = hst.one_of(
    hst.just(0.0),
    hst.floats(0.0, 1.0),
    hst.builds(math.ldexp, hst.floats(1.0, 2.0, exclude_max=True), hst.integers(-1000, 1000)),
)
_FUZZ_INTS = hst.one_of(hst.integers(0, 64), hst.integers(0, 2**62))

#: a choice parameter -> its table of the optional inputs each choice uses
_CHOICES = {"regime": SAMPLING_REGIMES, "mode": COVARIANCE_MODES}


@hst.composite
def _bounds_call(draw):
    """``(kind, {key: text})``: a kind, its choice if it has one, and the inputs that takes.

    Every input without a default is set; one with a default is set where
    the chosen regime or mode uses it, and at random where no table lists it.
    """
    kind = draw(hst.sampled_from(sorted(KINDS)))
    params = inspect.signature(KINDS[kind], eval_str=True).parameters.values()
    params = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    sets, listed, uses = {}, set(), set()
    for p in params:
        if p.name in _CHOICES:
            sets[p.name] = draw(hst.sampled_from(sorted(_CHOICES[p.name])))
            listed = {name for names in _CHOICES[p.name].values() for name in names}
            uses = set(_CHOICES[p.name][sets[p.name]])
    for p in params:
        optional = p.default is not p.empty
        if p.name in sets or optional and (p.name not in uses if p.name in listed
                                           else not draw(hst.booleans())):
            continue
        is_int = int in (p.annotation, *typing.get_args(p.annotation))
        sets[p.name] = str(draw(_FUZZ_INTS)) if is_int else repr(draw(_FUZZ_FLOATS))
    return kind, sets


def _finite_leaves(doc) -> bool:
    if isinstance(doc, dict):
        return all(map(_finite_leaves, doc.values()))
    return not isinstance(doc, float) or math.isfinite(doc)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(_bounds_call())
def test_bounds_exits_zero_with_finite_values_or_one_naming_what_failed(call):
    kind, sets = call
    argv = ["bounds", "--kind", kind, *(a for key, v in sets.items() for a in ("--set", f"{key}={v}"))]
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    if code == 0:
        assert _finite_leaves(json.loads(out.getvalue())), (argv, out.getvalue())
    else:
        message = err.getvalue()
        assert code == 1 and message.startswith("error: ") and out.getvalue() == "", (argv, message)
        named = [key for key in sets if key in message]
        assert named or "result field" in message or "cutoff rule" in message, (argv, message)


def _overflowing_inputs(workdir) -> dict[str, list[str]]:
    """Command -> argv of an input whose arithmetic leaves the float range."""
    a = np.eye(6)
    a[:2, :2] = 1.5e308  # top eigenvalue 3e308: truncate formed inf * 0
    (workdir / "a.sym").write_bytes(matrix_bytes(a))
    b = np.diag([1.7e308, 1e308, 1.0, 1.0, 0.5, 0.1])  # head_F is 1.97e308
    (workdir / "b.sym").write_bytes(matrix_bytes(b))
    X = np.random.default_rng(0).standard_normal((24, 8)) * 1e154  # X^T X overflows
    (workdir / "s.txt").write_bytes(samples_bytes(SampleSet(N=24, n=8, X=X)))
    (workdir / "o.txt").write_text("obs 3 0.5 2\n1 1 1.5e308\n2 3 1\n")  # value / p overflows
    X = np.full((24, 2), 1.5e308)  # each column's sum overflows, so its mean is inf
    (workdir / "c.txt").write_bytes(samples_bytes(SampleSet(N=24, n=2, X=X)))
    b = str(workdir / "b.sym")
    return {
        "denoise": ["denoise", "--matrix", str(workdir / "a.sym"), "--k", "2"],
        "verify": ["verify", "--matrix", b, "--perturbed", b, "--k", "2", "--eps", "0.1"],
        "cov": ["cov", "--samples", str(workdir / "s.txt"), "--k", "2"],
        "complete": ["complete", "--obs", str(workdir / "o.txt"), "--k", "1"],
        "cov --center": ["cov", "--samples", str(workdir / "c.txt"), "--k", "1", "--center"],
    }


@pytest.mark.parametrize("command, code, err", [
    ("denoise", 1, "error: output entry (1, 1) is not finite: inf\n"),
    ("verify", 0, ""),
    # LAPACK failed on the covariance's inf entries: exit 2
    ("cov", 1, "error: surrogate entry (1, 1) is not finite: inf\n"),
    ("complete", 1, "error: surrogate entry (1, 1) is not finite: inf\n"),
    ("cov --center", 1, "error: surrogate entry (1, 1) is not finite: inf\n"),
], ids=["denoise", "verify", "cov", "complete", "cov-center"])
def test_overflowing_inputs_end_alike_with_warnings_as_errors(workdir, capsys, command, code, err):
    argv = _overflowing_inputs(workdir)[command]
    assert run_cli(*argv) == code
    plain = capsys.readouterr()
    assert plain.err == err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == code
    assert capsys.readouterr() == plain


def test_verify_at_subnormal_scale_raises_no_warning(workdir, capsys):
    a = workdir / "tiny.sym"
    a.write_text("sym 2\n1e-320 0\n0 1e-321\n")
    argv = ["verify", "--matrix", str(a), "--perturbed", str(a), "--k", "1", "--eps", "0.2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"]


#: an exit-1 message naming what failed: a field, an entry, a parameter or an input flag
_NAMED = re.compile(
    r"error: (trial \d+ field '\w+'|\w+ entry \([\d, ]+\)|\w+ must|--matrix has)[^\n]*\n"
)
_TIMING = re.compile(r"\w+: \d+ trial\(s\) in \d+\.\d\ds\n")


def _ends_alike_without_warnings(argv, capsys):
    """Run ``argv`` plainly, raising no warning, then with warnings as errors, to the same end.

    It ends in 0 with no non-finite value written, or in 1 naming what failed.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv)
    plain = capsys.readouterr()
    assert not caught, (argv, [str(w.message) for w in caught])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == code, argv
    again = capsys.readouterr()
    assert again.out == plain.out, argv
    assert _TIMING.sub("", again.err) == _TIMING.sub("", plain.err), argv
    if code == 0:
        assert not re.search(r"\b(inf|nan|infinity)\b", plain.out, re.IGNORECASE), argv
    else:
        assert code == 1 and _NAMED.fullmatch(plain.err), (argv, plain.err)


#: explicit n = 12 spectra whose trials leave the float range: a Haar trial's error is
#: about 1e284 against a tail of 3e-300, and the top pair's squares and sums overflow
_EDGE_SPECTRA = ["1e300, " + ", ".join(["1e-300"] * 11), "1.7e308, 1e308, " + ", ".join(["1"] * 10)]


#: per-trial experiment -> its config keys besides k
_EDGE_KEYS = {
    "relative": "eps = 0.1", "gap": "eps = 0.1", "alignment": "eps = 0.1", "denoising": "nu = 0.01",
    "completion": "eps = 0.1\np = 0.5\nt = 0.1", "covariance": "eps = 0.1\nn_samples = 40",
}


@pytest.mark.parametrize("experiment", _EDGE_KEYS)
def test_run_at_the_float_edges_names_what_is_not_finite(experiment, workdir, capsys):
    keys = _EDGE_KEYS[experiment]
    cfg = workdir / "edge.cfg"
    for values in _EDGE_SPECTRA:
        for basis in ("haar", "identity"):
            cfg.write_text(f"experiment = {experiment}\nn = 12\ntrials = 2\nseed = 0\n"
                           f"spectrum = explicit\nspectrum_values = {values}\nbasis = {basis}\n"
                           f"k = 2\n{keys}\n")
            for fmt in ("json", "csv"):
                _ends_alike_without_warnings(["run", "--config", str(cfg), "--format", fmt], capsys)


@pytest.mark.parametrize("basis", ["haar", "identity"])
def test_synth_at_the_float_edges_ends_alike_with_warnings_as_errors(basis, capsys):
    for values in _EDGE_SPECTRA:
        argv = ["synth", "--kind", "explicit", "--n", "12", "--values", values, "--basis", basis]
        _ends_alike_without_warnings(argv, capsys)


def _edge_matrix(name: str) -> np.ndarray:
    """ROADMAP item 1's corpus at n = 300, and three matrices at the ends of the float range."""
    n, ones = 300, np.ones(299)
    if name == "tied_diagonal":
        return np.diag([1.0, 1.0, 1.0, *np.linspace(0.5, 0.01, n - 3)])
    if name == "repeated_blocks":
        B = linalg.symmetrize(np.random.default_rng(0).standard_normal((50, 50)))
        return np.kron(np.eye(6), B)
    if name == "path_laplacian_plus_identity":
        return np.diag(np.r_[2.0, 3 * ones[1:], 2.0]) - np.diag(ones, 1) - np.diag(ones, -1)
    if name == "cycle_laplacian":
        return 2 * np.eye(n) - np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)
    if name == "zero":
        return np.zeros((n, n))
    if name == "subnormal":
        return np.full((6, 6), 1e-320)
    if name == "near_max":
        return np.diag([1.7e308, 1e308, 1.0, 1.0, 0.5, 0.1])
    A = np.eye(6)  # "infinite_eigenvalue": the top eigenvalue, 3e308, is past the float range
    A[:2, :2] = 1.5e308
    return A


@pytest.mark.parametrize("name", [
    "tied_diagonal", "repeated_blocks", "path_laplacian_plus_identity", "cycle_laplacian",
    "zero", "subnormal", "near_max", "infinite_eigenvalue",
])
def test_file_commands_at_the_edges_end_alike_with_warnings_as_errors(name, workdir, capsys):
    A = _edge_matrix(name)
    paths = {"sym": workdir / "a.sym", "obs": workdir / "a.obs", "samples": workdir / "a.txt"}
    paths["sym"].write_bytes(matrix_bytes(A))
    paths["obs"].write_bytes(observations_bytes(bernoulli_observe(A, 0.5, rng_stream(0, 0))))
    paths["samples"].write_bytes(samples_bytes(SampleSet(N=A.shape[0], n=A.shape[0], X=A)))
    sym, obs, samples = (str(p) for p in paths.values())
    for argv in (
        ["denoise", "--matrix", sym, "--k", "3"],
        ["complete", "--obs", obs, "--k", "3"],
        ["cov", "--samples", samples, "--k", "3"],
        ["cov", "--samples", samples, "--k", "3", "--center"],
        ["verify", "--matrix", sym, "--perturbed", sym, "--k", "3", "--eps", "0.1"],
    ):
        _ends_alike_without_warnings(argv, capsys)


@pytest.mark.parametrize("kind, inputs, message", [
    pytest.param("sampling", ["regime=sqrt_k", "mu0=1", "norm_F=2", "sigma_k1=1", "n=64",
                              "t=0.5", "eps=0.9"],
                 "regime 'sqrt_k' does not use eps", id="sampling-eps"),
    pytest.param("covariance", ["mode=relative", "r_e=3", "eps=0.2", "k=2", "n_samples=10000",
                                "gamma_k=2", "norm_2=-5"],
                 "mode 'relative' does not use norm_2", id="covariance-norm_2"),
    pytest.param("covariance", ["mode=gap", "r_e=3", "eps=0.2", "k=2", "n_samples=10000",
                                "norm_2=2", "gap=0.5", "gamma_k=2"],
                 "mode 'gap' does not use gamma_k", id="covariance-gamma_k"),
])
def test_bounds_rejects_inputs_the_regime_does_not_use(kind, inputs, message, capsys):
    args = [a for kv in inputs for a in ("--set", kv)]
    assert run_cli("bounds", "--kind", kind, *args[:-2]) == 0
    capsys.readouterr()
    assert run_cli("bounds", "--kind", kind, *args) == 1
    assert f"error: {message}\n" in capsys.readouterr().err


def test_verify_chain(workdir, capsys):
    a = workdir / "A.mat"
    run_cli("synth", "--kind", "powerlaw", "--n", "10", "--beta", "1.0",
            "--basis", "haar", "--seed", "11", "--out", str(a))
    assert run_cli("verify", "--matrix", str(a), "--perturbed", str(a),
                   "--k", "2", "--eps", "0.2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["applicable"] and doc["all_passed"]
    assert doc["delta_measured"] == 0.0
    assert {c["name"] for c in doc["checks"]} >= {"head_alignment", "error_split"}
    assert run_cli("verify", "--matrix", str(a), "--perturbed", str(a),
                   "--k", "2", "--eps", "0.2", "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "name,lhs,rhs,slack,passed"
    assert all(row.endswith(",true") for row in lines[1:])
    for k in ("0", "10"):
        assert run_cli("verify", "--matrix", str(a), "--perturbed", str(a),
                       "--k", k, "--eps", "0.2") == 1
        assert f"k must lie in [1, 9], got {k}" in capsys.readouterr().err


def test_unperturbed_verify_and_noiseless_run_at_lanczos_orders(workdir, capsys):
    # A_hat - A and the noise are zero matrices, which annihilate the fixed
    # Lanczos start vector: both norms take the dense route and read 0
    a = workdir / "A.mat"
    assert run_cli("synth", "--kind", "powerlaw", "--n", "600", "--beta", "1",
                   "--basis", "haar", "--out", str(a)) == 0
    assert run_cli("verify", "--matrix", str(a), "--perturbed", str(a),
                   "--k", "5", "--eps", "0.1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta_measured"] == 0.0
    assert doc["applicable"] and doc["all_passed"]
    cfg = workdir / "denoising.cfg"
    cfg.write_text("experiment = denoising\nn = 600\ntrials = 1\nseed = 0\n"
                   "spectrum = powerlaw\nspectrum_beta = 1.0\nbasis = haar\nk = 5\nnu = 0\n")
    assert run_cli("run", "--config", str(cfg)) == 0
    trial = json.loads(capsys.readouterr().out)["trials"][0]
    assert trial["aux"]["noise_norm_2"] == 0.0
    assert trial["bound_satisfied"]


def test_verify_notes_inapplicable_instance(workdir, capsys):
    a = workdir / "A.mat"
    b = workdir / "B.mat"
    run_cli("synth", "--kind", "powerlaw", "--n", "8", "--beta", "1.0",
            "--basis", "identity", "--out", str(a))
    run_cli("synth", "--kind", "explicit", "--n", "8",
            "--values", "9,8,7,6,5,4,3,2", "--basis", "identity", "--out", str(b))
    assert run_cli("verify", "--matrix", str(a), "--perturbed", str(b),
                   "--k", "2", "--eps", "0.1") == 0
    captured = capsys.readouterr()
    assert not json.loads(captured.out)["applicable"]
    assert "not applicable" in captured.err


CONFIG = """
experiment = relative
n = 16
trials = 2
seed = 5
spectrum = powerlaw
spectrum_beta = 1.0
basis = haar
k = 2
eps = 0.2
"""


def test_run_deterministic_bytes(workdir, capsys):
    cfg = workdir / "exp.cfg"
    cfg.write_text(CONFIG)
    out1, out2 = workdir / "r1.json", workdir / "r2.json"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("run", "--config", str(cfg), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["pass_rate"] == 1.0
    assert len(doc["trials"]) == 2
    assert "trial(s)" in capsys.readouterr().err
    c1, c2 = workdir / "r1.csv", workdir / "r2.csv"
    assert run_cli("run", "--config", str(cfg), "--format", "csv", "--out", str(c1)) == 0
    assert run_cli("run", "--config", str(cfg), "--format", "csv", "--out", str(c2)) == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_run_times_the_experiment_on_stderr(workdir, capsys, monkeypatch):
    # the run's wall time is the CLI's: it times run_experiment, and no report holds it
    clock = iter([10.0, 13.254])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    cfg = workdir / "exp.cfg"
    cfg.write_text(CONFIG)
    assert run_cli("run", "--config", str(cfg)) == 0
    captured = capsys.readouterr()
    assert captured.err == "relative: 2 trial(s) in 3.25s\n"
    assert "runtime" not in captured.out


def test_synth_rejects_order_zero(capsys):
    assert run_cli("synth", "--kind", "powerlaw", "--n", "0", "--beta", "1",
                   "--basis", "identity") == 1
    assert capsys.readouterr().err == "error: n must be >= 1, got 0\n"


@pytest.mark.parametrize("flag, name", [("--seed", "seed"), ("--stream", "stream_id")])
def test_synth_rejects_a_key_past_64_bits_by_name(flag, name, capsys):
    assert run_cli("synth", "--kind", "powerlaw", "--n", "4", "--beta", "1",
                   "--basis", "haar", flag, str(2**64)) == 1
    assert capsys.readouterr().err == f"error: {name} must lie in [0, 2**64), got {2**64}\n"


def test_complete_rejects_order_zero_on_the_header(workdir, capsys):
    obs = workdir / "A.obs"
    obs.write_text("obs 0 0.5 0\n")
    assert run_cli("complete", "--obs", str(obs), "--k", "1") == 1
    assert capsys.readouterr().err == "error: line 1: n must be >= 1, got 0\n"


def test_verify_rejects_matrices_of_different_orders(workdir, capsys):
    a, b = workdir / "A.sym", workdir / "B.sym"
    a.write_bytes(matrix_bytes(np.eye(3)))
    b.write_bytes(matrix_bytes(np.eye(4)))
    assert run_cli("verify", "--matrix", str(a), "--perturbed", str(b),
                   "--k", "1", "--eps", "0.1") == 1
    assert capsys.readouterr().err == "error: --matrix is (3, 3), --perturbed is (4, 4)\n"


def test_exit_codes_for_bad_input(workdir, capsys):
    cfg = workdir / "bad.cfg"
    cfg.write_text(CONFIG + "widget = 1\n")
    assert run_cli("run", "--config", str(cfg)) == 1
    assert "widget" in capsys.readouterr().err
    # a bound constant outside its domain fails before anything runs
    cfg.write_text(CONFIG + "c_cov = -1\n")
    assert run_cli("run", "--config", str(cfg)) == 1
    captured = capsys.readouterr()
    assert "c_cov must be positive, got -1.0" in captured.err
    assert captured.out == ""
    assert run_cli("run", "--config", str(workdir / "missing.cfg")) == 1
    capsys.readouterr()
    bad_mat = workdir / "bad.mat"
    bad_mat.write_text("sym 2\n1 2\n3 1\n")
    assert run_cli("denoise", "--matrix", str(bad_mat), "--k", "1") == 1
    assert "not symmetric" in capsys.readouterr().err
    # a spectrum parameter its kind does not read
    assert run_cli("synth", "--kind", "powerlaw", "--n", "4", "--beta", "1", "--c", "0.5",
                   "--basis", "identity") == 1
    assert "spectrum kind 'powerlaw' does not use c" in capsys.readouterr().err
    # argparse-level misuse also maps to 1
    assert run_cli("denoise", "--nope") == 1
    capsys.readouterr()
    assert run_cli("frobnicate") == 1
    capsys.readouterr()


def test_numerical_failures_map_to_two(monkeypatch, workdir, capsys):
    cfg = workdir / "exp.cfg"
    cfg.write_text(CONFIG)

    def boom(_):
        raise np.linalg.LinAlgError("eigendecomposition failed to converge")

    monkeypatch.setattr("spectrunc.harness.run_experiment", boom)
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "numerical error" in capsys.readouterr().err


def test_arpack_failures_map_to_two(monkeypatch, workdir, capsys):
    n = linalg.ARPACK_MIN_N
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((n, n))
    src = workdir / "Y.mat"
    src.write_bytes(matrix_bytes((Y + Y.T) / 2.0))
    big = workdir / "A600.mat"
    assert run_cli("synth", "--kind", "powerlaw", "--n", "600", "--beta", "1",
                   "--basis", "haar", "--out", str(big)) == 0

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((n, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    capsys.readouterr()
    for argv in (
        ["denoise", "--matrix", str(src), "--k", "3"],
        # n=600 takes ARPACK for the top-k pairs of the perturbed matrix
        ["verify", "--matrix", str(big), "--perturbed", str(big), "--k", "5", "--eps", "0.1"],
    ):
        out = workdir / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()


def test_runtime_errors_not_from_arpack_propagate(monkeypatch, workdir):
    cfg = workdir / "exp.cfg"
    cfg.write_text(CONFIG)

    def boom(_):
        raise RuntimeError("not a numerical failure")

    monkeypatch.setattr("spectrunc.harness.run_experiment", boom)
    with pytest.raises(RuntimeError, match="^not a numerical failure$"):
        run_cli("run", "--config", str(cfg))


def test_denoise_rank_range(workdir, capsys):
    src = workdir / "Y.mat"
    assert run_cli("synth", "--kind", "explicit", "--n", "3", "--values", "3,2,1",
                   "--basis", "identity", "--out", str(src)) == 0
    out = workdir / "D.mat"
    assert run_cli("denoise", "--matrix", str(src), "--k", "0", "--out", str(out)) == 0
    np.testing.assert_array_equal(read_matrix(out.read_text()), np.zeros((3, 3)))
    out.unlink()
    assert run_cli("denoise", "--matrix", str(src), "--k", "4", "--out", str(out)) == 1
    assert "k must lie in [0, 3], got 4" in capsys.readouterr().err
    assert not out.exists()


def test_help_and_version_exit_zero(capsys):
    assert run_cli("--version") == 0
    assert "spectrunc" in capsys.readouterr().out
    assert run_cli("--help") == 0
    capsys.readouterr()


#: each command's options as its --help lists them; a report command's --format before --out
_HELP_OPTIONS = {
    "synth": "--kind --n --beta --c --values --basis --seed --stream --out",
    "complete": "--obs --k --out",
    "denoise": "--matrix --k --out",
    "cov": "--samples --k --center --out",
    "bounds": "--kind --set --format --out",
    "verify": "--matrix --perturbed --k --eps --format --out",
    "run": "--config --format --out",
}


@pytest.mark.parametrize("command", list(_HELP_OPTIONS))
def test_help_lists_format_then_out_last(command, capsys):
    assert run_cli(command, "--help") == 0
    options = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  -")]
    assert options == ["-h,", *_HELP_OPTIONS[command].split()]


def _child_env():
    """The environment of a child that imports the same spectrunc as this process."""
    src = str(Path(spectrunc.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "spectrunc.cli", "--version"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("spectrunc ")


# imports spectrunc, then reads each config through spectrunc.io alone, then runs
# each argv through cli.main in turn; after each step it reports the step, its
# exit code (the config's experiment for a read) and whether numpy and scipy
# have been imported
_STARTUP_CHILD = """
import contextlib, io, json, sys

def loaded():
    return ["numpy" in sys.modules, "scipy" in sys.modules]

import spectrunc
seen = [["import spectrunc", None, *loaded()]]
import spectrunc.io
configs, argvs = json.loads(sys.argv[1])
for path in configs:
    seen.append(["read_config", spectrunc.io.read_config(path).experiment, *loaded()])
from spectrunc.cli import main
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen.append([argv[0], code, *loaded()])
print(json.dumps(seen))
"""

#: experiment -> the keys a valid config sets on top of n, trials, seed and basis
_VALID_CONFIGS = {
    "relative": "spectrum = powerlaw\nspectrum_beta = 1\nk = 2\neps = 0.2\n",
    "gap": "spectrum = exponential\nspectrum_c = 0.3\nk = 2\neps = 0.1\n",
    "alignment": "spectrum = powerlaw\nspectrum_beta = 1\nk = 2\neps = 0.2\n",
    "denoising": "spectrum = powerlaw\nspectrum_beta = 1\nk = 2\nnu = 0.01\n",
    "completion": "spectrum = powerlaw\nspectrum_beta = 1\nk = 2\neps = 0.2\n"
                  "p = 0.6\nt = 0.1\n",
    "covariance": "spectrum = explicit\nspectrum_values = 4, 3, 2, 1, 1, 1, 0.5, 0\n"
                  "k = oracle\neps = 0.25\nn_samples = 50\n",
    "decay_rate": "spectrum = exponential\nspectrum_c = 0.5\ndelta_grid = 0.1, 0.01\n",
}

#: bound kind -> valid ``--set`` inputs
_BOUND_INPUTS = {
    "relative": "k=3 eps=0.2 tail_F=0.5 tail_2=0.25 perturbation_2=0.01",
    "gap": "k=2 eps=0.1 gap=0.3 tail_F=0.6",
    "additive": "k=4 delta=0.05 tail_F=0.4 head_F=2",
    "denoising": "nu=0.01 sigma_k1=0.25 k=3 tail_F=0.5",
    "sampling": "regime=gap mu0=2 norm_F=1.5 n=64 t=0.1 gap=0.1 eps=0.2 k=3",
    "covariance": "mode=relative r_e=3 eps=0.2 k=2 n_samples=10000 gamma_k=2",
    "covariance_rates": "norm_2=2 r_e=3 n_samples=500 n=50",
    "powerlaw_cutoff": "delta=0.01 beta=1 n=1000 C1=2",
    "powerlaw_rate": "delta=0.01 beta=1.5 n=1000",
    "exponential_cutoff": "delta=1e-8 c=0.1 n=500",
    "exponential_rate": "delta=1e-8 c=0.1 n=500",
}


def test_each_module_is_an_attribute_of_the_package():
    # a fresh interpreter reaches this through ``spectrunc.linalg``; here every
    # module is already imported, so the package's __getattr__ is asked directly
    for name in spectrunc._EXPORTS:
        assert spectrunc.__getattr__(name) is sys.modules[f"spectrunc.{name}"]


def test_commands_that_never_solve_leave_scipy_unloaded(workdir):
    # commands that never touch an array leave numpy unloaded as well.  This
    # process has both loaded (conftest reads their BLAS), so a fresh
    # interpreter runs the steps.
    assert set(_VALID_CONFIGS) == set(spectrunc.EXPERIMENTS)
    assert set(_BOUND_INPUTS) == set(KINDS)
    configs = []
    for ex, keys in _VALID_CONFIGS.items():
        configs.append(str(workdir / f"{ex}.cfg"))
        Path(configs[-1]).write_text(
            f"experiment = {ex}\nn = 8\ntrials = 1\nseed = 0\nbasis = haar\n{keys}"
        )
    bad_cfg = workdir / "bad.cfg"
    bad_cfg.write_text(CONFIG + "widget = 1\n")
    A = workdir / "A.mat"
    argvs = [
        ["--version"],
        ["--help"],
        *(["bounds", "--kind", kind, *(a for kv in inputs.split() for a in ("--set", kv))]
          for kind, inputs in _BOUND_INPUTS.items()),
        ["bounds", "--kind", "nope"],
        ["run", "--config", str(bad_cfg)],
        # the first array imports numpy, and the first solve scipy
        ["synth", "--kind", "powerlaw", "--n", "200", "--beta", "1",
         "--basis", "haar", "--out", str(A)],
        ["denoise", "--matrix", str(A), "--k", "3", "--out", str(workdir / "D.mat")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_CHILD, json.dumps([configs, argvs])],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import spectrunc", None, False, False],
        *(["read_config", ex, False, False] for ex in _VALID_CONFIGS),
        ["--version", 0, False, False],
        ["--help", 0, False, False],
        *(["bounds", 0, False, False] for _ in _BOUND_INPUTS),
        ["bounds", 1, False, False],
        ["run", 1, False, False],
        ["synth", 0, True, False],
        ["denoise", 0, True, True],
    ]


def test_public_surface_is_unchanged():
    for name in spectrunc.__all__:
        ns = {}
        exec(f"from spectrunc import {name}", ns)
        assert ns[name] is getattr(spectrunc, name)
        assert name in dir(spectrunc)
    # each name is its defining module's object
    assert spectrunc.ExperimentConfig is spectrunc.harness.ExperimentConfig
    assert spectrunc.EXPERIMENTS is spectrunc.harness.EXPERIMENTS
    assert spectrunc.top_eigenpairs is linalg.top_eigenpairs
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        spectrunc.nope


# ------------------------------------------------------------ streamed files

_SHORT4 = "0 0 1 0\n0 0 0\n"

#: command -> the malformed inputs of tests/test_io.py for the reader it runs
_MALFORMED_FILES = {
    ("denoise", "--matrix"): [
        "", "sym 1\n0x10\n", "sym 1\nInfinity\n", "wat 2\n1 0\n0 1\n", "sym 2\n1 0\n",
        "sym 2\n1 0\n0 1 2\n", "sym 2\n1 x\n0 1\n", "sym 2\n1 inf\n0 1\n", "sym 2\n1 2\n3 1\n",
        "sym 4\n1 0 0 0\n0 x 0 0\n" + _SHORT4, "sym 4\n1 0 0 0\n0 1e999 0 0\n" + _SHORT4,
        "sym 3\n1 2 3\nx 1 0\n3 0 y\n", "sym 3\n1 0 inf\n0 1 0\ninf 0 1\n",
        "sym 3\n1 0 0\n0 1 0\n1e999 0 1\n", "sym 2\n# first row\n1 0\n\n   \n# second row\n0 inf\n",
        "sym 100000000\n1 2\n",
    ],
    ("complete", "--obs"): [
        "obs 3 0.5 1\n2 1 5.0\n", "obs 3 0.5 1\n1 4 5.0\n", "obs 3 0.5 2\n1 1 5.0\n",
        "obs 3 0.5 1\n1 1\n", "obs 3 2.0 1\n1 1 5.0\n", "obs 3 0.5 2\n1 1 5.0\n1.0 2 3\n",
        "obs 3 0.5 1\n1 x 5.0\n", "obs 3 0.5 2\n1 1 5.0\n1 2 inf\n",
        "obs 3 0.5 3\n1 1 5.0\n1 2 1.0\n1 1 6.0\n", "obs 3 0.5 3\n1 1 5.0\n# c\n1 2 1.0\n1 1 6.0\n",
        "obs 3 2.0 2\n1 1 5.0\n1 1 6.0\n", "obs 3 0.5 2\n2 1 5.0\n1 1 x\n",
        "obs 2 0.5 2\n# i j value\n1 1 2.5\n\n2 1 -1\n",
    ],
    ("cov", "--samples"): [
        "samples 2 2\n1 0\n", "samples 2 2\n1 0\n0 1 2\n", "samples 0 2\n",
        "samples 2 2\n1 0\n0 x\n", "samples 2 2\n1 nan\n0 1\n",
        "samples 4 4\n1 0 0 0\n0 nan 0 0\n" + _SHORT4, "samples 2 1\n\n# a\n3\n# b\nfour\n",
        "samples 10000000000 10000000000\n1 2\n",
    ],
}

_TEXT_READERS = {"denoise": read_matrix, "complete": read_observations, "cov": read_samples}


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\x0c", "\u2028"])
def test_malformed_files_fail_as_their_text_does(workdir, capsys, sep):
    path = workdir / "bad.txt"
    for (command, flag), texts in _MALFORMED_FILES.items():
        for text in texts:
            text = text.replace("\n", sep)
            with pytest.raises(FormatError) as from_text:
                _TEXT_READERS[command](text)
            path.write_bytes(text.encode())
            assert run_cli(command, flag, str(path), "--k", "1") == 1, repr(text)
            assert capsys.readouterr().err == f"error: {from_text.value}\n", repr(text)


def test_matrix_commands_write_the_same_bytes_to_stdout(workdir, capsys):
    A = workdir / "A.sym"
    assert run_cli("synth", "--kind", "powerlaw", "--beta", "1", "--n", "30",
                   "--basis", "haar", "--seed", "5", "--out", str(A)) == 0
    for argv in (["synth", "--kind", "powerlaw", "--beta", "1", "--n", "30",
                  "--basis", "haar", "--seed", "5"],
                 ["denoise", "--matrix", str(A), "--k", "3"]):
        out = workdir / "out.sym"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
    assert out.read_bytes() == matrix_bytes(read_matrix(out.read_text()))


def _traced_peak(argv) -> int:
    """Bytes traced at the peak of one in-process command, above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_file_commands_hold_their_array_not_their_text(workdir):
    # the text of a file is about 3x the array it holds; a reader that kept
    # the text and its lines peaked at 9.4x (denoise) and 6.2x (cov) here
    n = 300
    rng = np.random.default_rng(17)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = (Q * (1.0 / np.arange(1, n + 1))) @ Q.T
    A = (A + A.T) / 2.0
    X = rng.standard_normal((2 * n, n)) @ Q
    mat, smp, out = workdir / "A.sym", workdir / "X.samples", str(workdir / "out.sym")
    mat.write_bytes(matrix_bytes(A))
    smp.write_bytes(samples_bytes(SampleSet(N=2 * n, n=n, X=X)))
    for argv, array_bytes in (
        (["denoise", "--matrix", str(mat), "--k", "5", "--out", out], A.nbytes),
        (["cov", "--samples", str(smp), "--k", "5", "--center", "--out", out], X.nbytes),
    ):
        _traced_peak(argv)  # the first call imports and warms caches
        assert _traced_peak(argv) < 5 * array_bytes, argv[0]
