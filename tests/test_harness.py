"""Experiment harness: config validation, trial invariants, aggregation."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spectrunc import (
    ExperimentConfig,
    ObservationSet,
    bernoulli_observe,
    cli,
    eig_sym,
    mvn_samples,
    rate_regression,
    run_experiment,
    run_trial,
    sample_covariance,
    truncate,
)
from spectrunc import harness
from spectrunc.bounds import SamplingThreshold
from spectrunc.harness import (
    TrialRecord,
    _aggregate,
    _covariance_step,
    _truncation_error_F,
)
from spectrunc.io import matrix_bytes, report_json_bytes
from spectrunc.linalg import _top_k_route
from spectrunc.synth import (
    haar_orthogonal,
    instance,
    psd_from_spectrum,
    rng_stream,
    scaled_perturbation,
)


def base_cfg(**kw):
    merged = dict(
        experiment="relative", n=24, trials=3, seed=7,
        spectrum_kind="powerlaw", spectrum_beta=1.0, basis="haar",
        k=3, eps=0.2,
    )
    merged.update(kw)
    return ExperimentConfig(**merged)


# ----------------------------------------------------------- config checks


def test_config_accepts_each_experiment():
    base_cfg()
    base_cfg(experiment="gap")
    base_cfg(experiment="alignment")
    base_cfg(experiment="denoising", eps=None, nu=0.05)
    base_cfg(experiment="completion", p=0.5, t=0.1)
    base_cfg(experiment="covariance", n_samples=50)
    base_cfg(experiment="covariance", k=None, k_oracle=True, n_samples=50)
    base_cfg(experiment="decay_rate", k=None, eps=None, delta_grid=(0.1, 0.03))


#: (config fields, the exact message they are rejected with)
_REJECTS = [
    (dict(experiment="nope"),
     "unknown experiment 'nope'; expected one of ('relative', 'gap', 'alignment', "
     "'denoising', 'completion', 'covariance', 'decay_rate')"),
    (dict(n=1), "n must be >= 2, got 1"),
    (dict(trials=0), "trials must be >= 1, got 0"),
    (dict(seed=-1), "seed must lie in [0, 2**64), got -1"),
    (dict(basis="fourier"), "basis must be 'haar' or 'identity', got 'fourier'"),
    (dict(spectrum_kind="cauchy"),
     "unknown spectrum kind 'cauchy'; expected one of ('powerlaw', 'exponential', 'explicit')"),
    (dict(spectrum_beta=None), "spectrum kind 'powerlaw' requires beta"),
    (dict(spectrum_kind="exponential", spectrum_beta=None),
     "spectrum kind 'exponential' requires c"),
    (dict(spectrum_kind="explicit", spectrum_beta=None),
     "spectrum kind 'explicit' requires values"),
    (dict(k=None), "experiment 'relative' requires k"),
    (dict(k=24), "k must lie in [1, 23], got 24"),
    (dict(k=0), "k must lie in [1, 23], got 0"),
    (dict(eps=None), "experiment 'relative' requires eps"),
    (dict(eps=0.3), "eps must lie in (0, 0.25], got 0.3"),
    (dict(eps=0.0), "eps must lie in (0, 0.25], got 0.0"),
    (dict(experiment="denoising", eps=None, nu=None), "experiment 'denoising' requires nu"),
    (dict(experiment="denoising", eps=None, nu=-0.1), "nu must be nonnegative, got -0.1"),
    (dict(experiment="completion", p=None, t=0.1), "experiment 'completion' requires p"),
    (dict(experiment="completion", p=0.0, t=0.1), "p must lie in (0, 1], got 0.0"),
    (dict(experiment="completion", p=0.5, t=None), "experiment 'completion' requires t"),
    (dict(experiment="completion", p=0.5, t=1.0), "t must lie in (0, 1), got 1.0"),
    (dict(experiment="covariance", n_samples=None),
     "experiment 'covariance' requires n_samples"),
    (dict(experiment="covariance", n_samples=1), "n_samples must be >= 2, got 1"),
    (dict(experiment="covariance", k=None), "experiment 'covariance' requires k, n_samples"),
    (dict(experiment="decay_rate", k=None, eps=None, delta_grid=()),
     "decay_rate requires a nonempty delta_grid"),
    (dict(experiment="decay_rate", k=None, eps=None, delta_grid=(0.1, -0.1)),
     "delta_grid entries must be positive"),
    (dict(experiment="decay_rate", eps=None, delta_grid=(0.1,)),  # k must stay unset
     "experiment 'decay_rate' does not use k"),
    (dict(experiment="decay_rate", k=None, eps=None, delta_grid=(0.1,),
          spectrum_kind="explicit", spectrum_beta=None,
          spectrum_values=tuple(1.0 / j for j in range(1, 25))),
     "decay_rate requires a powerlaw or exponential spectrum"),
    (dict(k_oracle=True),  # oracle rank is covariance-only
     "k = oracle is only valid for covariance"),
    (dict(k=None, k_oracle=True), "k = oracle is only valid for covariance"),
    (dict(experiment="covariance", n_samples=50, k_oracle=True),  # k set as well
     "k = oracle chooses k per trial; do not also set k"),
    (dict(spectrum_c=0.5),  # a parameter the powerlaw kind does not read
     "spectrum kind 'powerlaw' does not use c"),
    (dict(spectrum_kind="exponential", spectrum_c=0.3),  # spectrum_beta left set
     "spectrum kind 'exponential' does not use beta"),
    (dict(spectrum_kind="explicit", spectrum_beta=None,
          spectrum_values=(1.0, 0.5, 0.25)),  # not n values
     "expected 24 values, got shape (3,)"),
    # a zero leading eigenvalue: all zero, or exp(-750) underflowing
    (dict(experiment="covariance", n=4, k=1, n_samples=50, spectrum_kind="explicit",
          spectrum_beta=None, spectrum_values=(0.0, 0.0, 0.0, 0.0)),
     "spectrum_values gives a leading eigenvalue of 0; it must be positive"),
    (dict(spectrum_kind="exponential", spectrum_beta=None, spectrum_c=750.0),
     "spectrum_c gives a leading eigenvalue of 0; it must be positive"),
    # bound constants outside their domains
    (dict(C_mc=0.0), "C_mc must be positive, got 0.0"),
    (dict(c_dn=-1.0), "c_dn must be positive, got -1.0"),
    (dict(C_a=-5.0), "C_a must be nonnegative, got -5.0"),
    (dict(C_b=-1.0), "C_b must be nonnegative, got -1.0"),
    (dict(c_cov=-1.0), "c_cov must be positive, got -1.0"),
    (dict(C1=0.0), "C1 must be positive, got 0.0"),
    # explicit values out of order, negative or infinite
    (dict(spectrum_kind="explicit", spectrum_beta=None,
          spectrum_values=(1.0, 2.0) + (0.5,) * 22),
     "explicit spectrum must be nonincreasing"),
    (dict(spectrum_kind="explicit", spectrum_beta=None,
          spectrum_values=(1.0,) * 23 + (-0.5,)),
     "explicit spectrum must be finite and nonnegative"),
    (dict(spectrum_kind="explicit", spectrum_beta=None,
          spectrum_values=(float("inf"),) * 24),
     "explicit spectrum must be finite and nonnegative"),
    # exp(-745.1332) is the least subnormal, 5e-324; exp(-745.1333) rounds to 0
    (dict(spectrum_kind="exponential", spectrum_beta=None, spectrum_c=745.1333),
     "spectrum_c gives a leading eigenvalue of 0; it must be positive"),
    # another experiment's parameter, as a config file rejects it (decay_rate's k above)
    (dict(nu=0.05), "experiment 'relative' does not use nu"),
    (dict(experiment="denoising", eps=None, nu=0.05, p=0.5),
     "experiment 'denoising' does not use p"),
    # a Philox key word holds 64 bits
    (dict(seed=2**64), "seed must lie in [0, 2**64), got 18446744073709551616"),
]


@pytest.mark.parametrize("kw, message", _REJECTS, ids=[f"kw{i}" for i in range(len(_REJECTS))])
def test_config_rejects(kw, message):
    with pytest.raises(ValueError) as info:
        base_cfg(**kw)
    assert str(info.value) == message


def test_config_accepts_the_least_subnormal_leading_eigenvalue():
    cfg = base_cfg(spectrum_kind="exponential", spectrum_beta=None, spectrum_c=745.1332)
    assert cfg.spectrum()[0] == 5e-324


@pytest.mark.parametrize("p", [0.0, 1.5, float("nan")])
def test_observation_rate_domain_at_every_site(p):
    empty = np.zeros(0, dtype=np.int64)
    sites = (
        lambda: base_cfg(experiment="completion", p=p, t=0.1),
        lambda: ObservationSet(n=2, p=p, rows=empty, cols=empty, values=np.zeros(0)),
        lambda: bernoulli_observe(np.eye(3), p, np.random.default_rng(0)),
    )
    for site in sites:
        with pytest.raises(ValueError) as info:
            site()
        assert str(info.value) == f"p must lie in (0, 1], got {p}"


def test_config_is_frozen():
    cfg = base_cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n = 10


# --------------------------------------------------------- rate regression


def test_rate_regression_exact_slopes():
    x = np.array([0.001, 0.01, 0.1, 1.0])
    slope, intercept = rate_regression(x, x)
    assert slope == 1.0
    assert abs(intercept) <= 1e-12
    slope, _ = rate_regression(x, np.sqrt(x))
    assert slope == pytest.approx(0.5, abs=1e-12)
    slope, intercept = rate_regression(x, 3.0 * x**0.7)
    assert slope == pytest.approx(0.7, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_rate_regression_domain():
    with pytest.raises(ValueError):
        rate_regression([1.0], [1.0])
    with pytest.raises(ValueError):
        rate_regression([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        rate_regression([2.0, 2.0], [1.0, 3.0])
    with pytest.raises(ValueError):
        rate_regression([1.0, 2.0, 3.0], [1.0, 2.0])


# ------------------------------------------------------------- trial runs


def test_perturbation_trial_invariants():
    for experiment in ("relative", "gap", "alignment"):
        cfg = base_cfg(experiment=experiment, trials=2)
        rep = run_experiment(cfg)
        assert [r.trial_id for r in rep.trials] == [0, 1]
        for r in rep.trials:
            assert r.precondition_holds  # perturbation placed exactly at allowance
            assert r.bound_satisfied == (r.measured_error_F <= r.bound_value + 1e-8)
            assert r.ratio_F == pytest.approx(r.measured_error_F / r.tail_F, rel=1e-15)
            assert r.measured_error_2 is not None
        assert rep.pass_rate == 1.0
        assert rep.aggregates["pass_rate_denominator"] == 2
        assert rep.tool["name"] == "spectrunc"


def test_relative_trial_near_the_top_of_the_float_range_is_finite():
    # ||D||_F and the tail's sum of squares overflowed at sigma_1 = 1e160:
    # the record held inf and nan, and its report could not be written
    n = 30
    sig = tuple(1e160 * (n - i) / n for i in range(n))
    cfg = base_cfg(n=n, trials=1, seed=0, spectrum_kind="explicit", spectrum_beta=None,
                   spectrum_values=sig)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_experiment(cfg)
    (rec,) = rep.trials
    tail = 1e160 * math.sqrt(sum(((n - i) / n) ** 2 for i in range(3, n)))
    assert rec.tail_F == pytest.approx(tail, rel=1e-14)
    assert math.isfinite(rec.measured_error_F) and math.isfinite(rec.measured_error_2)
    assert 1.0 < rec.ratio_F < 1.001
    assert json.loads(report_json_bytes(rep))["trials"][0]["ratio_F"] == rec.ratio_F


def test_alignment_trial_carries_chain_results():
    rep = run_experiment(base_cfg(experiment="alignment", trials=2))
    for r in rep.trials:
        assert r.aux["checks_total"] in (8, 9)
        assert r.aux["checks_passed"] == r.aux["checks_total"]
        assert r.aux["all_checks_passed"]
        assert 0.0 <= r.aux["sin_head_alignment"] <= 1.0
    assert rep.aggregates["all_checks_passed_rate"] == 1.0


def _dense_eigh_orders(monkeypatch):
    """Orders of the matrices passed to numpy.linalg.eigh from now on."""
    orders = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return orders


def test_alignment_decomposes_each_matrix_once(monkeypatch, tmp_path):
    n = 24
    cfg = base_cfg(experiment="alignment", n=n, trials=1)
    orders = _dense_eigh_orders(monkeypatch)
    rec = run_trial(cfg, 0)
    assert rec.aux["checks_total"] > 0  # the whole chain ran
    assert orders.count(n) == 1  # A in the chain; A_hat keeps only its top k

    sig = cfg.spectrum()
    A = instance(sig, cfg.basis, rng_stream(cfg.seed, 0))
    E = scaled_perturbation(n, 0.5 * cfg.eps**2 * sig[cfg.k], rng_stream(cfg.seed, 1))
    (tmp_path / "A.sym").write_bytes(matrix_bytes(A))
    (tmp_path / "Ahat.sym").write_bytes(matrix_bytes(A + E))
    orders.clear()
    assert cli.main(["verify", "--matrix", str(tmp_path / "A.sym"),
                     "--perturbed", str(tmp_path / "Ahat.sym"), "--k", str(cfg.k),
                     "--eps", str(cfg.eps), "--out", str(tmp_path / "v.json")]) == 0
    assert json.loads((tmp_path / "v.json").read_text())["applicable"]
    assert orders.count(n) == 1


def test_denoising_zero_noise_reduces_to_truncation():
    cfg = base_cfg(experiment="denoising", eps=None, nu=0.0, basis="identity", trials=1)
    rep = run_experiment(cfg)
    r = rep.trials[0]
    assert r.measured_error_F == pytest.approx(r.tail_F, rel=1e-12)
    assert r.bound_value == pytest.approx(r.tail_F, rel=1e-15)
    assert r.bound_satisfied


def test_completion_full_observation_ratio_one():
    cfg = base_cfg(experiment="completion", p=1.0, t=0.1, basis="identity", trials=1)
    rep = run_experiment(cfg)
    r = rep.trials[0]
    assert r.ratio_F == pytest.approx(1.0, abs=1e-12)
    assert r.aux["observed_count"] == cfg.n * (cfg.n + 1) // 2
    assert r.aux["threshold_vacuous"] == (r.aux["threshold_raw"] > 1.0)


def test_covariance_oracle_rank_matches_brute_force():
    cfg = base_cfg(
        experiment="covariance", k=None, k_oracle=True, n_samples=120,
        spectrum_kind="exponential", spectrum_beta=None, spectrum_c=0.3,
        n=25, trials=1, seed=13,
    )
    rec = run_trial(cfg, 0)
    # replay the trial's stream discipline to rebuild the same sample draw
    rng = rng_stream(cfg.seed, 0)
    sig = cfg.spectrum()
    A = instance(sig, cfg.basis, rng)
    SC = sample_covariance(mvn_samples(A, cfg.n_samples, rng))
    w, U = eig_sym(SC)
    errs = [
        float(np.linalg.norm(truncate(w[:k], U[:, :k]) - A, "fro"))
        for k in range(1, cfg.n + 1)
    ]
    assert rec.aux["k_used"] == int(np.argmin(errs)) + 1
    assert rec.measured_error_F == pytest.approx(min(errs), rel=1e-9)
    assert rec.aux["beats_full"]
    assert rec.aux["err_full_F"] == pytest.approx(errs[-1], rel=1e-12)


def test_run_trial_rejects_the_decay_sweep():
    cfg = ExperimentConfig(experiment="decay_rate", n=10, trials=1, seed=0, basis="identity",
                           spectrum_kind="powerlaw", spectrum_beta=1.0, delta_grid=(0.1,))
    with pytest.raises(ValueError, match="^experiment 'decay_rate' is not organized per trial$"):
        run_trial(cfg, 0)


def test_decay_rate_structure():
    cfg = base_cfg(
        experiment="decay_rate", k=None, eps=None, n=200, trials=2,
        delta_grid=(0.1, 0.03), basis="identity",
    )
    rep = run_experiment(cfg)
    assert len(rep.trials) == 4  # directions x deltas
    assert {r.aux["direction_trial"] for r in rep.trials} == {0, 1}
    per = rep.aggregates["per_delta"]
    assert [row["delta"] for row in per] == [0.03, 0.1]
    assert [row["k"] for row in per] == [32, 9]
    assert all(row["cutoff_valid"] for row in per)
    assert "slope" in rep.aggregates
    # smaller delta, smaller error
    assert per[0]["median_error_F"] < per[1]["median_error_F"]


def test_decay_precondition_holds_at_its_flip_point():
    # C1 = 16 gives k = 31 at delta = 1/2, so tail_2 = 1/32 = delta/16 exactly
    cfg = base_cfg(experiment="decay_rate", k=None, eps=None, n=40, trials=1,
                   basis="identity", delta_grid=(0.5,), C1=16.0)
    (rec,) = run_experiment(cfg).trials
    assert (rec.aux["k_used"], rec.tail_2) == (31, 1 / 32)
    assert rec.precondition_holds and rec.precondition_margin == 0.0


def test_covariance_error_equal_to_the_rate_beats_the_guarantee():
    cfg = base_cfg(experiment="covariance", n_samples=50)
    sig = cfg.spectrum()
    rng = rng_stream(cfg.seed, 0)
    _, _, judge = _covariance_step(cfg, sig, instance(sig, cfg.basis, rng), rng)
    rate = judge(0.0, 1.0)[3]["rate_frobenius"]
    assert judge(rate, 1.0)[3]["beats_guarantee"]


def test_completion_precondition_holds_at_the_required_rate(monkeypatch):
    monkeypatch.setattr(harness, "completion_sampling_threshold",
                        lambda *args, **kw: SamplingThreshold("relative", 0.5, 0.5, False))
    rec = run_trial(base_cfg(experiment="completion", p=0.5, t=0.1), 0)
    assert rec.precondition_holds and rec.precondition_margin == 0.0


def test_decay_rate_deterministic():
    cfg = base_cfg(
        experiment="decay_rate", k=None, eps=None, n=150, trials=1,
        delta_grid=(0.1,), basis="haar",
    )
    e1 = run_experiment(cfg).trials[0].measured_error_F
    e2 = run_experiment(cfg).trials[0].measured_error_F
    assert e1 == e2


# ------------------------------------------------------------- aggregation


def synthetic_record(i, holds, satisfied):
    return TrialRecord(
        trial_id=i,
        precondition_holds=holds,
        measured_error_F=float(i + 1),
        tail_F=1.0,
        tail_2=0.5,
        ratio_F=float(i + 1),
        bound_value=10.0,
        bound_satisfied=satisfied,
    )


def test_pass_rate_excludes_failed_preconditions():
    cfg = base_cfg()
    records = [
        synthetic_record(0, True, True),
        synthetic_record(1, True, False),
        synthetic_record(2, False, False),
    ]
    agg, pass_rate = _aggregate(cfg, records)
    assert pass_rate == 0.5
    assert agg["pass_rate_denominator"] == 2
    none_agg, none_rate = _aggregate(cfg, [synthetic_record(0, False, False)])
    assert none_rate is None
    assert none_agg["pass_rate_denominator"] == 0


def test_aggregate_is_order_independent():
    cfg = base_cfg(experiment="decay_rate", k=None, eps=None, n=100,
                   delta_grid=(0.1, 0.05), trials=3)
    rep = run_experiment(cfg)
    shuffled = list(rep.trials)
    rng = np.random.default_rng(0)
    rng.shuffle(shuffled)
    agg1, rate1 = _aggregate(cfg, rep.trials)
    agg2, rate2 = _aggregate(cfg, shuffled)
    assert agg1 == agg2
    assert rate1 == rate2


def test_five_number_summary_in_report():
    rep = run_experiment(base_cfg(trials=5))
    e = rep.aggregates["error_F"]
    assert e["min"] <= e["q25"] <= e["median"] <= e["q75"] <= e["max"]
    assert rep.aggregates["trials"] == 5


# ------------------------------------------------- truncation error routes


def test_truncation_error_routes_agree():
    n = 620
    sig = np.exp(-0.02 * np.arange(1, n + 1))
    A = np.diag(sig)
    A_hat = A + scaled_perturbation(n, 0.05, rng_stream(21, 1))
    w, U = eig_sym(A_hat)
    # one k per top_eigenpairs route: ARPACK, evr subset, full evd
    for k, route in ((12, "arpack"), (100, "evr"), (400, "evd")):
        assert _top_k_route(n, k) == route
        direct = float(np.linalg.norm(truncate(w[:k], U[:, :k]) - A, "fro"))
        assert _truncation_error_F(A_hat.copy(), k, sig) == pytest.approx(direct, rel=1e-9)


def decay_cfg(n, seed, basis, **spectrum):
    return ExperimentConfig(
        experiment="decay_rate", n=n, trials=2, seed=seed, basis=basis, **spectrum
    )


@pytest.mark.parametrize("n, seed, basis", [(120, 11, "identity"), (300, 3, "haar")])
def test_decay_errors_below_identity_rounding_are_dense(n, seed, basis):
    # exponential decay at these deltas leaves err^2 within a few rounding
    # units of the trace identity's scale; the identity alone read up to 6x
    # the dense error here, or 0 (a failed rate regression), or less than tail_F
    cfg = decay_cfg(n, seed, basis, spectrum_kind="exponential", spectrum_c=0.5,
                    delta_grid=(1e-8, 1e-9, 1e-10))
    rep = run_experiment(cfg)
    sig = cfg.spectrum()
    for t in range(cfg.trials):
        rng = rng_stream(seed, t)
        U = haar_orthogonal(n, rng) if basis == "haar" else np.eye(n)
        G = U.T @ scaled_perturbation(n, 1.0, rng) @ U
        for r in (r for r in rep.trials if r.aux["direction_trial"] == t):
            k = r.aux["k_used"]
            w, V = eig_sym(r.aux["delta"] * (G + G.T) / 2.0 + np.diag(sig))
            ref = float(np.linalg.norm(truncate(w[:k], V[:, :k]) - np.diag(sig), "fro"))
            assert r.measured_error_F == pytest.approx(ref, rel=1e-9)
            assert r.measured_error_F >= r.tail_F  # Eckart-Young
    assert rep.aggregates["slope"] > 0


def test_decay_errors_within_the_trace_identity_margin_are_dense():
    # a steep power law at small deltas puts err^2 between 1e4 and 1e8 times the
    # identity's rounding scale u * (||sig||^2 + ||lambda||^2), inside
    # TRACE_IDENTITY_MARGIN; the identity there read 5e-8 to 2e-6 off the dense error
    n = 60
    cfg = decay_cfg(n, 0, "identity", spectrum_kind="powerlaw", spectrum_beta=3.0,
                    delta_grid=(1e-5, 1e-6))
    rep = run_experiment(cfg)
    sig = cfg.spectrum()
    for r in rep.trials:
        G = scaled_perturbation(n, 1.0, rng_stream(cfg.seed, r.aux["direction_trial"]))
        k = r.aux["k_used"]
        w, V = eig_sym(r.aux["delta"] * G + np.diag(sig))
        ref = float(np.linalg.norm(truncate(w[:k], V[:, :k]) - np.diag(sig), "fro"))
        scale = np.finfo(np.float64).eps * (sig @ sig + w[:k] @ w[:k])
        assert 1e4 < ref**2 / scale < 1e8
        assert r.measured_error_F == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n", [150, 300])
def test_haar_decay_error_matches_original_basis(n):
    # the sweep runs in A's eigenbasis; measure ||A_hat_k - A||_F densely in
    # the basis the trial drew, with A assembled
    cfg = decay_cfg(n, 5, "haar", spectrum_kind="powerlaw", spectrum_beta=1.0,
                    delta_grid=(0.1, 0.05, 0.03))
    rep = run_experiment(cfg)
    sig = cfg.spectrum()
    routes = set()
    for t in range(cfg.trials):
        rng = rng_stream(cfg.seed, t)
        A = psd_from_spectrum(sig, haar_orthogonal(n, rng))
        G = scaled_perturbation(n, 1.0, rng)
        for r in (r for r in rep.trials if r.aux["direction_trial"] == t):
            k = r.aux["k_used"]
            routes.add(_top_k_route(n, k))
            w, V = eig_sym(A + r.aux["delta"] * G)
            ref = float(np.linalg.norm(truncate(w[:k], V[:, :k]) - A, "fro"))
            assert r.measured_error_F == pytest.approx(ref, rel=1e-9)
    assert routes == ({"evr", "evd"} if n == 150 else {"arpack"})


@pytest.mark.parametrize("n, basis, delta_grid, limit", [
    # k = 9, 32, 99, 332: ARPACK, ARPACK, evr, then evd, whose A_hat and
    # divide-and-conquer workspace (2n^2 doubles) set the peak
    (600, "identity", (0.1, 0.03, 0.01, 0.003), 3.5),
    # the second trial's Haar QR sets the peak
    (100, "haar", (0.1, 0.03), 6.0),
])
def test_decay_sweep_holds_no_spare_square_matrix(n, basis, delta_grid, limit):
    cfg = decay_cfg(n, 0, basis, spectrum_kind="powerlaw", spectrum_beta=1.0,
                    delta_grid=delta_grid)
    rep = run_experiment(cfg)  # warm-up: first-use allocations are not the sweep's
    if basis == "identity":
        ks = [r.aux["k_used"] for r in rep.trials[:4]]
        assert [_top_k_route(n, k) for k in ks] == ["arpack", "arpack", "evr", "evd"]
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit * 8 * n * n
