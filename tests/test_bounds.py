"""Closed-form guarantees: frozen values, domain checks, and envelope invariants.

Every frozen constant below was computed independently (high-precision arithmetic
or a direct numerical check) before being pinned here.
"""

import math

import numpy as np
import pytest

from spectrunc import (
    ExperimentConfig,
    additive_error_bound,
    completion_sampling_threshold,
    covariance_admissible,
    denoising_error_bound,
    exponential_error_rate,
    exponential_rank_cutoff,
    gap_error_bound,
    powerlaw_error_rate,
    powerlaw_rank_cutoff,
    relative_error_bound,
    sample_covariance_rates,
    spectral_envelope,
    spectrum_stats,
)
from spectrunc.config import spectrum_head


# ------------------------------------------------------------ relative bound


def test_relative_bound_frozen_unit_tail():
    rep = relative_error_bound(k=1, eps=0.25, tail_F=1.0, tail_2=1.0)
    assert rep.value == pytest.approx(18.015611460128483, rel=1e-14)
    assert rep.value == pytest.approx(18.0157, abs=1e-3)
    assert rep.precondition_holds  # nothing measured, nothing to violate
    assert rep.margin is None


def test_relative_bound_frozen_second():
    rep = relative_error_bound(k=4, eps=0.1, tail_F=2.0, tail_2=0.5)
    # (1 + 3.2)*2 + 102*sqrt(8)*0.01*0.5 = 9.8424978...
    assert rep.value == pytest.approx(9.842497833620557, rel=1e-14)


def test_relative_bound_structure():
    k, eps, tf, t2 = 3, 0.2, 1.5, 0.7
    rep = relative_error_bound(k=k, eps=eps, tail_F=tf, tail_2=t2)
    expect = (1 + 32 * eps) * tf + 102 * np.sqrt(2 * k) * eps**2 * t2
    assert rep.value == pytest.approx(expect, rel=1e-15)
    assert rep.inputs["k"] == k


def test_relative_bound_precondition_margin():
    allowance = 0.25**2 * 1.0
    ok = relative_error_bound(k=1, eps=0.25, tail_F=1.0, tail_2=1.0,
                              perturbation_2=allowance)
    assert ok.precondition_holds
    assert ok.margin == pytest.approx(0.0, abs=1e-12)
    bad = relative_error_bound(k=1, eps=0.25, tail_F=1.0, tail_2=1.0,
                               perturbation_2=allowance * 1.01)
    assert not bad.precondition_holds
    assert bad.margin < 0


def test_relative_bound_domain():
    for eps in (0.0, 0.26, -0.1, 1.0):
        with pytest.raises(ValueError):
            relative_error_bound(k=1, eps=eps, tail_F=1.0, tail_2=1.0)
    with pytest.raises(ValueError):
        relative_error_bound(k=0, eps=0.1, tail_F=1.0, tail_2=1.0)
    with pytest.raises(ValueError):
        relative_error_bound(k=1, eps=0.1, tail_F=-1.0, tail_2=1.0)


# ----------------------------------------------------------------- gap bound


def test_gap_bound_frozen():
    rep = gap_error_bound(k=8, eps=0.25, gap=0.5, tail_F=3.0)
    assert rep.value == pytest.approx(54.0, rel=1e-13)
    rep2 = gap_error_bound(k=2, eps=0.1, gap=1.0, tail_F=0.0)
    assert rep2.value == pytest.approx(20.4, rel=1e-13)


def test_gap_bound_precondition_uses_gap_scale():
    ok = gap_error_bound(k=2, eps=0.1, gap=1.0, tail_F=0.0, perturbation_2=0.1)
    assert ok.precondition_holds
    bad = gap_error_bound(k=2, eps=0.1, gap=1.0, tail_F=0.0, perturbation_2=0.11)
    assert not bad.precondition_holds
    # gap = 0 degenerates gracefully: only a zero perturbation qualifies
    zero = gap_error_bound(k=2, eps=0.1, gap=0.0, tail_F=1.5)
    assert zero.value == pytest.approx(1.5, rel=1e-15)


# ------------------------------------------------------------ additive bound


def test_additive_bound_frozen():
    rep = additive_error_bound(k=16, delta=0.01, tail_F=1.0, head_F=4.0)
    # 1 + 4*0.01 + 2*2*sqrt(0.04) = 1.84
    assert rep.value == pytest.approx(1.84, rel=1e-13)


def test_additive_bound_zero_noise_collapses_to_tail():
    rep = additive_error_bound(k=5, delta=0.0, tail_F=2.5, head_F=9.0)
    assert rep.value == pytest.approx(2.5, rel=1e-15)


# -------------------------------------------------------------- envelope


def test_envelope_frozen_three_regimes():
    sig = np.array([3.0, 1.25, 1.2, 1.18, 1.0])
    env = spectral_envelope(sig, k=2, eps=0.1)
    assert (env.m1, env.m2) == (1, 4)
    flat = spectral_envelope(np.ones(6), k=3, eps=0.1)
    assert (flat.m1, flat.m2) == (0, 6)
    steep = spectral_envelope(np.array([10.0, 1.0, 0.1, 0.01]), k=1, eps=0.25)
    assert (steep.m1, steep.m2) == (1, 1)
    # sigma_2 = (1 + 2 eps) sigma_3 and sigma_3 = sigma_2 - 2 eps sigma_3, exactly
    edge = spectral_envelope(np.array([4.0, 3.0, 2.0, 1.0]), k=2, eps=0.25)
    assert (edge.m1, edge.m2) == (2, 3)


def test_envelope_invariants_random():
    rng = np.random.default_rng(20260823)
    for _ in range(10_000):
        n = int(rng.integers(2, 30))
        sig = np.sort(np.abs(rng.standard_normal(n)))[::-1] + 1e-6
        k = int(rng.integers(1, n))
        eps = float(rng.uniform(0.01, 0.25))
        env = spectral_envelope(sig, k=k, eps=eps)
        assert 0 <= env.m1 <= k <= env.m2 <= n
        hi = (1 + 2 * eps) * sig[k]
        lo = sig[k - 1] - 2 * eps * sig[k]
        if env.m1 >= 1:
            assert sig[env.m1 - 1] >= hi
        for j in range(env.m1, k):
            assert sig[j] < hi
        for j in range(k, env.m2):
            assert sig[j] >= lo
        if env.m2 < n:
            assert sig[env.m2] < lo


def test_envelope_domain():
    with pytest.raises(ValueError):
        spectral_envelope(np.array([2.0, 1.0]), k=2, eps=0.1)  # needs k < n
    with pytest.raises(ValueError):
        spectral_envelope(np.array([2.0, 1.0]), k=1, eps=0.3)


# ------------------------------------------------------- decay-rate formulas


def test_powerlaw_cutoff_frozen():
    assert powerlaw_rank_cutoff(0.01, beta=1.0, n=10_000) == 99
    assert powerlaw_rank_cutoff(0.01, beta=1.0, n=100) == 99
    assert powerlaw_rank_cutoff(0.5, beta=1.0, n=2) == 1


def test_powerlaw_rate_frozen():
    assert powerlaw_error_rate(1e-4, beta=1.0, n=10**6) == pytest.approx(0.01, rel=1e-12)
    assert powerlaw_error_rate(1e-6, beta=1.0, n=100) == pytest.approx(0.1, rel=1e-12)


def test_powerlaw_domain():
    with pytest.raises(ValueError):
        powerlaw_rank_cutoff(0.01, beta=0.5, n=100)  # too slow to be summable
    with pytest.raises(ValueError):
        powerlaw_rank_cutoff(0.6, beta=1.0, n=100)  # delta above 1/2
    with pytest.raises(ValueError):
        powerlaw_rank_cutoff(0.5, beta=1.0, n=1)  # no room for a cutoff


def test_exponential_cutoff_frozen():
    d = float(np.exp(-20.0))
    assert exponential_rank_cutoff(d, c=1.0, n=10**6) == 16
    assert exponential_rank_cutoff(d, c=1.0, n=10) == 9
    assert exponential_rank_cutoff(d, c=2.0, n=10**6) == 7


def test_exponential_rate_frozen():
    d = float(np.exp(-20.0))
    r = exponential_error_rate(d, c=1.0, n=100)
    assert r == pytest.approx(1.844e-7, rel=1e-3)
    assert r == pytest.approx(d * 20.0**1.5, rel=1e-12)
    # small n switches to the floor term sqrt(n) * exp(-c n)
    r4 = exponential_error_rate(d, c=1.0, n=4)
    assert r4 == pytest.approx(2.0 * np.exp(-4.0), rel=1e-12)


def test_cutoff_rules_answer_at_the_ends_of_the_delta_range():
    # delta ** (-1/beta) overflows the float range: the cutoff is n - 1
    assert powerlaw_rank_cutoff(3.547163594897121e-296, 0.7476636292951113, 100) == 99
    # 1/delta overflows for a subnormal delta: log(1/delta) is taken as -log(delta)
    assert exponential_rank_cutoff(1e-310, c=1.0, n=100) == 99
    assert exponential_error_rate(1e-310, c=1.0, n=100) == pytest.approx(
        10.0 * math.exp(-100.0), rel=1e-12
    )


def test_exponential_domain():
    with pytest.raises(ValueError):
        exponential_rank_cutoff(1e-3, c=1.0, n=100)  # delta must sit below e^-16
    with pytest.raises(ValueError):
        exponential_error_rate(0.0, c=1.0, n=100)


# --------------------------------------------------------- sampling threshold


def test_sampling_threshold_sqrt_k_formula():
    n, k, t = 64, 4, 0.5
    thr = completion_sampling_threshold(
        mu0=1.0, norm_F=np.sqrt(float(k)), sigma_k1=1.0, n=n, t=t, regime="sqrt_k",
    )
    expect = 8.0 * k * np.log(n / t) / n
    assert thr.p_raw == pytest.approx(expect, rel=1e-12)
    assert thr.p == pytest.approx(min(1.0, expect), rel=1e-12)
    assert thr.regime == "sqrt_k"


def test_sampling_threshold_relative_scales_sqrt_k():
    kw = dict(mu0=2.0, norm_F=4.0, sigma_k1=0.5, n=128, t=0.1)
    base = completion_sampling_threshold(regime="sqrt_k", **kw)
    rel = completion_sampling_threshold(eps=0.1, k=3, regime="relative", **kw)
    assert rel.p_raw == pytest.approx(base.p_raw * max(0.1**-4, 9.0), rel=1e-12)
    assert rel.vacuous and rel.p == 1.0


def test_sampling_threshold_gap_regime():
    thr = completion_sampling_threshold(
        mu0=1.5, norm_F=3.0, gap=0.4, n=100, t=0.5, eps=0.2, k=2, regime="gap",
    )
    expect = 8.0 * 1.5**2 * 9.0 * np.log(200.0) / 100.0 * 2.0 / (0.04 * 0.16)
    assert thr.p_raw == pytest.approx(expect, rel=1e-12)
    assert thr.vacuous and thr.p == 1.0


def test_sampling_threshold_domain():
    base = dict(mu0=1.0, norm_F=1.0, n=10, t=0.5)
    kw = dict(base, eps=0.1, k=1)
    with pytest.raises(ValueError, match="sigma_k1 must be positive"):
        completion_sampling_threshold(sigma_k1=0.0, regime="sqrt_k", **base)
    with pytest.raises(ValueError, match="gap must be positive"):
        completion_sampling_threshold(gap=0.0, regime="gap", **kw)
    with pytest.raises(ValueError):
        completion_sampling_threshold(sigma_k1=1.0, gap=1.0, regime="nope", **kw)
    with pytest.raises(ValueError, match="t must lie"):
        completion_sampling_threshold(sigma_k1=1.0, regime="sqrt_k",
                                      mu0=1.0, norm_F=1.0, n=10, t=1.0)
    # an input the regime needs and did not get is named
    with pytest.raises(ValueError, match="^regime 'gap' requires gap$"):
        completion_sampling_threshold(regime="gap", **kw)
    with pytest.raises(ValueError, match="^regime 'relative' requires eps$"):
        completion_sampling_threshold(mu0=1.0, norm_F=1.0, n=10, t=0.5, k=1,
                                      sigma_k1=1.0, regime="relative")


def test_sampling_threshold_rejects_unused_inputs():
    kw = dict(mu0=1.0, norm_F=1.0, n=10, t=0.5)
    # sqrt_k reads only sigma_k1: an out-of-domain eps must not pass silently
    with pytest.raises(ValueError, match="^regime 'sqrt_k' does not use eps$"):
        completion_sampling_threshold(sigma_k1=1.0, eps=0.9, regime="sqrt_k", **kw)
    with pytest.raises(ValueError, match="^regime 'sqrt_k' does not use gap, eps, k$"):
        completion_sampling_threshold(sigma_k1=1.0, gap=1.0, eps=0.1, k=1,
                                      regime="sqrt_k", **kw)
    with pytest.raises(ValueError, match="^regime 'relative' does not use gap$"):
        completion_sampling_threshold(sigma_k1=1.0, gap=1.0, eps=0.1, k=1,
                                      regime="relative", **kw)
    with pytest.raises(ValueError, match="^regime 'gap' does not use sigma_k1$"):
        completion_sampling_threshold(sigma_k1=1.0, gap=1.0, eps=0.1, k=1,
                                      regime="gap", **kw)


# ------------------------------------------------------------- denoising


def test_denoising_bound_frozen():
    rep = denoising_error_bound(nu=0.01, sigma_k1=1.0, k=1, tail_F=1.0)
    # (1 + 0.1)*1 + 3*0.01 = 1.13
    assert rep.value == pytest.approx(1.13, rel=1e-13)
    assert rep.precondition_holds


def test_denoising_bound_precondition():
    rep = denoising_error_bound(nu=0.3, sigma_k1=1.0, k=1, tail_F=1.0)
    assert not rep.precondition_holds
    assert rep.margin < 0
    ok = denoising_error_bound(nu=0.24, sigma_k1=1.0, k=1, tail_F=1.0)
    assert ok.precondition_holds
    edge = denoising_error_bound(nu=0.25, sigma_k1=1.0, k=1, tail_F=1.0)  # nu must lie below
    assert not edge.precondition_holds and edge.margin == 0.0


# ------------------------------------------------------------- covariance


def test_covariance_admissible_frozen():
    rep = covariance_admissible(
        r_e=5.0, eps=0.25, k=2, gamma_k=2.0, n_samples=10**6, mode="relative",
    )
    assert rep.expr == pytest.approx(0.07073541405677708, rel=1e-12)
    assert rep.admissible
    assert rep.multiplier == pytest.approx(1.25, rel=1e-15)


def test_covariance_admissible_rejects_infinite_ratio():
    with pytest.raises(ValueError):
        covariance_admissible(
            r_e=5.0, eps=0.25, k=2, gamma_k=np.inf, n_samples=10**6, mode="relative",
        )


def test_overflowing_powers_give_inf_not_overflow_error():
    # float ** raises OverflowError where a product would give inf
    for eps, gamma_k in ((0.2, 1e200), (1e-90, 2.0)):
        rep = covariance_admissible(
            r_e=3.0, eps=eps, k=2, gamma_k=gamma_k, n_samples=100, mode="relative",
        )
        assert rep.expr == math.inf and not rep.admissible and rep.margin == -math.inf
    rep = covariance_admissible(
        r_e=3.0, eps=0.2, k=2, n_samples=100, mode="gap", norm_2=1e200, gap=0.5,
    )
    assert rep.expr == math.inf
    common = {"norm_F": 1.0, "n": 10, "t": 0.1, "sigma_k1": 1.0, "k": 2}
    for mu0, eps in ((1e200, 0.2), (1.0, 1e-90)):
        rep = completion_sampling_threshold(mu0=mu0, eps=eps, regime="relative", **common)
        assert rep.p_raw == math.inf and rep.p == 1.0 and rep.vacuous


def test_powers_leaving_the_float_range_midway_give_the_exact_value():
    # mu0**2 underflows to 0 and norm_F**2 overflows, where their product is about 1
    rep = completion_sampling_threshold(mu0=1e-200, norm_F=1e200, n=10, t=0.1,
                                        regime="sqrt_k", sigma_k1=1.0)
    assert rep.p_raw == pytest.approx(8.0 * math.log(100.0) / 10.0, rel=1e-14)
    # 0 * inf and a divisor of 0: the true value is past the float range
    rep = completion_sampling_threshold(mu0=1e-200, norm_F=1e200, n=10, t=0.1,
                                        regime="sqrt_k", sigma_k1=1e-300)
    assert rep.p_raw == math.inf
    rep = covariance_admissible(r_e=3.0, eps=1e-200, k=2, n_samples=100, mode="gap",
                                norm_2=1.0, gap=0.5)
    assert rep.expr == math.inf and not rep.admissible


def test_covariance_admissible_gap_mode():
    rep = covariance_admissible(
        r_e=3.0, eps=0.2, k=2, n_samples=10**4, mode="gap", norm_2=2.0, gap=0.5,
    )
    expect = 3.0 * 2 * 4.0 * np.log(10**4) / (10**4 * 0.04 * 0.25)
    assert rep.expr == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        covariance_admissible(r_e=3.0, eps=0.2, k=2, n_samples=10**4,
                              mode="gap")  # gap mode needs norm_2 and gap


def test_covariance_admissible_rejects_unused_inputs():
    kw = dict(r_e=3.0, eps=0.2, k=2, n_samples=10**4)
    with pytest.raises(ValueError, match="^mode 'relative' does not use norm_2$"):
        covariance_admissible(mode="relative", gamma_k=2.0, norm_2=-5.0, **kw)
    with pytest.raises(ValueError, match="^mode 'relative' does not use norm_2, gap$"):
        covariance_admissible(mode="relative", gamma_k=2.0, norm_2=2.0, gap=0.5, **kw)
    with pytest.raises(ValueError, match="^mode 'gap' does not use gamma_k$"):
        covariance_admissible(mode="gap", gamma_k=2.0, norm_2=2.0, gap=0.5, **kw)
    # the default gamma_k is not an input the caller gave
    assert covariance_admissible(mode="gap", gamma_k=None, norm_2=2.0, gap=0.5, **kw).expr > 0


def test_sample_covariance_rates_frozen():
    pair = sample_covariance_rates(norm_2=2.0, r_e=10.0, n_samples=10**4, n=100)
    assert pair.frobenius == pytest.approx(0.6069708517540586, rel=1e-12)
    assert pair.frobenius == pytest.approx(0.607, abs=1e-3)
    ln_nn = np.log(10**4 * 100)
    expect_spec = 2.0 * max(np.sqrt(10.0 * ln_nn / 10**4), 10.0 * ln_nn / 10**4)
    assert pair.spectral == pytest.approx(expect_spec, rel=1e-12)


def test_sample_covariance_rates_large_rank_branch():
    # once r_e ln(Nn)/N exceeds 1 the linear term dominates the square root
    pair = sample_covariance_rates(norm_2=1.0, r_e=500.0, n_samples=100, n=10)
    lin = 500.0 * np.log(1000.0) / 100.0
    assert pair.spectral == pytest.approx(lin, rel=1e-12)


# ------------------------------------------------------- raise-site messages

#: one in-domain call per function; each case below puts one input out of it
VALID = {
    relative_error_bound: dict(k=1, eps=0.1, tail_F=1.0, tail_2=1.0),
    gap_error_bound: dict(k=1, eps=0.1, gap=1.0, tail_F=1.0),
    additive_error_bound: dict(k=1, delta=0.1, tail_F=1.0, head_F=1.0),
    spectral_envelope: dict(eigenvalues=[2.0, 1.0, 0.5], k=1, eps=0.1),
    powerlaw_rank_cutoff: dict(delta=0.01, beta=1.0, n=100, C1=1.0),
    powerlaw_error_rate: dict(delta=0.01, beta=1.0, n=100),
    exponential_rank_cutoff: dict(delta=1e-8, c=1.0, n=100),
    exponential_error_rate: dict(delta=1e-8, c=1.0, n=100),
    completion_sampling_threshold: dict(mu0=1.0, norm_F=1.0, n=10, t=0.5,
                                        regime="sqrt_k", sigma_k1=1.0),
    denoising_error_bound: dict(nu=0.01, sigma_k1=1.0, k=1, tail_F=1.0),
    covariance_admissible: dict(r_e=3.0, eps=0.2, k=2, n_samples=10**4,
                                mode="relative", gamma_k=2.0),
    sample_covariance_rates: dict(norm_2=2.0, r_e=10.0, n_samples=100, n=10),
    ExperimentConfig: dict(experiment="relative", n=24, trials=1, seed=0,
                           spectrum_kind="powerlaw", spectrum_beta=1.0, basis="haar",
                           k=3, eps=0.2),
    spectrum_head: dict(kind="powerlaw", n=4, beta=1.0),
}
REL = dict(regime="relative", eps=0.1, k=1)
GAP = dict(regime="gap", sigma_k1=None, gap=1.0, eps=0.1, k=1)
GAP_MODE = dict(mode="gap", gamma_k=None, norm_2=2.0, gap=0.5)


def _site(func, message, **fault):
    name = "-".join(f"{key}={value}" for key, value in fault.items())
    return pytest.param(func, fault, message, id=f"{func.__name__}-{name}")


RAISE_SITES = [
    _site(relative_error_bound, "k must be >= 1, got 0", k=0),
    _site(relative_error_bound, "eps must lie in (0, 0.25], got 0.3", eps=0.3),
    _site(relative_error_bound, "tail_F must be nonnegative, got -1.0", tail_F=-1.0),
    _site(relative_error_bound, "tail_2 must be nonnegative, got -1.0", tail_2=-1.0),
    _site(relative_error_bound, "perturbation_2 must be nonnegative, got -1.0",
          perturbation_2=-1.0),
    _site(gap_error_bound, "k must be >= 1, got 0", k=0),
    _site(gap_error_bound, "eps must lie in (0, 0.25], got 0.0", eps=0.0),
    _site(gap_error_bound, "gap must be nonnegative, got -1.0", gap=-1.0),
    _site(gap_error_bound, "tail_F must be nonnegative, got -1.0", tail_F=-1.0),
    _site(gap_error_bound, "perturbation_2 must be nonnegative, got -1.0",
          perturbation_2=-1.0),
    _site(additive_error_bound, "k must be >= 1, got 0", k=0),
    _site(additive_error_bound, "delta must be nonnegative, got -0.1", delta=-0.1),
    _site(additive_error_bound, "tail_F must be nonnegative, got -1.0", tail_F=-1.0),
    _site(additive_error_bound, "head_F must be nonnegative, got -1.0", head_F=-1.0),
    _site(spectral_envelope, "eigenvalues must be one-dimensional",
          eigenvalues=[[2.0, 1.0], [1.0, 0.5]]),
    _site(spectral_envelope, "k must lie in [1, 2], got 3", k=3),
    _site(spectral_envelope, "eps must lie in (0, 0.25], got 0.3", eps=0.3),
    _site(spectral_envelope, "eigenvalues must be nonincreasing", eigenvalues=[1.0, 2.0, 0.5]),
    _site(powerlaw_rank_cutoff, "beta must exceed 1/2, got 0.5", beta=0.5),
    _site(powerlaw_rank_cutoff, "delta must lie in (0, 1/2], got 0.6", delta=0.6),
    _site(powerlaw_rank_cutoff, "n must be >= 2, got 1", n=1),
    _site(powerlaw_rank_cutoff, "C1 must be positive, got 0.0", C1=0.0),
    _site(powerlaw_rank_cutoff, "cutoff rule yields k = 0 < 1 for delta=0.5, beta=1.0, n=100",
          delta=0.5, C1=0.5),
    _site(powerlaw_error_rate, "beta must exceed 1/2, got 0.5", beta=0.5),
    _site(powerlaw_error_rate, "delta must lie in (0, 1/2], got 0.0", delta=0.0),
    _site(powerlaw_error_rate, "n must be >= 2, got 1", n=1),
    _site(exponential_rank_cutoff, "c must be positive, got 0.0", c=0.0),
    _site(exponential_rank_cutoff, "delta must lie in (0, e^-16), got 0.001", delta=1e-3),
    _site(exponential_rank_cutoff, "n must be >= 2, got 1", n=1),
    _site(exponential_rank_cutoff, "cutoff rule yields k = -1 < 1 for delta=1e-08, c=100.0, n=100",
          c=100.0),
    _site(exponential_error_rate, "c must be positive, got -1.0", c=-1.0),
    _site(exponential_error_rate, "delta must lie in (0, e^-16), got 0.0", delta=0.0),
    _site(exponential_error_rate, "n must be >= 2, got 0", n=0),
    _site(completion_sampling_threshold,
          "unknown regime 'nope'; expected one of ('sqrt_k', 'relative', 'gap')", regime="nope"),
    _site(completion_sampling_threshold, "regime 'relative' requires k",
          regime="relative", eps=0.1),
    _site(completion_sampling_threshold, "regime 'sqrt_k' does not use k", k=1),
    _site(completion_sampling_threshold, "mu0 must be positive, got 0.0", mu0=0.0),
    _site(completion_sampling_threshold, "norm_F must be positive, got 0.0", norm_F=0.0),
    _site(completion_sampling_threshold, "n must be >= 2, got 1", n=1),
    _site(completion_sampling_threshold, "t must lie in (0, 1), got 1.0", t=1.0),
    _site(completion_sampling_threshold, "C_mc must be positive, got 0.0", C_mc=0.0),
    _site(completion_sampling_threshold, "sigma_k1 must be positive, got 0.0", sigma_k1=0.0),
    _site(completion_sampling_threshold, "sigma_k1 must be positive, got 0.0",
          **REL, sigma_k1=0.0),
    _site(completion_sampling_threshold, "eps must lie in (0, 0.25], got 0.3",
          **{**REL, "eps": 0.3}),
    _site(completion_sampling_threshold, "k must be >= 1, got 0", **{**REL, "k": 0}),
    _site(completion_sampling_threshold, "gap must be positive in the gap regime",
          **{**GAP, "gap": 0.0}),
    _site(completion_sampling_threshold, "eps must lie in (0, 0.25], got 0.3",
          **{**GAP, "eps": 0.3}),
    _site(completion_sampling_threshold, "k must be >= 1, got 0", **{**GAP, "k": 0}),
    _site(denoising_error_bound, "nu must be nonnegative, got -0.1", nu=-0.1),
    _site(denoising_error_bound, "sigma_k1 must be positive, got 0.0", sigma_k1=0.0),
    _site(denoising_error_bound, "k must be >= 1, got 0", k=0),
    _site(denoising_error_bound, "tail_F must be nonnegative, got -1.0", tail_F=-1.0),
    _site(denoising_error_bound, "C_a must be nonnegative, got -5.0", C_a=-5.0),
    _site(denoising_error_bound, "C_b must be nonnegative, got -1.0", C_b=-1.0),
    _site(denoising_error_bound, "c_dn must be positive, got -1.0", c_dn=-1.0),
    _site(covariance_admissible, "unknown mode 'nope'; expected one of ('relative', 'gap')",
          mode="nope"),
    _site(covariance_admissible, "mode 'relative' does not use norm_2", norm_2=2.0),
    _site(covariance_admissible, "mode 'gap' does not use gamma_k", **{**GAP_MODE, "gamma_k": 2.0}),
    _site(covariance_admissible, "eps must lie in (0, 0.25], got 0.3", eps=0.3),
    _site(covariance_admissible, "k must be >= 1, got 0", k=0),
    _site(covariance_admissible, "r_e must be >= 1, got 0.5", r_e=0.5),
    _site(covariance_admissible, "n_samples must be >= 2, got 1", n_samples=1),
    _site(covariance_admissible, "c_cov must be positive, got -1.0", c_cov=-1.0),
    _site(covariance_admissible, "relative mode needs finite gamma_k >= 1, got 0.5", gamma_k=0.5),
    # an overflowed sigma_k / sigma_{k+1} is an input the caller gave, not an unset one
    _site(covariance_admissible, "relative mode needs finite gamma_k >= 1, got inf",
          gamma_k=np.inf),
    _site(covariance_admissible, "mode 'gap' does not use gamma_k",
          mode="gap", norm_2=2.0, gap=0.5, gamma_k=np.inf),
    _site(covariance_admissible, "mode 'gap' requires gap", **{**GAP_MODE, "gap": None}),
    _site(covariance_admissible, "norm_2 must be positive, got 0.0", **{**GAP_MODE, "norm_2": 0.0}),
    _site(covariance_admissible, "gap must be positive in gap mode", **{**GAP_MODE, "gap": 0.0}),
    _site(sample_covariance_rates, "norm_2 must be positive, got 0.0", norm_2=0.0),
    _site(sample_covariance_rates, "r_e must be >= 1, got 0.5", r_e=0.5),
    _site(sample_covariance_rates, "n_samples must be >= 2, got 1", n_samples=1),
    _site(sample_covariance_rates, "n must be >= 1, got 0", n=0),
    # check_inputs: the experiment and spectrum kind in config, like the regime and mode above
    _site(ExperimentConfig, "unknown experiment 'nope'; expected one of ('relative', 'gap', "
          "'alignment', 'denoising', 'completion', 'covariance', 'decay_rate')",
          experiment="nope"),
    _site(ExperimentConfig, "experiment 'relative' does not use nu, p, delta_grid",
          nu=0.5, p=0.3, delta_grid=(0.1,)),
    _site(ExperimentConfig, "experiment 'relative' requires k, eps", k=None, eps=None),
    _site(spectrum_head, "unknown spectrum kind 'cauchy'; expected one of "
          "('powerlaw', 'exponential', 'explicit')", kind="cauchy"),
    _site(spectrum_head, "spectrum kind 'powerlaw' does not use c, values",
          c=0.5, values=(1.0, 0.5, 0.25, 0.125)),
    _site(spectrum_head, "spectrum kind 'powerlaw' requires beta", beta=None),
    _site(completion_sampling_threshold, "regime 'relative' requires eps, k", regime="relative"),
    _site(covariance_admissible, "mode 'gap' requires norm_2, gap", mode="gap", gamma_k=None),
    # an unused input is named ahead of a missing one
    _site(covariance_admissible, "mode 'gap' does not use gamma_k", mode="gap"),
]


@pytest.mark.parametrize("func, fault, message", RAISE_SITES)
def test_raise_site_messages(func, fault, message):
    with pytest.raises(ValueError) as info:
        func(**{**VALID[func], **fault})
    assert str(info.value) == message



def test_nan_inputs_are_rejected_by_name():
    nan = float("nan")
    with pytest.raises(ValueError, match=r"^tail_F must be nonnegative, got nan$"):
        relative_error_bound(k=1, eps=0.1, tail_F=nan, tail_2=1.0)
    with pytest.raises(ValueError, match=r"^nu must be nonnegative, got nan$"):
        denoising_error_bound(nu=nan, sigma_k1=1.0, k=1, tail_F=1.0)
    with pytest.raises(ValueError, match=r"^norm_2 must be positive, got nan$"):
        sample_covariance_rates(norm_2=nan, r_e=10.0, n_samples=100, n=10)


def test_nan_measured_perturbation_is_rejected_by_name():
    # NaN used to give precondition_holds=False with margin=nan
    nan = float("nan")
    with pytest.raises(ValueError, match=r"^perturbation_2 must be nonnegative, got nan$"):
        relative_error_bound(k=1, eps=0.1, tail_F=1.0, tail_2=1.0, perturbation_2=nan)
    with pytest.raises(ValueError, match=r"^perturbation_2 must be nonnegative, got nan$"):
        gap_error_bound(k=1, eps=0.1, gap=1.0, tail_F=1.0, perturbation_2=nan)


@pytest.mark.parametrize("sig", [[1.0, np.nan, 0.5], [np.inf, 1.0, 0.5]])
def test_nonfinite_eigenvalues_are_rejected_by_name(sig):
    bad = next(i for i, v in enumerate(sig) if not math.isfinite(v))
    message = rf"^eigenvalue entry \({bad + 1}\) is not finite: {sig[bad]}$"
    with pytest.raises(ValueError, match=message):
        spectrum_stats(sig, 1)
    with pytest.raises(ValueError, match=message):
        spectral_envelope(sig, k=1, eps=0.1)
