"""Config-driven experiment harness.

An experiment is: draw synthetic instances from per-trial RNG streams, run
an estimator, measure its truncation error, and compare against the
matching closed-form bound.  One :class:`TrialRecord` per trial carries the
measurements; :class:`ExperimentReport` adds order-independent aggregates.

Experiments
-----------
relative    perturbation placed exactly at the allowance eps^2 * sigma_{k+1}
gap         perturbation placed exactly at the allowance eps * (sigma_k - sigma_{k+1})
alignment   as ``relative``, plus the full inequality-chain measurement
denoising   additive Gaussian noise at level nu
completion  Bernoulli-observed entries at rate p, rescaled and truncated
covariance  truncated sample covariance over n_samples Gaussian draws
decay_rate  error-vs-delta sweep with the rank chosen by the cutoff rule

Trial skeleton
--------------
:func:`run_trial` runs one trial of any experiment but ``decay_rate``: it
draws the instance (spectrum ``sig``, matrix ``A``) from the trial's stream,
measures the estimate's errors against ``A`` and the tail of ``sig`` past the
kept rank (zero when every rank is kept), and builds the judged
:class:`TrialRecord`.  Each experiment supplies only its step, which
``EXPERIMENTS`` maps it to::

    step(config, sig, A, rng) -> (estimate, k, judge)
    judge(err_F, tail_F) -> (bound_value, precondition_holds, precondition_margin, aux)

``judge`` sees the measured error and the tail, so the bound or an ``aux``
entry may use them.  ``decay_rate`` sweeps each perturbation over a delta
grid in its own loop.

Decay sweep
-----------
``decay_rate`` runs in A's eigenbasis.  For orthogonal U,
``||(U M U^T)_k - U diag(sig) U^T||_F = ||M_k - diag(sig)||_F``, so a Haar
trial rotates its unit direction G once into ``U^T G U`` and every delta's
A_hat is ``delta * G + diag(sig)``, exactly as for the identity basis; A is
never assembled.  The error comes from the top-k eigenpairs of A_hat alone
through a trace identity, or densely when the identity would cancel (see
:func:`_truncation_error_F`).

Storage: a Haar trial writes ``(U^T G) U`` into G's own storage, drops U
and symmetrizes G in place.  Each delta but the last builds A_hat in a fresh
array, released when the next delta's replaces it; the last builds it in G's
storage, since G is not read again.  G goes before the next trial draws its
direction.  Releasing each A_hat right after its solve instead raises the
peak RSS, as glibc's malloc then keeps later n x n blocks on its heap
(BENCH_16).

Determinism: trial ``i`` of a run uses the Philox stream ``(seed, i)``
(for ``decay_rate``, one stream per perturbation-direction trial, shared
across the delta grid).  Reports are reproducible bit-for-bit only for a
fixed numpy version, BLAS build and BLAS thread count (reports at 1 and 2
OpenBLAS threads differ); the report header records the numpy version only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import __version__
from .bounds import (
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
)
from .config import ExperimentConfig
from .estimators import complete, denoise, sample_covariance
from .linalg import (
    _frobenius,
    _root_sum_sq,
    effective_rank,
    eig_sym,
    spectral_norm_sym,
    spectrum_stats,
    spikeness,
    symmetrize,
    top_eigenpairs,
    truncate,
)
from .proofcheck import check_alignment
from .synth import (
    bernoulli_observe,
    goe_noise,
    haar_orthogonal,
    instance,
    mvn_samples,
    rng_stream,
    scaled_perturbation,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentReport",
    "rate_regression",
    "run_trial",
    "run_experiment",
]

#: slack used when comparing a measured error against a bound value
BOUND_TOL = 1e-8

#: err^2 below this many rounding scales of the trace identity is measured densely
TRACE_IDENTITY_MARGIN = 1e8


@dataclass(frozen=True)
class TrialRecord:
    """Measurements from one trial.

    ``ratio_F`` is measured_error_F / tail_F (None when the tail vanishes);
    ``bound_satisfied`` compares against ``bound_value`` with absolute
    slack 1e-8 and is None when the trial carries no bound;
    ``precondition_holds`` says whether the bound's hypothesis was met, and
    trials where it fails are excluded from pass rates.  Extra
    per-experiment quantities live in ``aux``.
    """

    trial_id: int
    precondition_holds: bool
    measured_error_F: float
    tail_F: float
    tail_2: float
    measured_error_2: float | None = None
    ratio_F: float | None = None
    bound_value: float | None = None
    bound_satisfied: bool | None = None
    precondition_margin: float | None = None
    aux: dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentReport:
    """All trials of one experiment run plus aggregates.

    ``pass_rate`` is the fraction of bound-satisfying trials among those
    whose precondition held (None when no trial qualifies).
    ``runtime_seconds`` is informational and deliberately excluded from
    serialized reports, which must be identical across reruns.
    """

    config: ExperimentConfig
    tool: dict[str, str]
    trials: list[TrialRecord]
    aggregates: dict[str, Any]
    pass_rate: float | None
    runtime_seconds: float = 0.0


def _tool_stamp() -> dict[str, str]:
    return {
        "name": "spectrunc",
        "version": __version__,
        "rng": "philox4x64 keyed by (seed, stream_id)",
        "numpy": np.__version__,
    }


def rate_regression(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of log(y) against log(x)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-d arrays of at least 2 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("rate regression requires positive data")
    lx = np.log(x)
    ly = np.log(y)
    dx = lx - lx.mean()
    dy = ly - ly.mean()
    sxx = float(np.sum(dx * dx))
    if sxx == 0.0:
        raise ValueError("x values must not be all equal")
    slope = float(np.sum(dx * dy)) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    return slope, intercept


def _instance(config: ExperimentConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum and assembled matrix for one trial (basis drawn first)."""
    sig = config.spectrum()
    return sig, instance(sig, config.basis, rng)


def _truncation_error_F(A_hat: np.ndarray, k: int, sig: np.ndarray) -> float:
    """Frobenius error ||(A_hat)_k - diag(sig)||_F from the top-k eigenpairs of A_hat.

    Uses the expansion ||V L V^T - D||_F^2 = ||sig||^2 +
    sum_i (lambda_i^2 - 2 lambda_i v_i^T D v_i) over the kept eigenpairs,
    valid for any orthonormal V, so only the top-k eigenpairs of A_hat are
    computed (:func:`top_eigenpairs` picks the solver).  The sum cancels
    down to err^2 with an absolute rounding error of a few
    u * (||sig||^2 + ||lambda||^2), u the machine epsilon (at most 41 of it,
    measured for n <= 2000).  Where err^2 is less than
    ``TRACE_IDENTITY_MARGIN = 1e8`` times that scale, the identity would keep
    fewer than about seven digits of err, and err is measured densely as
    ||V L V^T - diag(sig)||_F instead.  A_hat is overwritten.
    """
    lam, V = top_eigenpairs(A_hat, k)
    norm2 = float(np.sum(sig**2))
    s = np.einsum("i,ij->j", sig, V * V)
    err2 = norm2 + float(np.sum(lam * lam - 2.0 * lam * s))
    if err2 > TRACE_IDENTITY_MARGIN * np.finfo(np.float64).eps * (norm2 + float(lam @ lam)):
        return math.sqrt(err2)
    R = np.matmul(V * lam, V.T, out=A_hat)
    R[np.diag_indices_from(R)] -= sig
    return _frobenius(R)


def _perturbation_step(config: ExperimentConfig, sig, A, rng):
    """relative / gap / alignment: a perturbation placed exactly at the allowance."""
    k = config.k
    stats = spectrum_stats(sig, k)
    if config.experiment == "gap":
        target = config.eps * stats.gap
        rep = gap_error_bound(k, config.eps, stats.gap, stats.tail_F, perturbation_2=target)
    else:
        target = config.eps**2 * stats.tail_2
        rep = relative_error_bound(
            k, config.eps, stats.tail_F, stats.tail_2, perturbation_2=target
        )
    lam, V = top_eigenpairs(A + scaled_perturbation(config.n, target, rng), k)
    env = spectral_envelope(sig, k, config.eps)
    aux: dict[str, Any] = {
        "delta": target,
        "mu0": spikeness(A),
        "gamma_k": stats.gamma_k if math.isfinite(stats.gamma_k) else None,
        "stable_rank": stats.stable_rank,
        "effective_rank": stats.effective_rank,
        "m1": env.m1,
        "m2": env.m2,
    }
    if config.experiment == "alignment":
        rpt = check_alignment(A, lam, V, k, config.eps, target)
        aux.update(
            {f"sin_{name}": val for name, val in rpt.sin_angles().items()}
        )
        aux["checks_passed"] = sum(c.passed for c in rpt.checks)
        aux["checks_total"] = len(rpt.checks)
        aux["all_checks_passed"] = rpt.all_passed
    return truncate(lam, V), k, lambda err_F, tail_F: (
        rep.value, rep.precondition_holds, rep.margin, aux
    )


def _denoising_step(config: ExperimentConfig, sig, A, rng):
    """Additive GOE noise at level nu."""
    k = config.k
    stats = spectrum_stats(sig, k)
    E = goe_noise(config.n, config.nu, rng)
    rep = denoising_error_bound(
        config.nu, stats.tail_2, k, stats.tail_F,
        C_a=config.C_a, C_b=config.C_b, c_dn=config.c_dn,
    )
    aux = {"nu": config.nu, "noise_norm_2": spectral_norm_sym(E)}
    return denoise(A + E, k), k, lambda err_F, tail_F: (
        rep.value, rep.precondition_holds, rep.margin, aux
    )


def _completion_step(config: ExperimentConfig, sig, A, rng):
    """Bernoulli-observed entries at rate p, judged against (1 + eps) * tail_F."""
    k = config.k
    stats = spectrum_stats(sig, k)
    mu0 = spikeness(A)
    obs = bernoulli_observe(A, config.p, rng)
    thr = completion_sampling_threshold(
        mu0,
        _frobenius(A),
        config.n,
        config.t,
        "relative",
        sigma_k1=stats.tail_2,
        eps=config.eps,
        k=k,
        C_mc=config.C_mc,
    )
    aux = {
        "p": config.p,
        "observed_count": obs.count,
        "mu0": mu0,
        "threshold_raw": thr.p_raw,
        "threshold_clamped": thr.p,
        "threshold_vacuous": thr.vacuous,
    }
    return complete(obs, k), k, lambda err_F, tail_F: (
        (1.0 + config.eps) * tail_F, config.p >= thr.p_raw, config.p - thr.p_raw, aux
    )


def _covariance_step(config: ExperimentConfig, sig, A, rng):
    """Truncated sample covariance, judged against (1 + eps) * tail_F."""
    SC = sample_covariance(mvn_samples(A, config.n_samples, rng))
    err_full = _frobenius(SC - A)
    if config.k_oracle:
        # true error at every rank via the trace expansion, then argmin
        lam, V = eig_sym(SC)
        s = np.einsum("ij,ij->j", V, A @ V)
        errs2 = float(np.sum(sig**2)) + np.cumsum(lam * lam - 2.0 * lam * s)
        k = int(np.argmin(errs2)) + 1
        lam, V = lam[:k], V[:, :k]
    else:
        k = config.k
        lam, V = top_eigenpairs(SC, k)
    r_e = effective_rank(sig)
    rates = sample_covariance_rates(float(sig[0]), r_e, config.n_samples, config.n)
    gamma = spectrum_stats(sig, k).gamma_k if k < config.n else math.inf
    if math.isfinite(gamma):
        adm = covariance_admissible(
            r_e, config.eps, k, config.n_samples, "relative", gamma, c_cov=config.c_cov
        )
        admissible, margin, expr = adm.admissible, adm.margin, adm.expr
    else:  # gamma_k undefined: every rank kept, or sigma_{k+1} = 0
        admissible, margin, expr = False, None, None

    def judge(err_F: float, tail_F: float):
        return (1.0 + config.eps) * tail_F, admissible, margin, {
            "k_used": k,
            "err_full_F": err_full,
            "rate_frobenius": rates.frobenius,
            "rate_spectral": rates.spectral,
            "beats_guarantee": err_F <= rates.frobenius,
            # oracle-k truncation can only match or improve on the full
            # estimator; machine-precision ties count as not-worse
            "beats_full": err_F <= err_full + 1e-12,
            "admissibility_expr": expr,
            "effective_rank": r_e,
        }

    return truncate(lam, V), k, judge


def _decay_trials(config: ExperimentConfig) -> list[TrialRecord]:
    """decay_rate trials: one direction per stream, swept over deltas in A's eigenbasis."""
    sig = config.spectrum()
    n = config.n
    diag_idx = np.arange(n)
    ladder = []  # (delta, k, rate, stats): the cutoff rule depends on delta alone
    for delta in config.delta_grid:
        if config.spectrum_kind == "powerlaw":
            k = powerlaw_rank_cutoff(delta, config.spectrum_beta, n, C1=config.C1)
            rate = powerlaw_error_rate(delta, config.spectrum_beta, n)
        else:
            k = exponential_rank_cutoff(delta, config.spectrum_c, n)
            rate = exponential_error_rate(delta, config.spectrum_c, n)
        ladder.append((delta, k, rate, spectrum_stats(sig, k)))
    last = len(ladder) - 1
    records: list[TrialRecord] = []
    for t in range(config.trials):
        rng = rng_stream(config.seed, t)
        U = haar_orthogonal(n, rng) if config.basis == "haar" else None
        G = scaled_perturbation(n, 1.0, rng)
        if U is not None:
            np.matmul(U.T @ G, U, out=G)
            del U
            symmetrize(G)
        for i, (delta, k, rate, stats) in enumerate(ladder):
            A_hat = np.multiply(G, delta, out=G if i == last else None)
            A_hat[diag_idx, diag_idx] += sig
            err_F = _truncation_error_F(A_hat, k, sig)
            records.append(
                TrialRecord(
                    trial_id=len(records),
                    precondition_holds=stats.tail_2 >= delta / 16.0,
                    measured_error_F=err_F,
                    tail_F=stats.tail_F,
                    tail_2=stats.tail_2,
                    ratio_F=err_F / stats.tail_F if stats.tail_F > 0 else None,
                    bound_value=rate,
                    precondition_margin=stats.tail_2 - delta / 16.0,
                    aux={"delta": delta, "k_used": k, "direction_trial": t, "rate": rate},
                )
            )
        del G, A_hat
    return records


#: experiment -> its per-trial step; ``config.EXPERIMENT_PARAMS`` lists its parameters.
#: decay_rate has no step: it sweeps a delta grid per trial.
EXPERIMENTS = {
    "relative": _perturbation_step,
    "gap": _perturbation_step,
    "alignment": _perturbation_step,
    "denoising": _denoising_step,
    "completion": _completion_step,
    "covariance": _covariance_step,
    "decay_rate": None,
}


def run_trial(config: ExperimentConfig, trial_id: int) -> TrialRecord:
    """Run one trial of a per-trial experiment (not decay_rate) through its step."""
    step = EXPERIMENTS[config.experiment]
    if step is None:
        raise ValueError(f"experiment {config.experiment!r} is not organized per trial")
    rng = rng_stream(config.seed, trial_id)
    sig, A = _instance(config, rng)
    est, k, judge = step(config, sig, A, rng)
    D = est - A
    err_F = _frobenius(D)
    tail_F = _root_sum_sq(sig[k:])
    bound_value, holds, margin, aux = judge(err_F, tail_F)
    return TrialRecord(
        trial_id=trial_id,
        precondition_holds=holds,
        measured_error_F=err_F,
        measured_error_2=spectral_norm_sym(D),
        tail_F=tail_F,
        tail_2=float(sig[k]) if k < config.n else 0.0,
        ratio_F=err_F / tail_F if tail_F > 0 else None,
        bound_value=bound_value,
        bound_satisfied=err_F <= bound_value + BOUND_TOL,
        precondition_margin=margin,
        aux=aux,
    )



def _five_number(values: list[float]) -> dict[str, float]:
    a = np.asarray(values, dtype=np.float64)
    q = np.quantile(a, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "min": float(q[0]),
        "q25": float(q[1]),
        "median": float(q[2]),
        "q75": float(q[3]),
        "max": float(q[4]),
    }


def _aggregate(config: ExperimentConfig, records: list[TrialRecord]) -> tuple[dict, float | None]:
    agg: dict[str, Any] = {
        "trials": len(records),
        "error_F": _five_number([r.measured_error_F for r in records]),
    }
    ratios = [r.ratio_F for r in records if r.ratio_F is not None]
    if ratios:
        agg["ratio_F"] = _five_number(ratios)
    considered = [r for r in records if r.precondition_holds and r.bound_satisfied is not None]
    pass_rate = (
        sum(r.bound_satisfied for r in considered) / len(considered) if considered else None
    )
    agg["pass_rate_denominator"] = len(considered)
    if config.experiment == "decay_rate":
        deltas = sorted({r.aux["delta"] for r in records})
        per_delta = []
        for d in deltas:
            grp = [r for r in records if r.aux["delta"] == d]
            per_delta.append(
                {
                    "delta": d,
                    "k": grp[0].aux["k_used"],
                    "median_error_F": float(
                        np.median([r.measured_error_F for r in grp])
                    ),
                    "rate": grp[0].aux["rate"],
                    "cutoff_valid": all(r.precondition_holds for r in grp),
                }
            )
        agg["per_delta"] = per_delta
        if len(per_delta) >= 2:
            slope, intercept = rate_regression(
                [row["delta"] for row in per_delta],
                [row["median_error_F"] for row in per_delta],
            )
            agg["slope"] = slope
            agg["intercept"] = intercept
    if config.experiment == "covariance":
        agg["beats_guarantee_rate"] = float(
            np.mean([bool(r.aux["beats_guarantee"]) for r in records])
        )
        agg["k_used"] = _five_number([float(r.aux["k_used"]) for r in records])
    if config.experiment == "alignment":
        agg["all_checks_passed_rate"] = float(
            np.mean([bool(r.aux["all_checks_passed"]) for r in records])
        )
    return agg, pass_rate


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every trial of the configured experiment and aggregate."""
    t0 = time.perf_counter()
    if config.experiment == "decay_rate":
        records = _decay_trials(config)
    else:
        records = [run_trial(config, i) for i in range(config.trials)]
    aggregates, pass_rate = _aggregate(config, records)
    return ExperimentReport(
        config=config,
        tool=_tool_stamp(),
        trials=records,
        aggregates=aggregates,
        pass_rate=pass_rate,
        runtime_seconds=time.perf_counter() - t0,
    )
