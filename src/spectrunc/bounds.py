"""Closed-form error bounds, rank cutoff rules and admissibility thresholds.

The bounds here describe how far a rank-k truncation of a perturbed
symmetric matrix can drift from the unperturbed matrix, in terms of the
clean spectrum only.  Two flavours recur throughout:

* relative scaling: the perturbation is small against the first discarded
  eigenvalue sigma_{k+1};
* gap scaling: the perturbation is small against the spectral gap
  sigma_k - sigma_{k+1}.

All numerical constants are exposed as keyword arguments with the package's
default conventions, so alternative constant choices remain reproducible.
They are keyword-only, except the power-law cutoff prefactor ``C1``.

Each input rule has one home: a shared parameter's domain is in
``_DOMAIN``, a truncation rank's range in :func:`check_rank`, and the
inputs a mode takes (a sampling regime or covariance mode here, an
experiment or spectrum kind in ``config``) in :func:`check_inputs`.  A rule
of one function, regime or mode stays inline in it.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BoundReport",
    "EnvelopeIndices",
    "SamplingThreshold",
    "AdmissibilityReport",
    "RatePair",
    "relative_error_bound",
    "gap_error_bound",
    "additive_error_bound",
    "spectral_envelope",
    "powerlaw_rank_cutoff",
    "powerlaw_error_rate",
    "exponential_rank_cutoff",
    "exponential_error_rate",
    "completion_sampling_threshold",
    "denoising_error_bound",
    "covariance_admissible",
    "sample_covariance_rates",
]

#: leading constant of the sampling-rate thresholds
DEFAULT_C_MC = 8.0
#: largest admissible noise level, as a fraction of sigma_{k+1}
DEFAULT_C_DN = 0.25
#: multiplicative / additive constants of the denoising bound
DEFAULT_C_A = 1.0
DEFAULT_C_B = 3.0
#: admissibility ceiling for covariance estimation
DEFAULT_C_COV = 1.0
#: prefactor of the power-law rank cutoff
DEFAULT_C1 = 1.0

#: sampling regime -> the inputs its scale uses
SAMPLING_REGIMES = {
    "sqrt_k": ("sigma_k1",),
    "relative": ("sigma_k1", "eps", "k"),
    "gap": ("gap", "eps", "k"),
}

#: covariance mode -> the inputs its expression uses
COVARIANCE_MODES = {
    "relative": ("gamma_k",),
    "gap": ("norm_2", "gap"),
}


@dataclass(frozen=True)
class BoundReport:
    """A bound evaluation: the value plus whether its hypothesis held.

    ``precondition_holds`` is True when the measured perturbation size (if
    one was supplied) is within the bound's allowance; ``margin`` is
    allowance minus measured size, or None when no measurement was given.
    """

    name: str
    value: float
    precondition_holds: bool
    margin: float | None
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EnvelopeIndices:
    """Cut positions (m1, m2) bracketing the eigenvalues near the cut at k.

    Positions 1..m1 are well separated above the discarded spectrum,
    positions beyond m2 are well separated below the kept spectrum, and
    m1 <= k <= m2 always holds.
    """

    m1: int
    m2: int


@dataclass(frozen=True)
class SamplingThreshold:
    """Entry-observation rate required by a completion guarantee.

    ``p_raw`` is the unclamped requirement; ``p`` is clamped into (0, 1].
    When ``p_raw`` exceeds 1 no sampling rate satisfies the requirement and
    ``vacuous`` is set.
    """

    regime: str
    p_raw: float
    p: float
    vacuous: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of a covariance-estimation admissibility check."""

    mode: str
    expr: float
    admissible: bool
    margin: float
    multiplier: float


@dataclass(frozen=True)
class RatePair:
    frobenius: float
    spectral: float


_POSITIVE = (lambda v: v > 0, "be positive")
_NONNEGATIVE = (lambda v: v >= 0, "be nonnegative")

#: parameter -> (predicate, requirement), for each parameter name the bounds share (the
#: six constants included), ``p``, the run config's ``trials`` and ``seed``, and
#: ``synth``'s ``target_norm_2`` and ``stream_id``; :func:`check_domain` applies it
_DOMAIN = {
    "k": (lambda v: v >= 1, "be >= 1"),
    "n": (lambda v: v >= 2, "be >= 2"),
    "eps": (lambda v: 0.0 < v <= 0.25, "lie in (0, 0.25]"),
    "p": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "t": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "beta": (lambda v: v > 0.5, "exceed 1/2"),
    "r_e": (lambda v: v >= 1, "be >= 1"),
    "n_samples": (lambda v: v >= 2, "be >= 2"),
    "trials": (lambda v: v >= 1, "be >= 1"),
    **dict.fromkeys(("seed", "stream_id"), (lambda v: 0 <= v < 2**64, "lie in [0, 2**64)")),
    "target_norm_2": _NONNEGATIVE,
    **dict.fromkeys(
        ("c", "mu0", "norm_F", "norm_2", "sigma_k1", "C_mc", "C1", "c_dn", "c_cov"), _POSITIVE
    ),
    **dict.fromkeys(
        ("tail_F", "tail_2", "head_F", "gap", "nu", "perturbation_2", "C_a", "C_b"), _NONNEGATIVE
    ),
}


def _exact(expr, *args: float) -> float:
    """``expr(*args)`` in floats where that is finite, else its exact value rounded once.

    Float ``**`` raises OverflowError past the float range and gives 0 where
    it underflows, which a quotient then divides by.  There ``expr`` runs
    again over ``Fraction`` copies of ``args`` (None stays None), so the
    result is inf only where the true value lies past the float range.
    ``expr`` takes its float inputs as ``args`` and may close over ints.
    """
    with contextlib.suppress(OverflowError, ZeroDivisionError):
        value = expr(*args)
        if math.isfinite(value):
            return value
    from fractions import Fraction  # loaded only here: it loads decimal

    try:
        return float(expr(*(a if a is None else Fraction(a) for a in args)))
    except OverflowError:
        return math.inf


def check_domain(**values) -> None:
    """Raise ValueError for the first value outside its ``_DOMAIN`` entry or infinite.

    None is skipped.  The predicate comes first, so NaN and -inf fail it with
    its message, and only +inf is named as not finite.
    """
    for name, v in values.items():
        holds, requirement = _DOMAIN[name]
        if v is not None and not holds(v):
            raise ValueError(f"{name} must {requirement}, got {v}")
        if v == math.inf:
            raise ValueError(f"{name} must be finite, got {v}")


def check_inputs(what: str, choice: str, takes: dict, **given) -> None:
    """Raise ValueError for an unknown ``choice``, then its unused inputs, then its unset ones.

    ``takes`` maps each choice to the inputs it uses; in ``given`` None is
    unset.  Callers check this ahead of the domains, so an input a choice
    ignores is named as unused.
    """
    if choice not in takes:
        raise ValueError(f"unknown {what} {choice!r}; expected one of {tuple(takes)}")
    uses = takes[choice]
    unused = [name for name, v in given.items() if v is not None and name not in uses]
    if unused:
        raise ValueError(f"{what} {choice!r} does not use {', '.join(unused)}")
    missing = [name for name in uses if given.get(name) is None]
    if missing:
        raise ValueError(f"{what} {choice!r} requires {', '.join(missing)}")


def check_rank(k: int, n: int) -> None:
    """Raise ValueError unless the truncation rank k of an order-n matrix lies in [1, n - 1]."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")


def descending_spectrum(eigenvalues, k: int) -> np.ndarray:
    """``eigenvalues`` as a float64 vector, checked finite and nonincreasing, cut at 1 <= k < n."""
    import numpy as np

    from .linalg import check_finite

    sig = np.asarray(eigenvalues, dtype=np.float64)
    if sig.ndim != 1:
        raise ValueError("eigenvalues must be one-dimensional")
    check_rank(k, sig.shape[0])
    check_finite(sig, "eigenvalue")
    if np.any(np.diff(sig) > 0):
        raise ValueError("eigenvalues must be nonincreasing")
    return sig


def _precondition(allowance: float, measured: float | None) -> tuple[bool, float | None]:
    if measured is None:
        return True, None
    # equality-by-construction is the common case; absorb rounding from the
    # exact rescale with a relative slack
    holds = measured <= allowance * (1.0 + 1e-9) + 1e-300
    return holds, allowance - measured


def relative_error_bound(
    k: int,
    eps: float,
    tail_F: float,
    tail_2: float,
    perturbation_2: float | None = None,
) -> BoundReport:
    """Frobenius error bound when the perturbation is eps^2 * sigma_{k+1}-small.

    For a symmetric perturbation with spectral norm at most
    ``eps**2 * tail_2`` (where ``tail_2`` is sigma_{k+1} of the clean
    matrix), the rank-k truncation of the perturbed matrix satisfies

        ||A_hat_k - A||_F  <=  (1 + 32*eps) * tail_F
                               + 102 * sqrt(2*k) * eps**2 * tail_2.

    Parameters
    ----------
    k : int
        Truncation rank, >= 1.
    eps : float
        Scale parameter in (0, 1/4].
    tail_F, tail_2 : float
        Frobenius and spectral norms of the discarded part A - A_k.
    perturbation_2 : float, optional
        Measured spectral norm of the perturbation; when given, the report
        records whether it is within the allowance ``eps**2 * tail_2``.
    """
    check_domain(k=k, eps=eps, tail_F=tail_F, tail_2=tail_2, perturbation_2=perturbation_2)
    value = (1.0 + 32.0 * eps) * tail_F + 102.0 * math.sqrt(2.0 * k) * eps**2 * tail_2
    holds, margin = _precondition(eps**2 * tail_2, perturbation_2)
    return BoundReport(
        name="relative",
        value=value,
        precondition_holds=holds,
        margin=margin,
        inputs={"k": k, "eps": eps, "tail_F": tail_F, "tail_2": tail_2},
    )


def gap_error_bound(
    k: int,
    eps: float,
    gap: float,
    tail_F: float,
    perturbation_2: float | None = None,
) -> BoundReport:
    """Frobenius error bound when the perturbation is eps * gap-small.

    For a symmetric perturbation with spectral norm at most
    ``eps * gap`` (gap = sigma_k - sigma_{k+1} of the clean matrix),

        ||A_hat_k - A||_F  <=  tail_F + 102 * sqrt(2*k) * eps * gap.

    Unlike :func:`relative_error_bound` the additive term is linear in eps,
    which is the stronger statement when the spectrum has a genuine gap.
    """
    check_domain(k=k, eps=eps, gap=gap, tail_F=tail_F, perturbation_2=perturbation_2)
    value = tail_F + 102.0 * math.sqrt(2.0 * k) * eps * gap
    holds, margin = _precondition(eps * gap, perturbation_2)
    return BoundReport(
        name="gap",
        value=value,
        precondition_holds=holds,
        margin=margin,
        inputs={"k": k, "eps": eps, "gap": gap, "tail_F": tail_F},
    )


def additive_error_bound(k: int, delta: float, tail_F: float, head_F: float) -> BoundReport:
    """Classical additive comparison bound for a delta-small perturbation.

    For ||E||_2 <= delta,

        ||A_hat_k - A||_F  <=  tail_F + sqrt(k)*delta
                               + 2 * k**(1/4) * sqrt(delta * head_F),

    where head_F = ||A_k||_F.  Included as the baseline that the relative
    bound improves on for small perturbations: its delta-dependence decays
    like sqrt(delta) instead of delta.
    """
    check_domain(k=k, tail_F=tail_F, head_F=head_F)
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    value = tail_F + math.sqrt(k) * delta + 2.0 * k**0.25 * math.sqrt(delta * head_F)
    return BoundReport(
        name="additive",
        value=value,
        precondition_holds=True,
        margin=None,
        inputs={"k": k, "delta": delta, "tail_F": tail_F, "head_F": head_F},
    )


def spectral_envelope(eigenvalues: np.ndarray, k: int, eps: float) -> EnvelopeIndices:
    """Locate the eigenvalues insulated from mixing across the cut at ``k``.

    With sigma_0 = +inf by convention:

    * m1 = largest j in [0, k] with sigma_j >= (1 + 2*eps) * sigma_{k+1};
    * m2 = largest j in [k, n] with sigma_j >= sigma_k - 2*eps*sigma_{k+1}.

    Eigenvalues 1..m1 sit clearly above the discarded spectrum and
    eigenvalues beyond m2 sit clearly below the kept spectrum; only the
    band (m1, m2] can rotate appreciably under an admissible perturbation.
    """
    sig = descending_spectrum(eigenvalues, k)
    check_domain(eps=eps)
    n = sig.shape[0]
    sig_k1 = sig[k]
    m1 = 0
    for j in range(1, k + 1):
        if sig[j - 1] >= (1.0 + 2.0 * eps) * sig_k1:
            m1 = j
    m2 = k
    thresh = sig[k - 1] - 2.0 * eps * sig_k1
    for j in range(k + 1, n + 1):
        if sig[j - 1] >= thresh:
            m2 = j
    return EnvelopeIndices(m1=m1, m2=m2)


def _powerlaw_domain(delta: float, beta: float, n: int, C1: float | None) -> None:
    check_domain(beta=beta, n=n, C1=C1)
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")


def powerlaw_rank_cutoff(delta: float, beta: float, n: int, C1: float = DEFAULT_C1) -> int:
    """Truncation rank for a power-law spectrum sigma_j = j**(-beta).

    Returns ``floor(min(C1 * delta**(-1/beta), n) - 1)``, the largest rank
    whose discarded eigenvalue still dominates the perturbation scale
    ``delta``.  Requires beta > 1/2, delta in (0, 1/2], n >= 2 and a
    resulting rank of at least 1.
    """
    _powerlaw_domain(delta, beta, n, C1)
    try:
        scale = C1 * delta ** (-1.0 / beta)
    except OverflowError:  # a scale past the float range is past n too
        scale = math.inf
    k = math.floor(min(scale, float(n)) - 1.0)
    if k < 1:
        raise ValueError(
            f"cutoff rule yields k = {k} < 1 for delta={delta}, beta={beta}, n={n}"
        )
    return k


def powerlaw_error_rate(delta: float, beta: float, n: int) -> float:
    """Error scale achieved at the power-law cutoff rank.

    ``max(delta, 1/n) ** ((2*beta - 1) / (2*beta))`` -- sublinear in delta,
    with the 1/n floor reflecting that at most n - 1 ranks are available.
    """
    _powerlaw_domain(delta, beta, n, None)
    return max(delta, 1.0 / n) ** ((2.0 * beta - 1.0) / (2.0 * beta))


def _exponential_log(delta: float, c: float, n: int) -> float:
    """Check the exponential family's inputs and return log(1/delta).

    A subnormal delta whose reciprocal overflows gets -log(delta) instead.
    """
    check_domain(c=c, n=n)
    if not 0.0 < delta < math.exp(-16.0):
        raise ValueError(f"delta must lie in (0, e^-16), got {delta}")
    inv = 1.0 / delta
    return math.log(inv) if inv < math.inf else -math.log(delta)


def exponential_rank_cutoff(delta: float, c: float, n: int) -> int:
    """Truncation rank for an exponential spectrum sigma_j = exp(-c*j).

    Returns ``floor(min((log(1/delta) - log(log(1/delta))) / c, n) - 1)``.
    Requires c > 0, delta in (0, e**-16) and a resulting rank >= 1.
    """
    L = _exponential_log(delta, c, n)
    k = math.floor(min((L - math.log(L)) / c, float(n)) - 1.0)
    if k < 1:
        raise ValueError(f"cutoff rule yields k = {k} < 1 for delta={delta}, c={c}, n={n}")
    return k


def exponential_error_rate(delta: float, c: float, n: int) -> float:
    """Error scale achieved at the exponential cutoff rank.

    ``max(delta * log(1/delta)**1.5, sqrt(n) * exp(-c*n))`` -- near-linear
    in delta up to a log factor, floored by the fully-resolved regime where
    every available rank is kept.
    """
    L = _exponential_log(delta, c, n)
    return max(delta * L**1.5, math.sqrt(n) * math.exp(-c * n))


def completion_sampling_threshold(
    mu0: float,
    norm_F: float,
    n: int,
    t: float,
    regime: str,
    sigma_k1: float | None = None,
    gap: float | None = None,
    eps: float | None = None,
    k: int | None = None,
    *,
    C_mc: float = DEFAULT_C_MC,
) -> SamplingThreshold:
    """Observation rate required for entrywise-sampled matrix completion.

    All three regimes share the scaffold
    ``p >= C_mc * mu0**2 * norm_F**2 * log(n/t) / (n * scale)`` with

    * ``sqrt_k``:   scale = sigma_k1**2                      (cheapest);
    * ``relative``: scale = sigma_k1**2 / max(eps**-4, k**2) (supports the
      relative error bound, at a steep oversampling factor);
    * ``gap``:      scale = eps**2 * gap**2 / k              (supports the
      gap error bound).

    ``mu0`` is the flatness measure from :func:`spectrunc.linalg.spikeness`,
    ``t`` the failure-probability budget.  Regimes that divide by
    ``sigma_k1`` (resp. ``gap``) reject a zero value, since their guarantee
    is inapplicable for exactly rank-k (resp. gapless) matrices.
    """
    check_inputs("regime", regime, SAMPLING_REGIMES, sigma_k1=sigma_k1, gap=gap, eps=eps, k=k)
    # gap is left to the gap regime's own, stricter rule
    check_domain(mu0=mu0, norm_F=norm_F, n=n, t=t, C_mc=C_mc, sigma_k1=sigma_k1, eps=eps, k=k)
    if regime == "gap" and not gap > 0:
        raise ValueError("gap must be positive in the gap regime")

    def form(mu0, norm_F, log_term, sigma_k1, eps, gap):
        base = mu0**2 * norm_F**2 * log_term / n
        if regime == "sqrt_k":
            return base / sigma_k1**2
        if regime == "relative":
            return base * max(eps**-4, k**2) / sigma_k1**2
        return base * k / (eps**2 * gap**2)

    expr = _exact(form, mu0, norm_F, math.log(n / t), sigma_k1, eps, gap)
    p_raw = C_mc * expr
    return SamplingThreshold(
        regime=regime, p_raw=p_raw, p=min(1.0, p_raw), vacuous=p_raw > 1.0
    )


def denoising_error_bound(
    nu: float,
    sigma_k1: float,
    k: int,
    tail_F: float,
    *,
    C_a: float = DEFAULT_C_A,
    C_b: float = DEFAULT_C_B,
    c_dn: float = DEFAULT_C_DN,
) -> BoundReport:
    """Expected-scale error bound for truncation after additive Gaussian noise.

    For symmetric noise of entrywise standard deviation ``nu / sqrt(n)``
    (so spectral norm about 2*nu), with ``nu`` below ``c_dn * sigma_k1``:

        ||A_hat_k - A||_F  <=  (1 + C_a * sqrt(nu / sigma_k1)) * tail_F
                               + C_b * sqrt(k) * nu,

    holding with probability at least 0.8 over the noise draw.
    """
    check_domain(k=k, nu=nu, sigma_k1=sigma_k1, tail_F=tail_F, C_a=C_a, C_b=C_b, c_dn=c_dn)
    value = (1.0 + C_a * math.sqrt(nu / sigma_k1)) * tail_F + C_b * math.sqrt(k) * nu
    allowance = c_dn * sigma_k1
    return BoundReport(
        name="denoising",
        value=value,
        precondition_holds=nu < allowance,
        margin=allowance - nu,
        inputs={"nu": nu, "sigma_k1": sigma_k1, "k": k, "tail_F": tail_F},
    )


def covariance_admissible(
    r_e: float,
    eps: float,
    k: int,
    n_samples: int,
    mode: str,
    gamma_k: float | None = None,
    norm_2: float | None = None,
    gap: float | None = None,
    *,
    c_cov: float = DEFAULT_C_COV,
) -> AdmissibilityReport:
    """Check whether N = n_samples samples support truncating the sample covariance.

    relative mode:  r_e * max(eps**-4, k**2) * gamma_k**2 * log(N) / N <= c_cov
    gap mode:       r_e * k * norm_2**2 * log(N) / (N * eps**2 * gap**2) <= c_cov

    ``r_e`` is the effective rank trace/||A||_2 and ``gamma_k`` the ratio
    sigma_k/sigma_{k+1}.  When admissible, the truncated estimator tracks
    the best rank-k approximation up to the tail multiplier ``1 + eps``
    (reported as ``multiplier``).  Relative mode rejects ``gamma_k = inf``:
    a spectrum with sigma_{k+1} = 0 has no relative scale to measure against.
    """
    check_inputs("mode", mode, COVARIANCE_MODES, gamma_k=gamma_k, norm_2=norm_2, gap=gap)
    check_domain(eps=eps, k=k, r_e=r_e, n_samples=n_samples, norm_2=norm_2, c_cov=c_cov)
    N = n_samples
    if mode == "relative" and not (math.isfinite(gamma_k) and gamma_k >= 1):
        raise ValueError(f"relative mode needs finite gamma_k >= 1, got {gamma_k}")
    if mode == "gap" and not gap > 0:
        raise ValueError("gap must be positive in gap mode")

    def form(r_e, eps, gamma_k, norm_2, gap, log_N):
        if mode == "relative":
            return r_e * max(eps**-4, k**2) * gamma_k**2 * log_N / N
        return r_e * k * norm_2**2 * log_N / (N * eps**2 * gap**2)

    expr = _exact(form, r_e, eps, gamma_k, norm_2, gap, math.log(N))
    return AdmissibilityReport(
        mode=mode,
        expr=expr,
        admissible=expr <= c_cov,
        margin=c_cov - expr,
        multiplier=1.0 + eps,
    )


def sample_covariance_rates(norm_2: float, r_e: float, n_samples: int, n: int) -> RatePair:
    """Error scales of the full sample covariance over N = n_samples Gaussian samples.

    frobenius: ``norm_2 * r_e * sqrt(log(N) / N)``
    spectral:  ``norm_2 * max(sqrt(r_e*log(N*n)/N), r_e*log(N*n)/N)``

    These are the guarantees the truncated estimator is measured against;
    leading constants are taken as 1.
    """
    check_domain(norm_2=norm_2, r_e=r_e, n_samples=n_samples)
    if not n >= 1:  # a single coordinate is enough here, unlike the table's n >= 2
        raise ValueError(f"n must be >= 1, got {n}")
    N = n_samples
    frob = norm_2 * r_e * math.sqrt(math.log(N) / N)
    ratio = r_e * math.log(N * n) / N
    spec = norm_2 * max(math.sqrt(ratio), ratio)
    return RatePair(frobenius=frob, spectral=spec)


#: ``spectrunc bounds --kind`` -> the function it evaluates
KINDS = {
    "relative": relative_error_bound,
    "gap": gap_error_bound,
    "additive": additive_error_bound,
    "denoising": denoising_error_bound,
    "sampling": completion_sampling_threshold,
    "covariance": covariance_admissible,
    "covariance_rates": sample_covariance_rates,
    "powerlaw_cutoff": powerlaw_rank_cutoff,
    "powerlaw_rate": powerlaw_error_rate,
    "exponential_cutoff": exponential_rank_cutoff,
    "exponential_rate": exponential_error_rate,
}
