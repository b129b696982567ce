"""Constructive verification of the subspace-alignment inequality chain.

The relative error bound rests on an explicit construction: split the
clean spectrum with the envelope indices (m1, m2), align an intermediate
subspace W inside the middle band with the perturbed top-k subspace, and
compare both matrices to the reference matrix built from W.  Every
inequality along that chain is measurable on a concrete instance; this
module measures them.

All checks are normalized to the orientation ``lhs <= rhs`` with
``slack = rhs - lhs``, so a check passes iff its slack is >= -1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import EnvelopeIndices, spectral_envelope
from .linalg import (
    SpectralDecomposition,
    _fix_signs,
    eig_sym,
    principal_angle_sin,
    require_symmetric,
    spectral_norm_sym,
    spectrum_stats,
    truncate,
)

__all__ = [
    "AlignmentCheck",
    "AlignmentReport",
    "aligned_subspace",
    "reference_matrix",
    "range_basis",
    "check_alignment",
]

#: a check passes when its slack is no worse than this
CHECK_TOL = 1e-9
#: eigenvalues of the reference matrix below this fraction of ||A||_2 count as zero
RANGE_TOL = 1e-8


@dataclass(frozen=True)
class AlignmentCheck:
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class AlignmentReport:
    """All measured inequalities for one (A, A_hat, k, eps) instance.

    ``applicable`` is False when the measured perturbation exceeds the
    allowance eps^2 * sigma_{k+1}; in that case no checks are run, since
    the chain's hypotheses are not met and failures would be meaningless.
    """

    k: int
    eps: float
    delta_measured: float
    delta_allowed: float
    applicable: bool
    m1: int
    m2: int
    checks: list[AlignmentCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.applicable and all(c.passed for c in self.checks)

    def sin_angles(self) -> dict[str, float]:
        wanted = (
            "head_alignment",
            "tail_separation",
            "subspace_capture",
            "reference_range_alignment",
        )
        return {c.name: c.lhs for c in self.checks if c.name in wanted}


def aligned_subspace(
    dec_A: SpectralDecomposition,
    dec_hat: SpectralDecomposition,
    k: int,
    eps: float,
) -> tuple[np.ndarray, EnvelopeIndices]:
    """Orthonormal W in the clean middle band, aligned with the perturbed top-k.

    W has k - m1 columns inside span(U_{m1+1..m2}) chosen to maximize the
    smallest singular value of W^T U_hat_k: with M = B^T U_hat_k for the
    band basis B, any orthonormal P satisfies
    sigma_j(P^T M) <= sigma_j(M), and the top k - m1 left singular vectors
    of M attain equality.  When m1 == k, W is the empty n-by-0 matrix.
    """
    env = spectral_envelope(dec_A.eigenvalues, k, eps)
    n = dec_A.n
    B = dec_A.basis[:, env.m1 : env.m2]
    r = k - env.m1
    if r == 0:
        return np.zeros((n, 0)), env
    M = B.T @ dec_hat.basis[:, :k]
    P, _, _ = np.linalg.svd(M, full_matrices=False)
    return B @ _fix_signs(P[:, :r]), env


def reference_matrix(
    dec_A: SpectralDecomposition, W: np.ndarray, m1: int
) -> np.ndarray:
    """Reference comparison point A_m1 + W (W^T A W) W^T.

    Keeps the well-separated head of A exactly and compresses the rest of A
    onto the aligned subspace; its rank is at most m1 + (columns of W).
    """
    G = W.T @ dec_A.basis
    core = (G * dec_A.eigenvalues) @ G.T
    T = truncate(dec_A, m1) + W @ ((core + core.T) / 2.0) @ W.T
    return (T + T.T) / 2.0


def range_basis(M: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal eigenbasis of the numerically nonzero eigenspace of M.

    Eigenvalues with magnitude at most ``RANGE_TOL * scale`` are treated as
    zero; the returned columns span the numerical range of M.
    """
    dec = eig_sym(M)
    keep = np.abs(dec.eigenvalues) > RANGE_TOL * scale
    return dec.basis[:, keep]


def check_alignment(
    A: np.ndarray, A_hat: np.ndarray, dec_hat: SpectralDecomposition, k: int, eps: float
) -> AlignmentReport:
    """Measure the alignment inequality chain on one perturbed instance.

    ``dec_hat`` is ``eig_sym(A_hat)``, which callers already hold; it is not recomputed.

    Checks (all lhs <= rhs, clean spectrum sigma, perturbed basis U_hat):

    * head_alignment:       ||U_hat_perp,k^T U_m1||_2            <= eps
    * tail_separation:      ||U_hat_k^T U_beyond_m2||_2          <= eps
    * subspace_capture:     ||U_hat_perp,k^T W||_2               <= eps
    * capture_strength:     sqrt(1 - eps^2) <= sigma_min(W^T U_hat_k)
      (only when k > m1)
    * reference_range_alignment / reference_complement_alignment:
      largest principal-angle sines between the reference matrix's range
      and the perturbed top-k / bottom subspaces                 <= 2*eps
    * reference_bias:       ||A - A_ref||_F   <= (1 + 32*eps) * tail_F
    * truncation_proximity: ||A_hat_k - A_ref||_2 <= 102 * eps^2 * tail_2
    * error_split:          ||A_hat_k - A||_F <=
                            ||A - A_ref||_F + sqrt(2*k) * ||A_hat_k - A_ref||_2
    """
    A_sym = require_symmetric(A)
    Ahat_sym = require_symmetric(A_hat)
    if not A_sym.shape == Ahat_sym.shape == dec_hat.basis.shape:
        raise ValueError("A, A_hat and dec_hat must have the same shape")
    dec_A = eig_sym(A_sym)
    stats = spectrum_stats(dec_A.eigenvalues, k)
    delta_allowed = eps**2 * stats.tail_2
    delta_measured = spectral_norm_sym(Ahat_sym - A_sym)
    applicable = delta_measured <= delta_allowed * (1.0 + 1e-9) + 1e-300
    W, env = aligned_subspace(dec_A, dec_hat, k, eps)
    report = AlignmentReport(
        k=k,
        eps=eps,
        delta_measured=delta_measured,
        delta_allowed=delta_allowed,
        applicable=applicable,
        m1=env.m1,
        m2=env.m2,
    )
    if not applicable:
        return report
    Ahat_k = truncate(dec_hat, k)
    U = dec_A.basis
    Uhat_k = dec_hat.basis[:, :k]
    A_ref = reference_matrix(dec_A, W, env.m1)
    Q = np.hstack([U[:, : env.m1], W])  # A_ref's range lies in span Q
    C = Q.T @ A_ref @ Q
    U_ref = Q @ range_basis((C + C.T) / 2.0, scale=abs(dec_A.eigenvalues[0]))

    checks: list[AlignmentCheck] = []

    def add(name: str, lhs: float, rhs: float) -> None:
        slack = rhs - lhs
        checks.append(
            AlignmentCheck(name=name, lhs=lhs, rhs=rhs, slack=slack, passed=slack >= -CHECK_TOL)
        )

    add("head_alignment", principal_angle_sin(U[:, : env.m1], Uhat_k), eps)
    add("tail_separation", principal_angle_sin(Uhat_k, U[:, : env.m2]), eps)
    add("subspace_capture", principal_angle_sin(W, Uhat_k), eps)
    if k > env.m1:
        smin = float(np.linalg.svd(W.T @ Uhat_k, compute_uv=False)[-1])
        add("capture_strength", math.sqrt(1.0 - eps**2), smin)
    add("reference_range_alignment", principal_angle_sin(Uhat_k, U_ref), 2.0 * eps)
    add(
        "reference_complement_alignment",
        principal_angle_sin(U_ref, Uhat_k),
        2.0 * eps,
    )
    bias_F = float(np.linalg.norm(A_sym - A_ref, "fro"))
    add("reference_bias", bias_F, (1.0 + 32.0 * eps) * stats.tail_F)
    prox_2 = spectral_norm_sym(Ahat_k - A_ref)
    add("truncation_proximity", prox_2, 102.0 * eps**2 * stats.tail_2)
    err_F = float(np.linalg.norm(Ahat_k - A_sym, "fro"))
    add("error_split", err_F, bias_F + math.sqrt(2.0 * k) * prox_2)
    return replace(report, checks=checks)
