"""Constructive verification of the subspace-alignment inequality chain.

The relative error bound rests on an explicit construction: split the
clean spectrum with the envelope indices (m1, m2), align an intermediate
subspace W inside the middle band with the perturbed top-k subspace, and
compare both matrices to the reference matrix built from W.  Every
inequality along that chain is measurable on a concrete instance; this
module measures them.

All checks are normalized to the orientation ``lhs <= rhs`` with
``slack = rhs - lhs``, so a check passes iff its slack is >= -``CHECK_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import EnvelopeIndices, _precondition, spectral_envelope
from .linalg import (
    _fix_signs,
    _frobenius,
    eig_sym,
    principal_angle_sin,
    require_symmetric,
    spectral_norm_sym,
    spectrum_stats,
    symmetrize,
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
    sigma: np.ndarray,
    U: np.ndarray,
    basis_hat: np.ndarray,
    k: int,
    eps: float,
) -> tuple[np.ndarray, EnvelopeIndices]:
    """Orthonormal W in the clean middle band, aligned with the perturbed top-k.

    W has k - m1 columns inside span(U_{m1+1..m2}) chosen to maximize the
    smallest singular value of W^T U_hat_k: with M = B^T U_hat_k for the
    band basis B, any orthonormal P satisfies
    sigma_j(P^T M) <= sigma_j(M), and the top k - m1 left singular vectors
    of M attain equality.  ``(sigma, U)`` are the clean eigenpairs, descending,
    as :func:`eig_sym` returns them; ``basis_hat`` holds the perturbed
    eigenvectors in descending order, and its first k columns are U_hat_k.
    When m1 == k, W is the empty n-by-0 matrix.
    """
    env = spectral_envelope(sigma, k, eps)
    B = U[:, env.m1 : env.m2]
    r = k - env.m1
    if r == 0:
        return np.zeros((U.shape[0], 0)), env
    M = B.T @ basis_hat[:, :k]
    P, _, _ = np.linalg.svd(M, full_matrices=False)
    return B @ _fix_signs(P[:, :r]), env


def reference_matrix(
    sigma: np.ndarray, U: np.ndarray, W: np.ndarray, m1: int
) -> np.ndarray:
    """Reference comparison point A_m1 + W (W^T A W) W^T, for A = U diag(sigma) U^T.

    Keeps the well-separated head of A exactly and compresses the rest of A
    onto the aligned subspace; its rank is at most m1 + (columns of W).
    """
    G = W.T @ U
    T = truncate(sigma[:m1], U[:, :m1])
    T += W @ truncate(sigma, G) @ W.T
    return symmetrize(T)


def range_basis(M: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal eigenbasis of the numerically nonzero eigenspace of M.

    Eigenvalues with magnitude at most ``RANGE_TOL * scale`` are treated as
    zero; the returned columns span the numerical range of M.
    """
    w, V = eig_sym(M)
    return V[:, np.abs(w) > RANGE_TOL * scale]


def check_alignment(
    A: np.ndarray,
    eigenvalues_hat: np.ndarray,
    basis_hat: np.ndarray,
    k: int,
    eps: float,
    delta: float,
) -> AlignmentReport:
    """Measure the alignment inequality chain on one perturbed instance.

    ``eigenvalues_hat`` (k,) and ``basis_hat`` (n, k) are the top-k
    eigenpairs of the perturbed matrix A_hat, and ``delta`` is
    ||A_hat - A||_2, all three as the caller holds them.

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
    n = A_sym.shape[0]
    if eigenvalues_hat.shape != (k,) or basis_hat.shape != (n, k):
        raise ValueError(
            f"need the top {k} eigenpairs of an {n}-by-{n} A_hat, got shapes "
            f"{eigenvalues_hat.shape} and {basis_hat.shape}"
        )
    sigma, U = eig_sym(A_sym)
    stats = spectrum_stats(sigma, k)
    delta_allowed = eps**2 * stats.tail_2
    applicable, _ = _precondition(delta_allowed, delta)
    W, env = aligned_subspace(sigma, U, basis_hat, k, eps)
    report = AlignmentReport(
        k=k,
        eps=eps,
        delta_measured=delta,
        delta_allowed=delta_allowed,
        applicable=applicable,
        m1=env.m1,
        m2=env.m2,
    )
    if not applicable:
        return report
    Ahat_k = truncate(eigenvalues_hat, basis_hat)
    A_ref = reference_matrix(sigma, U, W, env.m1)
    Q = np.hstack([U[:, : env.m1], W])  # A_ref's range lies in span Q
    C = Q.T @ A_ref @ Q
    U_ref = Q @ range_basis(symmetrize(C), scale=abs(sigma[0]))

    checks: list[AlignmentCheck] = []

    def add(name: str, lhs: float, rhs: float) -> None:
        slack = rhs - lhs
        checks.append(
            AlignmentCheck(name=name, lhs=lhs, rhs=rhs, slack=slack, passed=slack >= -CHECK_TOL)
        )

    add("head_alignment", principal_angle_sin(U[:, : env.m1], basis_hat), eps)
    add("tail_separation", principal_angle_sin(basis_hat, U[:, : env.m2]), eps)
    add("subspace_capture", principal_angle_sin(W, basis_hat), eps)
    if k > env.m1:
        smin = float(np.linalg.svd(W.T @ basis_hat, compute_uv=False)[-1])
        add("capture_strength", math.sqrt(1.0 - eps**2), smin)
    add("reference_range_alignment", principal_angle_sin(basis_hat, U_ref), 2.0 * eps)
    add(
        "reference_complement_alignment",
        principal_angle_sin(U_ref, basis_hat),
        2.0 * eps,
    )
    bias_F = _frobenius(A_sym - A_ref)
    add("reference_bias", bias_F, (1.0 + 32.0 * eps) * stats.tail_F)
    prox_2 = spectral_norm_sym(Ahat_k - A_ref)
    add("truncation_proximity", prox_2, 102.0 * eps**2 * stats.tail_2)
    err_F = _frobenius(Ahat_k - A_sym)
    add("error_split", err_F, bias_F + math.sqrt(2.0 * k) * prox_2)
    return replace(report, checks=checks)
