"""Deterministic synthetic-instance generation.

Every stochastic routine takes an explicit ``numpy.random.Generator``;
experiment code obtains them from :func:`rng_stream`.
"""

from __future__ import annotations

import numpy as np

from .bounds import check_domain
from .config import check_basis, spectrum_head
from .estimators import ObservationSet, SampleSet
from .linalg import require_symmetric, spectral_norm_sym, truncate

__all__ = [
    "rng_stream",
    "make_spectrum",
    "haar_orthogonal",
    "psd_from_spectrum",
    "instance",
    "bernoulli_observe",
    "goe_noise",
    "scaled_perturbation",
    "mvn_samples",
]

#: relative eigenvalue threshold below which an input is rejected as not PSD
PSD_TOL = 1e-6


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent generator for the given (seed, stream) pair, each in [0, 2**64).

    A counter-based Philox engine keyed on ``(seed, stream_id)``: streams
    are statistically independent, order of use is irrelevant, and equal
    pairs reproduce draws bit for bit on a fixed numpy version.
    """
    check_domain(seed=seed, stream_id=stream_id)
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def make_spectrum(
    kind: str,
    n: int,
    beta: float | None = None,
    c: float | None = None,
    values=None,
) -> np.ndarray:
    """Descending eigenvalue sequence of one of the stock decay profiles.

    kind ``"powerlaw"``   : sigma_j = j**(-beta);
    kind ``"exponential"``: sigma_j = exp(-c*j);
    kind ``"explicit"``   : ``values`` verbatim.

    The parameters are checked by :func:`config.spectrum_head`.
    """
    spectrum_head(kind, n, beta=beta, c=c, values=values)
    if kind == "explicit":
        return np.array(values, dtype=np.float64)
    j = np.arange(1, n + 1, dtype=np.float64)
    return j ** (-beta) if kind == "powerlaw" else np.exp(-c * j)


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-corrected QR."""
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    Q *= d
    return Q


def psd_from_spectrum(spectrum: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Symmetric matrix with the prescribed spectrum in the given basis.

    ``basis=None`` gives the diagonal matrix, any other basis
    ``linalg.truncate(spectrum, basis)``.
    """
    sig = np.asarray(spectrum, dtype=np.float64)
    n = sig.shape[0]
    if basis is None:
        return np.diag(sig)
    U = np.asarray(basis, dtype=np.float64)
    if U.shape != (n, n):
        raise ValueError(f"basis shape {U.shape} does not match spectrum length {n}")
    return truncate(sig, U)


def instance(spectrum: np.ndarray, basis: str, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix with eigenvalues ``spectrum`` in ``basis``.

    ``"haar"`` draws the basis from ``rng`` (:func:`haar_orthogonal`);
    ``"identity"`` gives the diagonal matrix and draws nothing; any other
    basis is rejected (``config.BASES``).
    """
    check_basis(basis)
    U = haar_orthogonal(len(spectrum), rng) if basis == "haar" else None
    return psd_from_spectrum(spectrum, U)


def bernoulli_observe(A: np.ndarray, p: float, rng: np.random.Generator) -> ObservationSet:
    """Observe each upper-triangular entry (diagonal included) with probability p.

    Observed values are exact; the rescaling by 1/p happens at estimation
    time, not here.
    """
    A = require_symmetric(A)
    check_domain(p=p)
    n = A.shape[0]
    iu, ju = np.triu_indices(n)
    mask = rng.random(iu.shape[0]) < p
    rows = iu[mask]
    cols = ju[mask]
    return ObservationSet(n=n, p=p, rows=rows, cols=cols, values=A[rows, cols].copy())


def goe_noise(n: int, nu: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric Gaussian noise, every entry (diagonal included) N(0, nu^2/n).

    The spectral norm of such a draw concentrates near 2*nu.  The draw's
    upper triangle is kept and mirrored into its lower one in place.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_domain(nu=nu)
    if nu == 0.0:
        return np.zeros((n, n))
    M = rng.normal(scale=nu / np.sqrt(n), size=(n, n))
    for i in range(1, n):
        M[i, :i] = M[:i, i]
    return M


def scaled_perturbation(n: int, target_norm_2: float, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric matrix rescaled to an exact spectral norm.

    Draws a unit-scale symmetric Gaussian direction and rescales it so
    ``||E||_2 == target_norm_2`` up to one floating-point rounding; this is
    how experiments realize perturbations that sit exactly on a bound's
    allowance.
    """
    check_domain(target_norm_2=target_norm_2)
    G = goe_noise(n, 1.0, rng)
    if target_norm_2 == 0.0:
        return np.zeros((n, n))
    G *= target_norm_2 / spectral_norm_sym(G)
    return G


def mvn_samples(A: np.ndarray, N: int, rng: np.random.Generator) -> SampleSet:
    """Draw N centered Gaussian vectors with covariance A.

    A must be positive semidefinite: eigenvalues below ``-PSD_TOL * ||A||_2``
    are rejected, anything negative above that threshold is treated as
    rounding and clipped to zero.
    """
    A = require_symmetric(A)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    w, U = np.linalg.eigh(A)
    scale = max(abs(w[0]), abs(w[-1]))
    if scale > 0 and w[0] < -PSD_TOL * scale:
        raise ValueError(
            f"matrix is not positive semidefinite: lowest eigenvalue {w[0]:.3e}"
        )
    w = np.clip(w, 0.0, None)
    Z = rng.standard_normal((N, A.shape[0]))
    X = Z @ (U * np.sqrt(w)).T
    return SampleSet(N=N, n=A.shape[0], X=X)
