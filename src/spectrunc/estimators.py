"""Truncation-based estimators for partially observed or noisy matrices.

Each estimator is the same two-step recipe: build an unbiased (or exact)
symmetric surrogate of the target matrix, then keep its top-k eigenpairs.
The theory in :mod:`spectrunc.bounds` is precisely about when that second
step is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import check_domain
from .linalg import check_finite, require_symmetric, symmetrize, top_eigenpairs, truncate

__all__ = [
    "ObservationSet",
    "SampleSet",
    "zero_fill_rescale",
    "complete",
    "denoise",
    "sample_covariance",
    "covariance_reduced",
]


@dataclass(frozen=True)
class ObservationSet:
    """Entrywise observations of a symmetric matrix.

    Indices are 0-based upper-triangular (rows <= cols, diagonal allowed);
    each stored value is an exact entry of the unknown matrix, recorded
    once.  ``p`` is the independent observation probability used by the
    rescaling estimator.
    """

    n: int
    p: float
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        check_domain(p=self.p)
        if not (self.rows.shape == self.cols.shape == self.values.shape):
            raise ValueError("rows, cols and values must have equal length")
        if self.rows.size:
            if self.rows.min() < 0 or self.cols.max() >= self.n:
                raise ValueError("observation indices out of range")
            if np.any(self.rows > self.cols):
                raise ValueError("observations must be upper-triangular (row <= col)")
            flat = self.rows.astype(np.int64) * self.n + self.cols.astype(np.int64)
            # strictly increasing (row-major, as bernoulli_observe and files give
            # it) already rules out a repeat, without np.unique's sort
            if np.any(flat[1:] <= flat[:-1]) and np.unique(flat).size != flat.size:
                raise ValueError("duplicate observation positions")
        check_finite(self.values, "observed value")

    @property
    def count(self) -> int:
        return int(self.rows.size)


@dataclass(frozen=True)
class SampleSet:
    """N observations of an n-dimensional random vector, one per row of X."""

    N: int
    n: int
    X: np.ndarray

    def __post_init__(self):
        if self.X.shape != (self.N, self.n):
            raise ValueError(f"X must have shape ({self.N}, {self.n}), got {self.X.shape}")
        check_finite(self.X, "sample")


def zero_fill_rescale(obs: ObservationSet) -> np.ndarray:
    """Unbiased dense surrogate: observed entries divided by p, rest zero.

    Dividing by the observation probability makes every entry of the result
    an unbiased estimate of the corresponding entry of the unknown matrix.
    """
    M = np.zeros((obs.n, obs.n))
    with np.errstate(over="ignore"):  # an entry past the float range is inf, for _rank_k to name
        M[obs.rows, obs.cols] = obs.values / obs.p
        off = obs.rows != obs.cols
        M[obs.cols[off], obs.rows[off]] = obs.values[off] / obs.p
    return M


def _rank_k(M: np.ndarray, k: int) -> np.ndarray:
    """Top-k truncation of the symmetric ``M``, ``0 <= k <= n``; overwrites ``M``.

    A non-finite entry of ``M`` (a surrogate past the float range) raises
    ValueError naming the first one, before the solve.  ``M`` is released
    before the truncation is formed, so a caller that passes its only
    reference holds one n-by-n array at a time.
    """
    n = M.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    if k == 0:
        return np.zeros((n, n))
    check_finite(M, "surrogate")
    pairs = top_eigenpairs(M, k)
    del M
    return truncate(*pairs)


def complete(obs: ObservationSet, k: int) -> np.ndarray:
    """Rank-k estimate of a partially observed symmetric matrix."""
    return _rank_k(zero_fill_rescale(obs), k)


def denoise(Y: np.ndarray, k: int) -> np.ndarray:
    """Rank-k truncation of a noisy symmetric observation (``Y`` is not modified)."""
    return _rank_k(require_symmetric(Y).copy(), k)


def sample_covariance(samples: SampleSet, center: bool = False) -> np.ndarray:
    """Sample covariance of the rows of X.

    The default assumes a known-zero mean (X^T X / N).  With
    ``center=True`` the empirical mean is removed and the usual N - 1
    normalization applies.
    """
    X = samples.X
    if center and samples.N < 2:
        raise ValueError("centering requires at least 2 samples")
    # an entry past the float range is inf or nan, for _rank_k to name
    with np.errstate(over="ignore", invalid="ignore"):
        if center:
            X = X - X.mean(axis=0)
        S = X.T @ X
    del X  # the centered copy goes before S is scaled and symmetrized
    S /= samples.N - 1 if center else samples.N
    return symmetrize(S)


def covariance_reduced(samples: SampleSet, k: int, center: bool = False) -> np.ndarray:
    """Rank-k truncation of the sample covariance."""
    return _rank_k(sample_covariance(samples, center=center), k)
