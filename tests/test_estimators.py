"""Estimators: frozen small cases, unbiasedness, and composition identities."""

import numpy as np
import pytest

from spectrunc import (
    ObservationSet,
    SampleSet,
    bernoulli_observe,
    complete,
    covariance_reduced,
    denoise,
    eig_sym,
    haar_orthogonal,
    make_spectrum,
    psd_from_spectrum,
    rng_stream,
    sample_covariance,
    truncate,
    zero_fill_rescale,
)
from spectrunc.linalg import ARPACK_MIN_N


def assert_same_truncation(est, M, k):
    """``est`` equals the rank-k truncation of ``M`` from a full eig_sym, to
    the tolerances that top_eigenpairs' routes keep against eig_sym."""
    w, U = eig_sym(M)
    ref = truncate(w[:k], U[:, :k])
    norm_2 = float(np.max(np.abs(w)))
    assert np.max(np.abs(est - ref)) <= 1e-9 * norm_2
    np.testing.assert_array_equal(est, est.T)


def obs_of(n, p, entries):
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=np.float64)
    return ObservationSet(n=n, p=p, rows=rows, cols=cols, values=vals)


def test_zero_fill_frozen_example():
    # identity observed only on the (1,1) entry at p = 1/2 rescales to 2
    obs = obs_of(2, 0.5, [(0, 0, 1.0)])
    np.testing.assert_array_equal(zero_fill_rescale(obs), np.diag([2.0, 0.0]))


def test_zero_fill_mirrors_off_diagonal():
    obs = obs_of(3, 0.25, [(0, 2, 1.5), (1, 1, -2.0)])
    M = zero_fill_rescale(obs)
    np.testing.assert_array_equal(M, M.T)
    assert M[0, 2] == M[2, 0] == 6.0
    assert M[1, 1] == -8.0
    assert M[0, 0] == 0.0


def test_observation_set_validation():
    with pytest.raises(ValueError, match="upper-triangular"):
        obs_of(3, 0.5, [(2, 0, 1.0)])
    with pytest.raises(ValueError, match="duplicate"):
        obs_of(3, 0.5, [(0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(ValueError, match="out of range"):
        obs_of(3, 0.5, [(0, 3, 1.0)])
    with pytest.raises(ValueError, match="p must"):
        obs_of(3, 1.5, [(0, 0, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        obs_of(3, 0.5, [(0, 0, np.inf)])


def test_complete_frozen_example():
    est = complete(obs_of(2, 0.5, [(0, 0, 1.0)]), k=1)
    np.testing.assert_array_equal(est, np.diag([2.0, 0.0]))


def test_full_observation_is_lossless():
    A = psd_from_spectrum(make_spectrum("powerlaw", 7, beta=1.0),
                          haar_orthogonal(7, rng_stream(11, 0)))
    obs = bernoulli_observe(A, 1.0, rng_stream(11, 1))
    np.testing.assert_array_equal(zero_fill_rescale(obs), A)
    est = complete(obs, k=7)
    assert np.linalg.norm(est - A, "fro") <= 1e-12


def test_zero_fill_is_unbiased():
    rng = rng_stream(12, 0)
    A = psd_from_spectrum(make_spectrum("exponential", 6, c=0.3),
                          haar_orthogonal(6, rng))
    p, reps = 0.4, 4000
    acc = np.zeros_like(A)
    for _ in range(reps):
        acc += zero_fill_rescale(bernoulli_observe(A, p, rng))
    acc /= reps
    # entrywise std of the mean is about |a_ij| sqrt((1-p)/p) / sqrt(reps)
    assert np.max(np.abs(acc - A)) <= 5 * np.max(np.abs(A)) * np.sqrt((1 - p) / p / reps)


def test_denoise_is_truncated_eigendecomposition():
    rng = rng_stream(13, 0)
    for n in (9, ARPACK_MIN_N):  # a dense route and the ARPACK route
        Y = rng.standard_normal((n, n))
        Y = (Y + Y.T) / 2.0
        assert_same_truncation(denoise(Y, 3), Y, 3)
        np.testing.assert_array_equal(denoise(Y, 3), denoise(Y, 3))


def test_estimators_leave_arguments_unmodified():
    # top_eigenpairs uses its input as workspace on the dense routes
    rng = rng_stream(15, 0)
    for n in (30, ARPACK_MIN_N):  # the evr route and the ARPACK route
        Y = rng.standard_normal((n, n))
        Y = (Y + Y.T) / 2.0
        Y0 = Y.copy()
        denoise(Y, 3)
        np.testing.assert_array_equal(Y, Y0)
        obs = bernoulli_observe(Y, 0.5, rng)
        kept = (obs.rows.copy(), obs.cols.copy(), obs.values.copy())
        complete(obs, 3)
        for now, before in zip((obs.rows, obs.cols, obs.values), kept):
            np.testing.assert_array_equal(now, before)
        ss = SampleSet(N=2 * n, n=n, X=rng.standard_normal((2 * n, n)))
        X0 = ss.X.copy()
        covariance_reduced(ss, 3, center=True)
        np.testing.assert_array_equal(ss.X, X0)


def test_estimators_rank_range():
    Y = np.diag([3.0, 2.0, 1.0])
    np.testing.assert_array_equal(denoise(Y, 0), np.zeros((3, 3)))
    np.testing.assert_array_equal(denoise(Y, 3), Y)
    for k in (-1, 4):
        with pytest.raises(ValueError, match=r"k must lie in \[0, 3\]"):
            denoise(Y, k)


def test_sample_covariance_hand_case():
    ss = SampleSet(N=2, n=2, X=np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(sample_covariance(ss), np.diag([0.5, 2.0]), atol=1e-15)
    centered = sample_covariance(ss, center=True)
    np.testing.assert_allclose(centered, np.array([[0.5, -1.0], [-1.0, 2.0]]), atol=1e-15)
    with pytest.raises(ValueError):
        sample_covariance(SampleSet(N=1, n=2, X=np.ones((1, 2))), center=True)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(N=3, n=2, X=np.ones((2, 3)))
    with pytest.raises(ValueError):
        SampleSet(N=1, n=1, X=np.array([[np.nan]]))


def test_covariance_reduced_composition():
    rng = rng_stream(14, 0)
    X = rng.standard_normal((50, 6))
    ss = SampleSet(N=50, n=6, X=X)
    direct = covariance_reduced(ss, k=2)
    assert_same_truncation(direct, sample_covariance(ss), 2)
    w = np.linalg.eigvalsh(direct)
    assert np.sum(w > 1e-10 * w.max()) <= 2
