"""Synthetic instance generation: determinism, distributions, exact rescaling."""

import numpy as np
import pytest

from spectrunc import (
    bernoulli_observe,
    goe_noise,
    haar_orthogonal,
    make_spectrum,
    mvn_samples,
    psd_from_spectrum,
    rng_stream,
    scaled_perturbation,
    spectral_norm_sym,
)
from spectrunc.synth import instance


def test_rng_stream_reproducible_and_independent():
    a1 = rng_stream(42, 0).standard_normal(8)
    a2 = rng_stream(42, 0).standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    b = rng_stream(42, 1).standard_normal(8)
    c = rng_stream(43, 0).standard_normal(8)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    with pytest.raises(ValueError):
        rng_stream(-1, 0)


def test_rng_stream_keys_lie_in_0_to_2_64():
    top = 2**64 - 1
    assert not np.array_equal(rng_stream(top, top).random(4), rng_stream(top, 0).random(4))
    for seed, stream, name in [(2**64, 0, "seed"), (0, 2**64, "stream_id"), (0, -1, "stream_id")]:
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 2\*\*64\), got "):
            rng_stream(seed, stream)


def test_make_spectrum_profiles():
    pl = make_spectrum("powerlaw", 4, beta=1.0)
    np.testing.assert_allclose(pl, [1.0, 0.5, 1 / 3, 0.25], rtol=1e-15)
    ex = make_spectrum("exponential", 3, c=0.5)
    np.testing.assert_allclose(ex, np.exp([-0.5, -1.0, -1.5]), rtol=1e-15)
    np.testing.assert_array_equal(
        make_spectrum("explicit", 3, values=[3.0, 2.0, 2.0]), [3.0, 2.0, 2.0]
    )


def test_make_spectrum_validation():
    with pytest.raises(ValueError):
        make_spectrum("powerlaw", 4)
    with pytest.raises(ValueError):
        make_spectrum("exponential", 4, c=-1.0)
    with pytest.raises(ValueError):
        make_spectrum("explicit", 3, values=[1.0, 2.0, 3.0])  # increasing
    with pytest.raises(ValueError):
        make_spectrum("explicit", 3, values=[1.0, -1.0, -2.0])
    with pytest.raises(ValueError):
        make_spectrum("explicit", 3, values=[1.0, 0.5])  # wrong length
    with pytest.raises(ValueError):
        make_spectrum("cauchy", 3)
    # non-finite parameters
    for kw in (dict(beta=np.nan), dict(beta=np.inf)):
        with pytest.raises(ValueError, match="finite beta"):
            make_spectrum("powerlaw", 3, **kw)
    with pytest.raises(ValueError, match="finite c"):
        make_spectrum("exponential", 3, c=np.nan)
    for values in ([1.0, np.nan, 0.5], [np.inf, 1.0, 0.5]):
        with pytest.raises(ValueError, match="finite"):
            make_spectrum("explicit", 3, values=values)
    # a parameter the kind does not read is named
    with pytest.raises(ValueError, match="^spectrum kind 'powerlaw' does not use c, values$"):
        make_spectrum("powerlaw", 3, beta=1.0, c=0.5, values=[1.0, 0.5, 0.2])


def test_haar_orthogonal_is_orthogonal():
    for n in (2, 7, 40):
        Q = haar_orthogonal(n, rng_stream(1, 0))
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-12
    Q1 = haar_orthogonal(10, rng_stream(5, 3))
    Q2 = haar_orthogonal(10, rng_stream(5, 3))
    np.testing.assert_array_equal(Q1, Q2)


def test_psd_from_spectrum_preserves_spectrum():
    sig = make_spectrum("powerlaw", 12, beta=1.5)
    np.testing.assert_array_equal(psd_from_spectrum(sig), np.diag(sig))
    Q = haar_orthogonal(12, rng_stream(2, 0))
    A = psd_from_spectrum(sig, Q)
    np.testing.assert_array_equal(A, A.T)
    w = np.linalg.eigvalsh(A)[::-1]
    np.testing.assert_allclose(w, sig, atol=1e-12 * sig[0])
    with pytest.raises(ValueError):
        psd_from_spectrum(sig, Q[:, :5])


def test_instance_rejects_a_basis_it_does_not_know():
    # "Haar" is not "haar": it gave the diagonal matrix
    with pytest.raises(ValueError, match=r"^basis must be 'haar' or 'identity', got 'Haar'$"):
        instance(np.ones(3), "Haar", rng_stream(0, 0))


def test_nan_noise_levels_are_rejected_by_name():
    # NaN passed a "< 0" test and gave an all-NaN matrix
    with pytest.raises(ValueError, match="^nu must be nonnegative, got nan$"):
        goe_noise(5, float("nan"), rng_stream(0, 0))
    with pytest.raises(ValueError, match="^target_norm_2 must be nonnegative, got nan$"):
        scaled_perturbation(5, float("nan"), rng_stream(0, 0))


def test_infinite_noise_levels_are_rejected_by_name():
    # inf passed the nonnegative checks and gave [[inf, -inf], [-inf, inf]]
    with pytest.raises(ValueError, match="^nu must be finite, got inf$"):
        goe_noise(2, float("inf"), rng_stream(0, 0))
    with pytest.raises(ValueError, match="^target_norm_2 must be finite, got inf$"):
        scaled_perturbation(2, float("inf"), rng_stream(0, 0))


def test_goe_noise_entry_statistics():
    n, nu = 400, 0.7
    E = goe_noise(n, nu, rng_stream(3, 0))
    np.testing.assert_array_equal(E, E.T)
    iu = np.triu_indices(n)
    var = float(np.var(E[iu]))
    assert var == pytest.approx(nu**2 / n, rel=0.05)
    d_var = float(np.var(np.diag(E)))
    assert d_var == pytest.approx(nu**2 / n, rel=0.25)  # only n diagonal entries
    np.testing.assert_array_equal(goe_noise(5, 0.0, rng_stream(0, 0)), np.zeros((5, 5)))


def test_goe_spectral_norm_concentrates():
    n = 300
    ratios = [
        spectral_norm_sym(goe_noise(n, 1.0, rng_stream(9, s))) for s in range(5)
    ]
    assert 1.7 <= float(np.mean(ratios)) <= 2.2


def _bits(M):
    return np.ascontiguousarray(M).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 30, 600])
def test_goe_noise_mirrors_the_upper_triangle_bitwise(n):
    nu = 0.3
    M = rng_stream(21, n).normal(scale=nu / np.sqrt(n), size=(n, n))
    expected = np.triu(M) + np.triu(M, 1).T
    np.testing.assert_array_equal(_bits(goe_noise(n, nu, rng_stream(21, n))), _bits(expected))


@pytest.mark.parametrize("n", [30, 300])  # the dense and the Lanczos norm
def test_scaled_perturbation_is_the_scaled_draw_bitwise(n):
    target = 0.37
    G = goe_noise(n, 1.0, rng_stream(22, n))
    expected = G * (target / spectral_norm_sym(G))
    np.testing.assert_array_equal(
        _bits(scaled_perturbation(n, target, rng_stream(22, n))), _bits(expected)
    )


def test_haar_orthogonal_is_the_sign_corrected_qr_bitwise():
    n = 40
    Q, R = np.linalg.qr(rng_stream(23, 0).standard_normal((n, n)))
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    np.testing.assert_array_equal(_bits(haar_orthogonal(n, rng_stream(23, 0))), _bits(Q * d))


def test_scaled_perturbation_exact_norm():
    for n, target in ((30, 0.37), (120, 5.0)):
        E = scaled_perturbation(n, target, rng_stream(4, 0))
        np.testing.assert_array_equal(E, E.T)
        assert spectral_norm_sym(E) == pytest.approx(target, rel=1e-12)
    # the iterative large-n path must hit the target just as exactly
    E = scaled_perturbation(600, 1.3, rng_stream(4, 1))
    assert spectral_norm_sym(E) == pytest.approx(1.3, rel=1e-10)
    np.testing.assert_array_equal(
        scaled_perturbation(8, 0.0, rng_stream(4, 2)), np.zeros((8, 8))
    )


def test_bernoulli_observe_full_and_partial():
    A = psd_from_spectrum(make_spectrum("exponential", 9, c=0.4),
                          haar_orthogonal(9, rng_stream(6, 0)))
    full = bernoulli_observe(A, 1.0, rng_stream(6, 1))
    assert full.count == 9 * 10 // 2
    np.testing.assert_array_equal(full.values, A[full.rows, full.cols])

    n = 80
    B = np.zeros((n, n))
    part = bernoulli_observe(B, 0.3, rng_stream(6, 2))
    frac = part.count / (n * (n + 1) / 2)
    assert frac == pytest.approx(0.3, abs=0.05)
    again = bernoulli_observe(B, 0.3, rng_stream(6, 2))
    np.testing.assert_array_equal(part.rows, again.rows)
    with pytest.raises(ValueError):
        bernoulli_observe(B, 0.0, rng_stream(6, 3))


def test_mvn_samples_moments_and_psd_guard():
    sig = np.array([2.0, 1.0, 0.25])
    A = psd_from_spectrum(sig, haar_orthogonal(3, rng_stream(7, 0)))
    ss = mvn_samples(A, 40_000, rng_stream(7, 1))
    assert ss.X.shape == (40_000, 3)
    S = ss.X.T @ ss.X / ss.N
    assert np.max(np.abs(S - A)) <= 0.08
    with pytest.raises(ValueError, match="positive semidefinite"):
        mvn_samples(np.diag([1.0, -0.5]), 10, rng_stream(7, 2))
    # eigenvalues negative only at rounding level are clipped, not rejected
    tiny = np.diag([1.0, -1e-9])
    ok = mvn_samples(tiny, 10, rng_stream(7, 3))
    assert np.all(np.isfinite(ok.X))
    assert np.max(np.abs(ok.X[:, 1])) == 0.0


def test_empty_draws_are_rejected_by_name():
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        goe_noise(0, 1.0, rng_stream(0, 0))
    with pytest.raises(ValueError, match="^N must be >= 1, got 0$"):
        mvn_samples(np.eye(2), 0, rng_stream(0, 0))
