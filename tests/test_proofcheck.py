"""Alignment-chain verification: construction identities and measured checks."""

import numpy as np
import pytest

from spectrunc import (
    check_alignment,
    eig_sym,
    haar_orthogonal,
    make_spectrum,
    principal_angle_sin,
    psd_from_spectrum,
    rng_stream,
    scaled_perturbation,
    spectral_norm_sym,
    top_eigenpairs,
    truncate,
)
from spectrunc.proofcheck import aligned_subspace, range_basis, reference_matrix


def band_instance(seed, n=20, beta=1.0, k=3, eps=0.2):
    rng = rng_stream(seed, 0)
    sig = make_spectrum("powerlaw", n, beta=beta)
    A = psd_from_spectrum(sig, haar_orthogonal(n, rng))
    E = scaled_perturbation(n, eps**2 * sig[k], rng_stream(seed, 1))
    return A, A + E, k, eps


def chain(A, Ah, k, eps):
    """check_alignment given Ah's top-k pairs and ||Ah - A||_2, as ``verify`` does."""
    return check_alignment(A, *top_eigenpairs(Ah.copy(), k), k, eps, spectral_norm_sym(Ah - A))


def test_aligned_subspace_identity_perturbation():
    A, _, k, eps = band_instance(1)
    w, U = eig_sym(A)
    W, env = aligned_subspace(w, U, U, k, eps)
    r = k - env.m1
    assert W.shape == (A.shape[0], r)
    assert np.max(np.abs(W.T @ W - np.eye(r))) <= 1e-12
    # unperturbed, the aligned frame is exactly the clean directions m1+1..k
    assert principal_angle_sin(W, U[:, env.m1 : k]) <= 1e-10
    smin = np.linalg.svd(W.T @ U[:, :k], compute_uv=False)[-1]
    assert smin == pytest.approx(1.0, abs=1e-12)


def test_aligned_subspace_empty_when_head_is_steep():
    sig = np.array([10.0, 1.0, 0.1, 0.01])
    w, U = eig_sym(np.diag(sig))
    W, env = aligned_subspace(w, U, U, 1, 0.25)
    assert (env.m1, env.m2) == (1, 1)
    assert W.shape == (4, 0)


def test_aligned_subspace_maximizes_overlap():
    # random search over frames in the band never beats the closed form
    for seed in (2, 3):
        A, Ah, k, eps = band_instance(seed, n=8, k=2, eps=0.25)
        (w, U), (_, U_hat) = eig_sym(A), eig_sym(Ah)
        W, env = aligned_subspace(w, U, U_hat, k, eps)
        r = k - env.m1
        if r == 0:
            continue
        best = np.linalg.svd(W.T @ U_hat[:, :k], compute_uv=False)[-1]
        B = U[:, env.m1 : env.m2]
        rng = rng_stream(seed, 9)
        for _ in range(2000):
            S = B @ np.linalg.qr(rng.standard_normal((B.shape[1], r)))[0]
            cand = np.linalg.svd(S.T @ U_hat[:, :k], compute_uv=False)[-1]
            assert cand <= best + 1e-8


def test_reference_matrix_identity_case_recovers_truncation():
    A, _, k, eps = band_instance(4)
    w, U = eig_sym(A)
    W, env = aligned_subspace(w, U, U, k, eps)
    A_ref = reference_matrix(w, U, W, env.m1)
    assert np.linalg.norm(A_ref - truncate(w[:k], U[:, :k]), "fro") <= 1e-10
    w = np.abs(np.linalg.eigvalsh(A_ref))
    assert np.sum(w > 1e-9 * w.max()) <= k


def test_range_basis_drops_numerical_zeros():
    M = np.diag([5.0, 1e-12, 0.0])
    U = range_basis(M, scale=5.0)
    assert U.shape == (3, 1)
    assert abs(U[0, 0]) == 1.0


def test_reference_range_from_k_by_k_compression():
    # A_ref's range lies in span Q = [U_m1 | W], so the range of Q^T A_ref Q,
    # mapped back through Q, is the range of the n-by-n A_ref
    cases = [band_instance(s) for s in (1, 2)]  # m1 < k
    cases += [band_instance(s, beta=2.0) for s in (3, 4)]  # m1 == k: W is empty
    A0 = np.diag([1.0, 0.5, 0.0, 0.0, 0.0])  # U_m1 carries exact zero eigenvalues
    cases.append((A0, A0, 3, 0.2))
    seen = set()
    for A, Ah, k, eps in cases:
        (w, U), (_, U_hat) = eig_sym(A), eig_sym(Ah)
        W, env = aligned_subspace(w, U, U_hat, k, eps)
        seen.add((env.m1 < k, W.shape[1] == 0))
        A_ref = reference_matrix(w, U, W, env.m1)
        scale = abs(w[0])
        full = range_basis(A_ref, scale)
        Q = np.hstack([U[:, : env.m1], W])
        C = Q.T @ A_ref @ Q
        small = Q @ range_basis((C + C.T) / 2.0, scale)
        assert small.shape == full.shape
        assert principal_angle_sin(small, full) <= 1e-10
        assert principal_angle_sin(full, small) <= 1e-10
    assert seen == {(True, False), (False, True)}
    assert full.shape == (5, 2)  # the zero eigenvalues of U_m1 are dropped


def test_check_alignment_unperturbed_all_pass():
    A, _, k, eps = band_instance(5)
    rep = chain(A, A, k, eps)
    assert rep.applicable
    assert rep.delta_measured == 0.0
    assert rep.all_passed
    names = [c.name for c in rep.checks]
    assert names == [
        "head_alignment",
        "tail_separation",
        "subspace_capture",
        "capture_strength",
        "reference_range_alignment",
        "reference_complement_alignment",
        "reference_bias",
        "truncation_proximity",
        "error_split",
    ]
    by_name = {c.name: c for c in rep.checks}
    assert by_name["head_alignment"].lhs <= 1e-10
    assert by_name["capture_strength"].rhs == pytest.approx(1.0, abs=1e-12)


def test_check_alignment_perturbed_instance_passes():
    A, Ah, k, eps = band_instance(6, n=30, beta=1.0, k=3, eps=0.25)
    rep = chain(A, Ah, k, eps)
    assert rep.applicable
    assert rep.all_passed
    assert min(c.slack for c in rep.checks) >= 0.0
    angles = rep.sin_angles()
    assert set(angles) == {
        "head_alignment",
        "tail_separation",
        "subspace_capture",
        "reference_range_alignment",
    }
    assert all(0.0 <= v <= 1.0 for v in angles.values())


def test_check_alignment_skips_capture_when_band_empty():
    sig = np.array([10.0, 1.0, 0.1, 0.01])
    A = np.diag(sig)
    rep = chain(A, A, 1, 0.25)
    assert rep.m1 == 1
    assert "capture_strength" not in [c.name for c in rep.checks]
    assert rep.all_passed


def test_check_alignment_gates_on_large_perturbation():
    A, _, k, eps = band_instance(7)
    E = scaled_perturbation(A.shape[0], 1.0, rng_stream(7, 5))  # way over allowance
    rep = chain(A, A + E, k, eps)
    assert not rep.applicable
    assert rep.checks == []
    assert not rep.all_passed
    assert rep.delta_measured > rep.delta_allowed


def test_check_alignment_input_validation():
    A, Ah, k, _ = band_instance(8)
    lam, V = top_eigenpairs(Ah.copy(), k)
    with pytest.raises(ValueError):
        check_alignment(A, lam, V, k, 0.3, 0.0)
    with pytest.raises(ValueError):
        check_alignment(np.triu(A), lam, V, k, 0.2, 0.0)
    with pytest.raises(ValueError, match="top 3 eigenpairs"):
        check_alignment(A, *top_eigenpairs(Ah[:10, :10].copy(), k), k, 0.2, 0.0)
    with pytest.raises(ValueError, match="top 3 eigenpairs"):
        check_alignment(A, lam[:2], V[:, :2], k, 0.2, 0.0)
    with pytest.raises(ValueError, match="top 3 eigenpairs"):
        check_alignment(A, lam, V[:10], k, 0.2, 0.0)


def test_check_alignment_deterministic():
    A, Ah, k, eps = band_instance(9)
    r1 = chain(A, Ah, k, eps)
    r2 = chain(A.copy(), Ah.copy(), k, eps)
    assert [(c.lhs, c.rhs, c.slack) for c in r1.checks] == [
        (c.lhs, c.rhs, c.slack) for c in r2.checks
    ]
