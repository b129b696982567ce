"""Core spectral primitives: frozen examples, determinism, classical inequalities."""

import ctypes
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as hst
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from spectrunc import (
    eig_sym,
    linalg,
    principal_angle_sin,
    rng_stream,
    spectral_norm_sym,
    spectrum_stats,
    spikeness,
    top_eigenpairs,
    truncate,
)
from spectrunc.linalg import _top_k_route, effective_rank, require_symmetric


def rand_sym(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) * scale
    return (M + M.T) / 2.0


# ----------------------------------------------------------- frozen examples


def test_truncate_diag_321_rank1():
    w, U = eig_sym(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_array_equal(truncate(w[:1], U[:, :1]), np.diag([3.0, 0.0, 0.0]))
    np.testing.assert_array_equal(truncate(w[:0], U[:, :0]), np.zeros((3, 3)))


def test_spectrum_stats_diag_421():
    s = spectrum_stats(np.array([4.0, 2.0, 1.0]), 1)
    assert s.gamma_k == 2.0
    assert s.gap == 2.0
    assert s.tail_2 == 2.0
    assert s.tail_F == pytest.approx(np.sqrt(5.0), abs=1e-15)
    assert s.head_F == 4.0


def test_spectrum_stats_ranks():
    s = spectrum_stats(np.array([2.0, 1.0]), 1)
    assert s.stable_rank == pytest.approx(1.25, abs=1e-15)
    assert s.effective_rank == pytest.approx(1.5, abs=1e-15)


def test_spectrum_stats_zero_tail_gives_infinite_ratio():
    s = spectrum_stats(np.array([2.0, 1.0, 0.0]), 2)
    assert s.gamma_k == np.inf
    assert s.tail_F == 0.0


def test_spectrum_stats_at_float_extremes():
    # the plain sums of squares overflow (1e200) or underflow (1e-320)
    for sig in ([1e200, 1e199], [1e-320, 1e-321]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = spectrum_stats(np.array(sig), 1)
        assert s.head_F == sig[0] and s.tail_F == sig[1]
        assert s.stable_rank == pytest.approx(1.01, rel=1e-2)
    # ordinary spectra keep the plain quotient's bits
    sig = 1.0 / np.arange(1, 8)
    s = spectrum_stats(sig, 3)
    assert s.stable_rank == float(np.sum(sig**2) / sig[0] ** 2)
    assert s.tail_F == float(np.sqrt(np.sum(sig[3:] ** 2)))


def test_gamma_k_overflows_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectrum_stats(np.array([1e300, 1e-10]), 1).gamma_k == np.inf
    # a finite ratio keeps the bits of numpy's quotient
    sig = 1.0 / np.arange(1, 8) ** 1.5
    assert spectrum_stats(sig, 3).gamma_k == float(sig[2] / sig[3])


def test_effective_rank_at_float_extremes():
    # the plain trace overflows near the float limit, or is subnormal
    for sig, expected in (([1.7e308, 1.7e308], 2.0), ([1e-320, 1e-321], 1.1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = spectrum_stats(np.array(sig), 1)
        assert s.effective_rank == pytest.approx(expected, rel=1e-2)
        assert effective_rank(np.array(sig)) == s.effective_rank
    # ordinary spectra keep the plain quotient's bits
    sig = 1.0 / np.arange(1, 8)
    assert spectrum_stats(sig, 3).effective_rank == float(np.sum(sig) / sig[0])


def test_principal_angle_rotation():
    th = 0.3
    U = np.array([[np.cos(th)], [np.sin(th)]])
    V = np.array([[1.0], [0.0]])
    assert principal_angle_sin(U, V) == pytest.approx(0.29552020666133955, abs=1e-15)


def test_principal_angle_edges():
    V = np.eye(4)[:, :2]
    assert principal_angle_sin(V[:, :1], V) == pytest.approx(0.0, abs=1e-12)
    assert principal_angle_sin(np.eye(4)[:, 3:], V) == pytest.approx(1.0, abs=1e-12)
    assert principal_angle_sin(np.zeros((4, 0)), V) == 0.0


def test_principal_angle_rejects_mismatched_or_non_orthonormal_inputs():
    V = np.eye(4)[:, :2]
    with pytest.raises(ValueError, match="^U and V must share the ambient dimension$"):
        principal_angle_sin(np.eye(3)[:, :1], V)
    with pytest.raises(ValueError, match="^U does not have orthonormal columns$"):
        principal_angle_sin(2.0 * V[:, :1], V)
    with pytest.raises(ValueError, match="^V does not have orthonormal columns$"):
        principal_angle_sin(V[:, :1], np.ones((4, 2)))


def test_an_empty_matrix_has_norm_zero_and_an_empty_decomposition():
    assert spectral_norm_sym(np.zeros((0, 0))) == 0.0
    w, V = eig_sym(np.zeros((0, 0)))
    assert w.shape == (0,) and V.shape == (0, 0)


def test_check_finite_takes_any_shape():
    for A in (np.empty((0, 0)), np.empty(0), np.empty((2, 0)), np.ones(3), np.ones((2, 2))):
        linalg.check_finite(A, "x")
    with pytest.raises(ValueError, match=r"^x entry \(3\) is not finite: nan$"):
        linalg.check_finite(np.array([1.0, 2.0, np.nan, np.inf]), "x")
    with pytest.raises(ValueError, match=r"^x entry \(2, 1\) is not finite: -inf$"):
        linalg.check_finite(np.array([[1.0, 2.0], [-np.inf, np.nan]]), "x")


def test_spikeness_frozen():
    assert spikeness(np.eye(4)) == pytest.approx(2.0, abs=1e-15)
    assert spikeness(np.ones((4, 4))) == pytest.approx(1.0, abs=1e-15)
    A = np.zeros((9, 9))
    A[0, 0] = 1.0
    assert spikeness(A) == pytest.approx(9.0, abs=1e-15)
    with pytest.raises(ValueError):
        spikeness(np.zeros((3, 3)))


def test_spikeness_near_float_max():
    # ||A||_F and n * max|A| both overflow; the scaled form does not
    A = np.array([[1e308, 1.0], [1.0, -1e308]])
    assert spikeness(A) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert spikeness(np.diag([1.7976931348623157e308, 0.0])) == 2.0
    # ordinary matrices keep the plain quotient's bits
    M = rng_stream(34, 0).standard_normal((7, 7))
    assert spikeness((M + M.T) / 2.0).hex() == "0x1.423481ba38cebp+1"
    assert spikeness(np.diag([3.0, -1.0, 0.5])).hex() == "0x1.67d3086e3e626p+1"


# ------------------------------------------------------- validation behavior


def test_require_symmetric_rejects():
    with pytest.raises(ValueError, match="not symmetric"):
        require_symmetric(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError, match=r"^matrix entry \(1, 1\) is not finite: nan$"):
        require_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        require_symmetric(np.zeros((2, 3)))


def _bits(M):
    return np.ascontiguousarray(M).view(np.uint64)


def test_require_symmetric_returns_exact_input_as_it_is():
    rng = np.random.default_rng(23)
    for n in (0, 1, 5, 200):
        A = rand_sym(rng, n)
        assert require_symmetric(A) is A
        np.testing.assert_array_equal(_bits(A), _bits((A + A.T) / 2.0))
    # a sub-tolerance asymmetry is averaged away, into a new array
    B = A.copy()
    B[0, 1] += 1e-14
    B0 = B.copy()
    out = require_symmetric(B)
    assert out is not B
    np.testing.assert_array_equal(_bits(out), _bits((B + B.T) / 2.0))
    np.testing.assert_array_equal(_bits(B), _bits(B0))


def test_require_symmetric_does_not_overflow_near_the_float64_limit():
    # (a + a) / 2 is inf for |a| above half the float64 range
    exact = np.array([[1e308, 1.0], [1.0, -1e308]])
    nearly = exact.copy()
    nearly[1, 0] = np.nextafter(1.0, 2.0)
    for A in (exact, nearly):
        assert np.all(np.isfinite(require_symmetric(A)))
        w, V = eig_sym(A)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(V))
        np.testing.assert_allclose(w, [1e308, -1e308], rtol=1e-15)
    with pytest.raises(ValueError, match="not symmetric"), np.errstate(over="ignore"):
        require_symmetric(np.array([[1e308, 1e308], [-1e308, 1e308]]))


def test_require_symmetric_holds_its_copy_and_block_temporaries():
    # max |A - A^T| held A - A.T and its abs: two more n-by-n arrays
    A = rand_sym(np.random.default_rng(31), 600)
    A[5, 400] += 1e-13  # asymmetric inside the tolerance, so the average is a copy
    require_symmetric(A)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        require_symmetric(A)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= A.nbytes + 3 * linalg._SYM_BLOCK**2 * 8


def test_truncate_rank_bounds():
    w, U = eig_sym(np.eye(3))
    with pytest.raises(ValueError, match="n-by-k basis"):
        truncate(w, U[:, :2])  # more eigenvalues than basis columns
    with pytest.raises(ValueError, match="n-by-k basis"):
        truncate(w[:1], U)  # more basis columns than eigenvalues
    with pytest.raises(ValueError, match="n-by-k basis"):
        truncate(w[:, None], U)
    with pytest.raises(ValueError, match="n-by-k basis"):
        truncate(np.array(1.0), U)  # a 0-d array has no length to compare


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_symmetrize_gives_the_bits_of_the_plain_average(n):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    B[-1, 0], B[0, -1] = 0.0, -0.0
    B[n // 2, 0] = B[0, n // 2] = 1.5e308  # the pair's sum overflows either way
    with np.errstate(over="ignore"):
        expected = (B + B.T) / 2.0
    expected[n // 2, 0] = expected[0, n // 2] = 1.5e308  # halved before it is added
    assert linalg.symmetrize(B) is B
    assert B.tobytes() == expected.tobytes()


def test_truncate_allocates_its_output_and_block_temporaries():
    # the plain (B + B.T) / 2 held two more n-by-n arrays
    n, k = 600, 10
    V = np.linalg.qr(np.random.default_rng(3).standard_normal((n, k)))[0]
    w = np.linspace(2.0, 1.0, k)
    truncate(w, V)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        truncate(w, V)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # a block pair's sum, the one before it and numpy's iteration buffers
    block = linalg._SYM_BLOCK**2 * 8
    assert peak <= n * n * 8 + V.nbytes + 3 * block


def test_spectrum_stats_domain():
    with pytest.raises(ValueError):
        spectrum_stats(np.array([1.0, 2.0]), 1)  # increasing
    with pytest.raises(ValueError):
        spectrum_stats(np.array([2.0, 1.0]), 2)  # k too large
    with pytest.raises(ValueError):
        spectrum_stats(np.array([0.0, 0.0]), 1)  # zero leading value


# ------------------------------------------------- decomposition guarantees


@settings(max_examples=40, deadline=None)
@given(hst.integers(2, 40), hst.integers(0, 10**6))
def test_eig_sym_reconstructs(n, seed):
    A = rand_sym(np.random.default_rng(seed), n)
    w, U = eig_sym(A)
    fro = np.linalg.norm(A, "fro")
    B = (U * w) @ U.T
    assert np.linalg.norm(B - A, "fro") <= 1e-10 * max(fro, 1.0)
    G = U.T @ U
    assert np.max(np.abs(G - np.eye(n))) <= 1e-10
    assert np.all(np.diff(w) <= 0)


def test_eig_sym_eigenvalue_accuracy():
    rng = np.random.default_rng(5)
    sig = np.sort(rng.uniform(0.1, 3.0, 25))[::-1]
    Q, R = np.linalg.qr(rng.standard_normal((25, 25)))
    Q = Q * np.sign(np.diag(R))
    A = (Q * sig) @ Q.T
    w, _ = eig_sym((A + A.T) / 2.0)
    assert np.max(np.abs(w - sig)) <= 1e-10 * sig[0]


def test_eig_sym_deterministic():
    A = rand_sym(np.random.default_rng(7), 20)
    w1, U1 = eig_sym(A)
    w2, U2 = eig_sym(A.copy())
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(U1, U2)


def test_eig_sym_sign_convention():
    # dominant component of each eigenvector comes out positive
    v = np.array([-2.0, 1.0]) / np.sqrt(5.0)
    A = np.outer(v, v)
    top = eig_sym(A)[1][:, 0]
    assert top[np.argmax(np.abs(top))] > 0
    np.testing.assert_allclose(np.abs(top), np.abs(v), atol=1e-14)


def test_eig_sym_tie_ordering():
    # identity has fully degenerate spectrum; canonical order is coordinate order
    w, U = eig_sym(np.eye(5))
    np.testing.assert_array_equal(U, np.eye(5))
    np.testing.assert_array_equal(w, np.ones(5))


@pytest.mark.parametrize(
    "n, k, route",
    [
        (700, 10, "arpack"),
        (700, 100, "evr"),
        (700, 300, "evd"),
        # small orders go to the dense routes: either side of ARPACK_MIN_N
        (linalg.ARPACK_MIN_N - 1, 5, "evr"),
        (linalg.ARPACK_MIN_N, 5, "arpack"),
    ],
    ids=["10-arpack", "100-evr", "300-evd", "below_arpack_min_n-evr", "arpack_min_n-arpack"],
)
def test_top_eigenpairs_routes_match_eig_sym(n, k, route):
    assert _top_k_route(n, k) == route
    A = rand_sym(np.random.default_rng(13), n)
    w_all, U_all = eig_sym(A)
    norm_2 = float(np.max(np.abs(w_all)))
    w, V = top_eigenpairs(A.copy(), k)
    assert w.shape == (k,) and V.shape == (n, k)
    assert np.max(np.abs(w - w_all[:k])) <= 1e-12 * norm_2
    U = U_all[:, :k]
    assert np.max(np.abs(V @ V.T - U @ U.T)) <= 1e-9
    assert np.max(np.abs(V.T @ V - np.eye(k))) <= 1e-12
    w2, V2 = top_eigenpairs(A.copy(), k)
    np.testing.assert_array_equal(w, w2)
    np.testing.assert_array_equal(V, V2)


def test_top_eigenpairs_rejects():
    with pytest.raises(ValueError):
        top_eigenpairs(np.zeros((3, 4)), 1)
    for k in (0, 4):
        with pytest.raises(ValueError):
            top_eigenpairs(np.eye(3), k)


def _numpy_blas_threads():
    """Thread count of numpy's own OpenBLAS copy, or None if it is not exported."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_int
    return get


def test_arpack_runs_on_one_scipy_blas_thread(monkeypatch):
    scipy_blas, numpy_blas = linalg._scipy_openblas(), _numpy_blas_threads()
    if scipy_blas is None or numpy_blas is None:
        pytest.skip("this BLAS build does not export its thread count")
    get, set_ = scipy_blas
    A = rand_sym(np.random.default_rng(17), 600)  # ARPACK route for both calls
    calls = (lambda: top_eigenpairs(A.copy(), 5), lambda: spectral_norm_sym(A))
    real_eigsh = scipy.sparse.linalg.eigsh
    seen = []

    def spy(*args, **kwargs):
        seen.append((get(), numpy_blas()))
        return real_eigsh(*args, **kwargs)

    def fail(*args, **kwargs):
        seen.append((get(), numpy_blas()))
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((600, 0)))

    original = get()
    try:
        set_(2)  # a count the pin must restore, whatever the environment set
        before = (get(), numpy_blas())
        for eigsh in (spy, fail):
            monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
            for call in calls:
                seen.clear()
                if eigsh is fail:
                    with pytest.raises(ArpackNoConvergence):
                        call()
                else:
                    call()
                assert seen == [(1, before[1])]
                assert (get(), numpy_blas()) == before
    finally:
        set_(original)
    # without the symbols the pin does nothing and the solve still runs
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", real_eigsh)
    monkeypatch.setattr(linalg, "_scipy_openblas", lambda: None)
    w, _ = top_eigenpairs(A.copy(), 5)
    assert w.shape == (5,)


def _no_library(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize("cdll", [_no_library, lambda path: types.SimpleNamespace()],
                         ids=["unloadable", "without_symbols"])
def test_scipy_openblas_is_none_without_the_thread_symbols(cdll, monkeypatch):
    linalg._scipy_openblas.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    try:
        assert linalg._scipy_openblas() is None
    finally:
        linalg._scipy_openblas.cache_clear()


def test_spectral_norm_matches_dense_path(monkeypatch):
    rng = np.random.default_rng(11)
    A = rand_sym(rng, 530)  # above ARPACK_MIN_N: exercises the Lanczos path
    direct = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    assert spectral_norm_sym(A) == pytest.approx(direct, rel=1e-12)
    monkeypatch.setattr(linalg, "ARPACK_MIN_N", 1000)
    assert spectral_norm_sym(A) == pytest.approx(direct, rel=1e-15)


def _haar_sym(rng, n, eigenvalues):
    """Symmetric matrix with the given nonzero eigenvalues on a Haar basis."""
    Q = np.linalg.qr(rng.standard_normal((n, len(eigenvalues))))[0]
    B = (Q * eigenvalues) @ Q.T
    return (B + B.T) / 2.0


def _truncation_error(rng, n, k=5):
    """``A_hat_k - A`` for a Haar power-law ``A`` plus GOE noise, as a trial measures it."""
    A = _haar_sym(rng, n, 1.0 / np.arange(1, n + 1))
    w, U = eig_sym(A + rand_sym(rng, n, scale=0.1 / np.sqrt(n)))
    return truncate(w[:k], U[:, :k]) - A


NORM_CASES = {
    "goe": lambda rng, n: rand_sym(rng, n),
    "truncation_error": _truncation_error,
    # +1 and -1 share the top magnitude
    "pm1_tie": lambda rng, n: _haar_sym(rng, n, np.r_[1.0, -1.0, rng.uniform(-0.5, 0.5, n - 2)]),
    # a rank-10 difference such as A_hat_k - A_ref, its top magnitude well separated
    "rank10": lambda rng, n: _haar_sym(rng, n, np.array(
        [1.0, -0.8, 0.6, -0.5, 0.4, 0.3, -0.2, 0.1, 0.05, -0.02])),
}


@pytest.mark.parametrize("kind", sorted(NORM_CASES))
@pytest.mark.parametrize("offset", [-1, 0], ids=["dense", "lanczos"])
def test_spectral_norm_either_side_of_arpack_min_n(monkeypatch, kind, offset):
    n = linalg.ARPACK_MIN_N + offset
    A = NORM_CASES[kind](np.random.default_rng(19), n)
    real_eigsh = scipy.sparse.linalg.eigsh
    solves = []

    def spy(*args, **kwargs):
        solves.append(kwargs["which"])
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    norm = spectral_norm_sym(A)
    assert solves == ([] if offset < 0 else ["LM"])
    direct = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    assert norm == pytest.approx(direct, rel=1e-12)
    assert spectral_norm_sym(A) == norm


def test_spectral_norm_lanczos_stops_when_converged(monkeypatch):
    # a well-separated top magnitude converges in a few Lanczos steps; a
    # forced 100-vector basis took 101 operator applications here
    A = NORM_CASES["rank10"](np.random.default_rng(19), 600)
    real_eigsh = scipy.sparse.linalg.eigsh
    applied = []

    def counting_eigsh(M, *args, **kwargs):
        def matvec(x):
            applied.append(1)
            return M @ x

        op = LinearOperator(M.shape, matvec=matvec, dtype=M.dtype)
        return real_eigsh(op, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    norm = spectral_norm_sym(A)
    assert norm == pytest.approx(1.0, rel=1e-12)
    assert 0 < len(applied) <= 41


@pytest.mark.parametrize("n", [300, 600])
@pytest.mark.parametrize("kind", ["goe", "truncation_error"])
def test_lanczos_routes_agree_with_dense(n, kind):
    A = NORM_CASES[kind](np.random.default_rng(29), n)
    dense = np.linalg.eigvalsh(A)[::-1]
    norm = float(np.max(np.abs(dense)))
    assert spectral_norm_sym(A) == pytest.approx(norm, rel=1e-12)
    k = 5
    assert _top_k_route(n, k) == "arpack"
    w, V = top_eigenpairs(A.copy(), k)
    assert np.max(np.abs(w - dense[:k])) <= 1e-12 * norm
    assert np.max(np.abs(A @ V - V * w)) <= 1e-12 * norm


def test_every_route_reads_the_upper_triangle(monkeypatch):
    rng = np.random.default_rng(31)
    n = 400
    U, L = rand_sym(rng, n), rand_sym(rng, n)
    A = np.triu(U) + np.tril(L, -1)
    upper = np.linalg.eigvalsh(U)[::-1]
    norm = float(np.max(np.abs(upper)))
    assert abs(np.max(np.abs(np.linalg.eigvalsh(L))) - norm) > 1e-3  # the triangles differ
    assert spectral_norm_sym(A) == pytest.approx(norm, rel=1e-12)  # Lanczos
    with monkeypatch.context() as m:
        m.setattr(linalg, "ARPACK_MIN_N", n + 1)
        assert spectral_norm_sym(A) == norm  # dense
    for k, route in ((5, "arpack"), (70, "evr"), (100, "evd")):
        assert _top_k_route(n, k) == route
        w, _ = top_eigenpairs(A.copy(), k)
        assert np.max(np.abs(w - upper[:k])) <= 1e-12 * norm


# hashes a Lanczos input and what both Lanczos callers return for it; the
# inputs are built without BLAS, so they cannot depend on its thread count
_THREADS_CHILD = """
import hashlib
import numpy as np
from spectrunc import goe_noise, rng_stream, spectral_norm_sym, top_eigenpairs

inputs, outputs = hashlib.sha256(), hashlib.sha256()
for n in (300, 600):
    G = goe_noise(n, 1.0, rng_stream(7, n))
    G[np.diag_indices(n)] += np.linspace(3.0, 0.0, n)
    inputs.update(G.tobytes())
    outputs.update(np.float64(spectral_norm_sym(G)).tobytes())
    w, V = top_eigenpairs(G.copy(), 5)
    outputs.update(w.tobytes() + V.tobytes())
print(inputs.hexdigest(), outputs.hexdigest())
"""


def test_lanczos_bits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(linalg.__file__).resolve().parent.parent)
    printed = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_CHILD], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        printed.add(proc.stdout)
    assert len(printed) == 1


def _path_laplacian(n):
    L = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    L[0, 0] = L[-1, -1] = 1.0
    return L


@pytest.mark.parametrize("n", [linalg.ARPACK_MIN_N, 300, 600])
@pytest.mark.parametrize("kind", ["zero", "laplacian"])
def test_annihilated_start_vector_takes_dense_route(n, kind):
    # A @ (1/sqrt(n)) = 0 exactly: ARPACK cannot start from the fixed vector
    A = np.zeros((n, n)) if kind == "zero" else _path_laplacian(n)
    dense = np.linalg.eigvalsh(A)
    assert spectral_norm_sym(A) == float(np.max(np.abs(dense)))
    k = 3
    assert _top_k_route(n, k) == "arpack"
    w, V = top_eigenpairs(A.copy(), k)
    assert np.max(np.abs(w - dense[::-1][:k])) <= 1e-12 * max(1.0, abs(dense[-1]))
    assert np.max(np.abs(V.T @ V - np.eye(k))) <= 1e-12
    assert np.max(np.abs(A @ V - V * w)) <= 1e-12 * max(1.0, abs(dense[-1]))
    w2, V2 = top_eigenpairs(A.copy(), k)
    np.testing.assert_array_equal(w, w2)
    np.testing.assert_array_equal(V, V2)


def test_truncate_best_rank_spectral():
    # any rank-k candidate is at least sigma_{k+1} away in spectral norm
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        sig = np.sort(np.abs(rng.standard_normal(n)))[::-1]
        Q, R = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * sig) @ Q.T
        A = (A + A.T) / 2.0
        w, U = eig_sym(A)
        k = int(rng.integers(1, n))
        base = spectral_norm_sym(truncate(w[:k], U[:, :k]) - A)
        assert base <= sig[k] + 1e-10
        V = np.linalg.qr(rng.standard_normal((n, k)))[0]
        B = (V * rng.standard_normal(k)) @ V.T
        assert spectral_norm_sym((B + B.T) / 2.0 - A) >= sig[k] - 1e-10


# ------------------------------------------------- classical inequalities


@settings(max_examples=60, deadline=None)
@given(hst.integers(2, 20), hst.integers(0, 10**6))
def test_weyl_all_pairs(n, seed):
    rng = np.random.default_rng(seed)
    X = rand_sym(rng, n)
    Y = rand_sym(rng, n)
    lx = np.linalg.eigvalsh(X)[::-1]
    ly = np.linalg.eigvalsh(Y)[::-1]
    lxy = np.linalg.eigvalsh(X + Y)[::-1]
    for i in range(n):
        for j in range(n - i):
            assert lxy[i + j] <= lx[i] + ly[j] + 1e-9


@settings(max_examples=60, deadline=None)
@given(hst.integers(2, 20), hst.integers(0, 10**6))
def test_poincare_separation(n, seed):
    rng = np.random.default_rng(seed)
    X = rand_sym(rng, n)
    m = int(rng.integers(1, n + 1))
    P = np.linalg.qr(rng.standard_normal((n, m)))[0]
    lx = np.linalg.eigvalsh(X)[::-1]
    lp = np.linalg.eigvalsh(P.T @ X @ P)[::-1]
    for i in range(m):
        assert lp[i] <= lx[i] + 1e-9
        assert lp[i] >= lx[n - m + i] - 1e-9


@settings(max_examples=60, deadline=None)
@given(hst.integers(2, 20), hst.integers(0, 10**6))
def test_projector_pythagoras(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    m = int(rng.integers(1, n + 1))
    P = np.linalg.qr(rng.standard_normal((n, m)))[0]
    proj = P @ (P.T @ M)
    total = np.linalg.norm(M, "fro") ** 2
    split = np.linalg.norm(proj, "fro") ** 2 + np.linalg.norm(M - proj, "fro") ** 2
    assert abs(total - split) <= 1e-9 * max(total, 1.0)


@settings(max_examples=60, deadline=None)
@given(hst.integers(3, 20), hst.integers(0, 10**6))
def test_davis_kahan_cross_blocks(n, seed):
    # ||Q_{j:}^T P_{:i}||_2 <= ||X - Y||_2 / (lambda_i(X) - lambda_{j+1}(Y))
    rng = np.random.default_rng(seed)
    X = rand_sym(rng, n)
    Y = X + rand_sym(rng, n, scale=0.3)
    lx, P = np.linalg.eigh(X)
    ly, Q = np.linalg.eigh(Y)
    lx, P = lx[::-1], P[:, ::-1]
    ly, Q = ly[::-1], Q[:, ::-1]
    dist = float(np.max(np.abs(np.linalg.eigvalsh(X - Y))))
    C = Q.T @ P
    for _ in range(8):
        i = int(rng.integers(1, n))
        j = int(rng.integers(i, n))
        if lx[i - 1] <= ly[j]:
            continue
        block = C[j:, :i]
        lhs = float(np.linalg.svd(block, compute_uv=False)[0]) if block.size else 0.0
        assert lhs <= dist / (lx[i - 1] - ly[j]) + 1e-9
