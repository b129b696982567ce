"""Symmetric spectral primitives with deterministic output conventions.

Everything downstream (bounds, estimators, the experiment harness) funnels
through this module, so the conventions here are load-bearing:

* eigendecompositions are bare ``(eigenvalues, basis)`` pairs, all n from
  :func:`eig_sym` or the top k from :func:`top_eigenpairs`;
* eigenvalues are always reported in descending algebraic order;
* eigenvectors are canonicalized (sign and tie order) so that repeated runs
  on identical input produce bit-identical decompositions;
* truncation keeps the top-k eigenpairs in algebraic order, which for
  indefinite input may discard large negative eigenvalues by design.

Top-k route policy
------------------
:func:`top_eigenpairs` picks its solver from ``(n, k)`` alone.  The
cut-offs come from timings on a 2-core host at n=2000 (the same order held
at n=4000):

* ``k <= ARPACK_MAX_K`` and ``n >= ARPACK_MIN_N`` (and
  ``k <= n * EVR_MAX_FRACTION``): implicitly restarted Lanczos (ARPACK)
  from a fixed start vector.  Its cost grows with k through the basis size
  and restarts: 0.16 / 0.30 / 0.86 s for k = 9 / 32 / 99, against about
  0.55 s for ``evr``.
* ``n < ARPACK_MIN_N``: the dense routes below, whatever k is.  ARPACK's
  fixed cost per call loses at small orders: at n=60 it takes 0.5-2.9 ms
  for k = 2..10 against 0.2-0.6 ms for ``evr``.  Measured with the pin
  below, the two are even at n=150 and ARPACK wins from n=200 (at k=5,
  2.3 against 2.9 ms), except where the kept eigenvalues sit inside a
  noise bulk (exponential decay c=0.5 plus noise, k=10), where ``evr``
  wins up to n=400.
* ``ARPACK_MAX_K < k <= n * EVR_MAX_FRACTION``: LAPACK's ``evr`` (MRRR)
  subset solver, the fastest in between.
* ``k > n * EVR_MAX_FRACTION``: full divide-and-conquer ``evd``, in place.
  Its cost barely depends on k, while ``evr`` slows as the kept block
  reaches into the clustered tail: 1.00 s against 1.16 s for ``evd`` at
  k=332, but 3.05 s against 1.09 s at k=999, so the crossover sits near
  k/n = 1/5.

Every route is deterministic for a fixed BLAS build and thread count, so
repeated calls agree bitwise.  The decay sweep reads only these k pairs of
each perturbed matrix, built in A's eigenbasis, and forms the dense residual
``V diag(lambda) V^T - diag(sigma)`` only where its trace identity would
cancel (``harness._truncation_error_F``).

Spectral norm
-------------
:func:`spectral_norm_sym` switches at the same order: below
``ARPACK_MIN_N`` it takes ``max |eigvalsh|``, from there on Lanczos for the
largest magnitude (``which="LM"``) in scipy's default Krylov basis of
``max(2k + 1, 20) = 20`` vectors.  Most norms a trial takes are of
truncation errors and low-rank differences (``A_hat_k - A``,
``A_hat_k - A_ref``), whose top magnitude is well separated: Lanczos
converges on them after 31 operator applications (21 on a rank-10
difference), where a 100-vector basis spends 101 before its first
convergence test.  A GOE draw's top magnitude sits at the edge of a
semicircle and takes 111-401 applications for n = 200..4000.  Per call,
2 BLAS threads, each order in a fresh process (ms)::

            truncation error            GOE draw
       n   default  ncv=100  dense    default  ncv=100  dense
     200       1.5      5.0    2.7        4.5      5.0    2.7
     400       1.9      6.9   10.8        7.8     11.6   11.8
     600       4.4     15.9   25.4       21.3     25.0   26.3
    2000                                  292      319    672
    4000                                 2407     1605

Dense wins on a GOE draw only at n = 200..250; the benchmark's workloads
take GOE norms at n = 500, 600 and 2000.  At n = 4000 this draw took 401
applications in the default basis and 251 in the larger one; an earlier
draw, with the products in numpy, had the two even (1823 against 1836 ms).

Lanczos products, on one scipy BLAS thread
------------------------------------------
Both ARPACK callers share :func:`_lanczos`: the start vector ``1/sqrt(n)``,
``tol=0``, the default basis, and an operator that applies scipy's BLAS
``dsymv`` to the upper triangle of ``A``.  ``dsymv`` moves half the bytes
of numpy's general product.  Per product through the operator, 2 BLAS
threads, a fresh process per order, the better of two runs: numpy's took
7.2 / 37.5 / 158 / 1035 / 5809 us at n = 200 / 400 / 600 / 2000 / 4000,
and ``dsymv`` on one thread 5.7 / 23.7 / 62.9 / 1030 / 5425 us.  When
``A`` maps the start vector exactly to zero (a zero matrix, or any matrix
whose rows sum to zero, such as a graph Laplacian) ARPACK cannot start;
one operator application (0.06 ms at n=600) shows this, and the caller
takes its dense route instead.

numpy and scipy each load their own OpenBLAS copy, and the whole Lanczos
loop runs in scipy's, which :func:`_lanczos` sets to one thread for the
call.  At 2 threads scipy's idle worker thread keeps spinning on one of
the 2 cores after each call, and numpy runs at half speed next to it: at
n=600 a top-5 solve took 76 ms unpinned against 42-51 ms pinned, and the
numpy QR at n=500 after it 80 ms against 26-28 ms.  Pinned, Lanczos output
is bit-identical at ``OPENBLAS_NUM_THREADS=1`` and ``=2``.  numpy's copy is
never touched, and the dense ``evr`` and ``evd`` routes keep scipy's thread
count: one thread makes them 1.6x slower at n=2000.

scipy is imported at the first solve that needs it (the package docstring
says what each command loads), and ``eigh`` and ``eigsh`` are looked up on
its modules at each call, so a wrapper patched onto a module is seen.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import descending_spectrum

__all__ = [
    "SpectrumStats",
    "eig_sym",
    "top_eigenpairs",
    "truncate",
    "spectral_norm_sym",
    "spectrum_stats",
    "principal_angle_sin",
    "spikeness",
    "require_symmetric",
]

#: absolute entrywise tolerance for accepting a matrix as symmetric
SYMMETRY_TOL = 1e-12

#: top_eigenpairs uses ARPACK up to this many eigenpairs (see module docs)
ARPACK_MAX_K = 64

#: top_eigenpairs uses ARPACK only from this order up (see module docs)
ARPACK_MIN_N = 200

#: top_eigenpairs switches to the full ``evd`` solver above this k/n
EVR_MAX_FRACTION = 0.2


def require_symmetric(A: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate that ``A`` is square, finite and symmetric; return it as float64.

    Symmetry is checked entrywise with absolute tolerance ``tol``.  An
    exactly symmetric float64 array is returned as it is, so a caller that
    overwrites the result must copy it first; any other input is averaged
    with its transpose, so later algebra never sees the sub-tolerance
    asymmetry.  The average is taken as ``A / 2 + A.T / 2``, which cannot
    overflow and gives the bits of ``(A + A.T) / 2`` for entries in the
    normal range.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    if np.array_equal(A, A.T):
        return A
    asym = np.max(np.abs(A - A.T))
    if asym > tol:
        raise ValueError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} exceeds {tol:.1e}"
        )
    return A / 2.0 + A.T / 2.0


@dataclass(frozen=True)
class SpectrumStats:
    """Scalar summaries of a descending spectrum relative to a cut at ``k``."""

    k: int
    tail_2: float
    tail_F: float
    head_F: float
    gap: float
    gamma_k: float
    stable_rank: float
    effective_rank: float


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Scale each column of ``V`` in place so that its largest-magnitude
    component (first such index on magnitude ties) is positive; return ``V``."""
    signs = np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V *= signs
    return V


def _canonicalize(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix eigenvector order within exact eigenvalue ties and normalize signs.

    Within each run of bitwise-equal eigenvalues, columns are ordered by the
    row index of their largest-magnitude component; every column's sign is
    then fixed by :func:`_fix_signs`.
    """
    n = w.shape[0]
    if n == 0:
        return w, V
    # stable reorder inside each maximal run of identical eigenvalues
    start = 0
    for stop in range(1, n + 1):
        if stop == n or w[stop] != w[start]:
            if stop - start > 1:
                anchor = np.argmax(np.abs(V[:, start:stop]), axis=0)
                V[:, start:stop] = V[:, start + np.argsort(anchor, kind="stable")]
            start = stop
    return w, _fix_signs(V)


def eig_sym(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    A : (n, n) array_like
        Symmetric with finite entries (validated; entrywise tolerance 1e-12).

    Returns
    -------
    eigenvalues : (n,) ndarray
        Descending algebraic order.
    basis : (n, n) ndarray
        Orthonormal eigenvectors, column i paired with ``eigenvalues[i]``,
        canonicalized so that identical input yields bit-identical output
        across runs.

    Notes
    -----
    Backed by LAPACK's symmetric solver; eigenvalues carry absolute error
    O(n * macheps * ||A||_2), far inside the 1e-10 * ||A||_2 envelope the
    rest of the package assumes.
    """
    A = require_symmetric(A)
    w, V = np.linalg.eigh(A)
    w = w[::-1].copy()
    V = V[:, ::-1].copy()
    return _canonicalize(w, V)


@functools.cache
def _scipy_openblas():
    """``(get, set)`` of the thread count of scipy's bundled OpenBLAS, or None.

    scipy and numpy each load their own OpenBLAS copy; the symbols are
    looked up through scipy's LAPACK extension, so numpy's copy (whose
    symbols carry a ``64_`` suffix) is never reached.
    """
    import ctypes

    import scipy.linalg

    try:
        lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
        get = lib.scipy_openblas_get_num_threads
        set_ = lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_scipy_blas_thread():
    """Run the block with scipy's OpenBLAS on one thread, then restore its count.

    Does nothing when scipy's BLAS does not export the thread-count symbols.
    """
    funcs = _scipy_openblas()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _lanczos(A: np.ndarray, k: int, which: str, return_eigenvectors: bool):
    """``eigsh`` of ``A`` as both ARPACK callers run it, or None if it cannot start.

    Lanczos starts from the fixed vector ``1/sqrt(n)`` and runs to machine
    precision (``tol=0``) in scipy's default Krylov basis, with scipy's BLAS
    on one thread.  Its operator is BLAS ``dsymv`` on the upper triangle of
    ``A``, handed over as the F-ordered view ``A.T`` (no copy for C-ordered
    ``A``).  When ``A`` maps the start vector exactly to zero (a zero
    matrix, or rows that sum to zero) ARPACK would stop with "Starting
    vector is zero"; None then tells the caller to take its dense route.
    """
    import scipy.sparse.linalg
    from scipy.linalg.blas import dsymv

    n = A.shape[0]
    At = np.asfortranarray(A.T)
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda x: dsymv(1.0, At, x, lower=1), dtype=np.float64
    )
    v0 = np.full(n, 1.0 / np.sqrt(n))
    with _one_scipy_blas_thread():
        if not np.any(op.matvec(v0)):
            return None
        return scipy.sparse.linalg.eigsh(
            op, k=k, which=which, v0=v0, tol=0, return_eigenvectors=return_eigenvectors
        )


def _top_k_route(n: int, k: int) -> str:
    """Solver that :func:`top_eigenpairs` uses for the top ``k`` of order ``n``."""
    if k > n * EVR_MAX_FRACTION:
        return "evd"
    if k <= ARPACK_MAX_K and n >= ARPACK_MIN_N:
        return "arpack"
    return "evr"


def top_eigenpairs(A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix, solver chosen from (n, k).

    Parameters
    ----------
    A : (n, n) float64 ndarray
        Exactly symmetric; this is not validated, and every route reads
        only the upper triangle.  ``A`` is used as workspace: its contents are
        undefined on return, so pass a copy to keep it.
    k : int
        Number of eigenpairs, ``1 <= k <= n``.

    Returns
    -------
    eigenvalues : (k,) ndarray
        The k algebraically largest eigenvalues, descending.
    basis : (n, k) ndarray
        Orthonormal eigenvectors, column i paired with ``eigenvalues[i]``,
        canonicalized as in :func:`eig_sym`.

    Notes
    -----
    The route policy and its measured cut-offs are in the module docstring.
    ARPACK runs to machine precision (``tol=0``) from the fixed start vector
    ``1/sqrt(n)``, with scipy's BLAS on one thread, and raises
    ``ArpackNoConvergence`` if it does not converge; a matrix that maps the
    start vector to zero takes the ``evr`` route instead.  The ``evd``
    route hands LAPACK the F-ordered view ``A.T``, which for symmetric ``A``
    is the same matrix, so it overwrites ``A`` instead of allocating a copy.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    import scipy.linalg

    route = _top_k_route(n, k)
    pairs = None
    if route == "arpack":
        pairs = _lanczos(A, k, "LA", return_eigenvectors=True)
    if pairs is not None:
        w, V = pairs
    elif route == "evd":
        w, V = scipy.linalg.eigh(A.T, overwrite_a=True, driver="evd", check_finite=False)
        w, V = w[n - k :], V[:, n - k :]
    else:
        w, V = scipy.linalg.eigh(
            A.T, subset_by_index=[n - k, n - 1], overwrite_a=True, check_finite=False
        )
    return _canonicalize(w[::-1].copy(), V[:, ::-1].copy())


def truncate(eigenvalues: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The matrix ``V diag(lambda) V^T`` of the eigenpairs kept.

    ``eigenvalues`` (k,) and ``basis`` (n, k) are the kept pairs, as
    :func:`top_eigenpairs` returns them or as leading slices of what
    :func:`eig_sym` returns; k = 0 gives the zero matrix.  The result
    is exactly symmetric.
    """
    k = eigenvalues.shape[0]
    if eigenvalues.ndim != 1 or basis.ndim != 2 or basis.shape[1] != k:
        raise ValueError(
            f"need k eigenvalues and an n-by-k basis, got shapes "
            f"{eigenvalues.shape} and {basis.shape}"
        )
    B = (basis * eigenvalues) @ basis.T
    return (B + B.T) / 2.0


def spectral_norm_sym(A: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix (largest eigenvalue magnitude).

    Reads only the upper triangle of ``A``.  Orders below ``ARPACK_MIN_N``
    use the dense eigenvalue solver; from there on a Lanczos iteration
    (``which="LM"``, scipy's default basis) run to machine precision from a
    fixed start vector, with scipy's BLAS on one thread, so repeated calls
    agree bitwise.  A matrix that annihilates the start vector takes the
    dense solver at any order.  The cut-off and its timings are in the
    module docstring.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if n == 0:
        return 0.0
    vals = None
    if n >= ARPACK_MIN_N:
        vals = _lanczos(A, 1, "LM", return_eigenvectors=False)
    if vals is None:
        vals = np.linalg.eigvalsh(A.T)  # A.T: the upper triangle, as Lanczos reads
    return float(np.max(np.abs(vals)))


def spectrum_stats(eigenvalues: np.ndarray, k: int) -> SpectrumStats:
    """Summaries of a descending spectrum split after position ``k``.

    Parameters
    ----------
    eigenvalues : (n,) array_like
        Finite and nonincreasing; the leading value must be positive.
        Intended for (numerically) positive semidefinite spectra -- tiny
        negative tail values are tolerated.
    k : int
        Cut position, ``1 <= k <= n - 1``.

    Returns
    -------
    SpectrumStats
        tail_2 = sigma_{k+1}; tail_F and head_F are the Frobenius masses of
        the discarded and kept parts; gap = sigma_k - sigma_{k+1};
        gamma_k = sigma_k / sigma_{k+1} (+inf when the tail vanishes);
        stable rank = ||.||_F^2 / sigma_1^2; effective rank = trace / sigma_1.
    """
    sig = descending_spectrum(eigenvalues, k)
    if sig[0] <= 0:
        raise ValueError("leading eigenvalue must be positive")
    head = sig[:k]
    tail = sig[k:]
    tail_2 = float(tail[0])
    if tail_2 > 0:
        gamma = float(sig[k - 1] / tail_2)
    else:
        gamma = float("inf")
    return SpectrumStats(
        k=k,
        tail_2=tail_2,
        tail_F=float(np.sqrt(np.sum(tail**2))),
        head_F=float(np.sqrt(np.sum(head**2))),
        gap=float(sig[k - 1] - tail[0]),
        gamma_k=gamma,
        stable_rank=float(np.sum(sig**2) / sig[0] ** 2),
        effective_rank=float(np.sum(sig) / sig[0]),
    )


def principal_angle_sin(U: np.ndarray, V: np.ndarray) -> float:
    """Sine of the largest principal angle from Range(U) into Range(V).

    Computed as ``|| (I - V V^T) U ||_2``; equals 0 when Range(U) is a
    subspace of Range(V) and 1 when some direction of U is orthogonal to V.
    Both inputs need orthonormal columns (validated to 1e-8). An empty U
    gives 0; an empty V gives 1 for nonempty U.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if U.ndim != 2 or V.ndim != 2 or U.shape[0] != V.shape[0]:
        raise ValueError("U and V must share the ambient dimension")
    for name, M in (("U", U), ("V", V)):
        if M.shape[1]:
            g = M.T @ M
            if np.max(np.abs(g - np.eye(M.shape[1]))) > 1e-8:
                raise ValueError(f"{name} does not have orthonormal columns")
    if U.shape[1] == 0:
        return 0.0
    R = U - V @ (V.T @ U)
    s = np.linalg.svd(R, compute_uv=False)
    return float(min(1.0, s[0]))


def spikeness(A: np.ndarray) -> float:
    """Coherence-style flatness measure ``n * ||A||_max / ||A||_F``.

    Equals 1 for perfectly flat matrices (all entries the same magnitude)
    and n when all mass sits in a single diagonal entry. Requires A != 0.
    """
    A = require_symmetric(A)
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(A, "fro"))
    if fro == 0.0:
        raise ValueError("spikeness is undefined for the zero matrix")
    n, top = A.shape[0], float(np.max(np.abs(A)))
    if math.isfinite(fro) and math.isfinite(n * top):
        return n * top / fro
    # ||A||_F or n * max|A| overflows near the top of the float range
    return n / float(np.linalg.norm(A / top, "fro"))
