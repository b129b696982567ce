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
:func:`top_eigenpairs` picks its solver from ``(n, k)`` alone.  Each
cut-off is a measured crossover; README "Measured decisions" lists where
each measurement lives.

* ``k <= ARPACK_MAX_K`` and ``n >= ARPACK_MIN_N`` (and
  ``k <= n * EVR_MAX_FRACTION``): implicitly restarted Lanczos (ARPACK),
  whose cost grows with k through its basis size and restarts.
* ``n < ARPACK_MIN_N``: the dense routes below, whatever k is, because
  ARPACK's fixed cost per call loses at small orders (BENCH_7
  ``arpack_min_n``).
* ``ARPACK_MAX_K < k <= n * EVR_MAX_FRACTION``: LAPACK's ``evr`` (MRRR)
  subset solver.
* ``k > n * EVR_MAX_FRACTION``: full divide-and-conquer ``evd``, in place,
  because its cost barely depends on k while ``evr`` slows as the kept
  block reaches into the clustered tail.

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
``max(2k + 1, 20) = 20`` vectors, because the norms a trial takes are mostly
of truncation errors, whose well separated top magnitude it finds in a few
dozen products (BENCH_8 and BENCH_13 ``norm_routes``).

Lanczos
-------
Both ARPACK callers share :func:`_lanczos`:

* the start vector is ``1/sqrt(n)``, so repeated calls agree bitwise;
* ``tol=0`` runs to machine precision, so the answer does not depend on
  when ARPACK stops;
* the operator applies scipy's BLAS ``dsymv`` to the upper triangle of
  ``A``, which moves half the bytes of a general product (BENCH_13
  ``per_product_us``);
* when ``A`` maps the start vector exactly to zero (a zero matrix, or any
  matrix whose rows sum to zero, such as a graph Laplacian) ARPACK cannot
  start, and the caller takes its dense route instead;
* scipy's OpenBLAS, in which the whole loop runs, is set to one thread for
  the call, because at 2 threads its idle worker keeps spinning and slows
  numpy's copy next to it (BENCH_7 ``scipy_blas_pin``, BENCH_13 ``pin``).
  Pinned, Lanczos output is bit-identical at ``OPENBLAS_NUM_THREADS=1``
  and ``=2``.  numpy's copy is never touched, and the dense ``evr`` and
  ``evd`` routes keep scipy's thread count.

scipy is imported at the first solve that needs it, so a command that never
solves does not pay for loading it (the package docstring says what each
command loads).  ``eigh`` and ``eigsh`` are looked up on its modules at each
call, so a wrapper patched onto a module is seen.
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
    "effective_rank",
    "principal_angle_sin",
    "spikeness",
    "require_symmetric",
    "symmetrize",
]

#: absolute entrywise tolerance for accepting a matrix as symmetric
SYMMETRY_TOL = 1e-12

#: top_eigenpairs uses ARPACK up to this many eigenpairs (see module docs)
ARPACK_MAX_K = 64

#: top_eigenpairs uses ARPACK only from this order up (see module docs)
ARPACK_MIN_N = 200

#: top_eigenpairs switches to the full ``evd`` solver above this k/n
EVR_MAX_FRACTION = 0.2

#: rows and columns of the blocks :func:`symmetrize` averages at a time
_SYM_BLOCK = 256


def require_symmetric(A: np.ndarray) -> np.ndarray:
    """Validate that ``A`` is square, finite and symmetric; return it as float64.

    Symmetry is checked entrywise with absolute tolerance ``SYMMETRY_TOL``.  An
    exactly symmetric float64 array is returned as it is, so a caller that
    overwrites the result must copy it first; any other input is averaged
    with its transpose by :func:`symmetrize` (on a copy), so later algebra
    never sees the sub-tolerance asymmetry.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    if np.array_equal(A, A.T):
        return A
    asym = np.max(np.abs(A - A.T))
    if asym > SYMMETRY_TOL:
        raise ValueError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} exceeds {SYMMETRY_TOL:.1e}"
        )
    return symmetrize(A.copy())


def symmetrize(B: np.ndarray) -> np.ndarray:
    """Overwrite the square float64 ``B`` with the average of each pair and return it.

    This is the one rule for averaging a symmetric pair, which ``io``'s
    ``sym n`` reader and :func:`require_symmetric` apply too: each entry is
    ``(b_ij + b_ji) / 2``, or ``b_ij/2 + b_ji/2`` where that sum overflows,
    so a pair of finite entries averages to a finite value.  The sum is
    symmetric in its terms, so a block and its mirror share one.  Works
    through pairs of ``_SYM_BLOCK``-square blocks, so it holds one block
    where the plain form holds two n-by-n temporaries, and from about
    n = 1000 up it is also the faster form (BENCH_23).  One sum over each
    block finds an overflow; a block without one allocates nothing more.
    """
    n = B.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n, _SYM_BLOCK):
            rows = slice(i, i + _SYM_BLOCK)
            for j in range(i, n, _SYM_BLOCK):
                cols = slice(j, j + _SYM_BLOCK)
                a, b = B[rows, cols], B[cols, rows].T
                t = a + b
                t /= 2.0
                if not np.isfinite(t.sum()):  # some pair's sum may have overflowed
                    t = np.where(np.isfinite(t), t, a / 2.0 + b / 2.0)
                B[rows, cols] = t
                B[cols, rows] = t.T
    return B


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
    The route policy is in the module docstring.
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
    return symmetrize((basis * eigenvalues) @ basis.T)


def spectral_norm_sym(A: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix (largest eigenvalue magnitude).

    Reads only the upper triangle of ``A``.  Orders below ``ARPACK_MIN_N``
    use the dense eigenvalue solver; from there on a Lanczos iteration
    (``which="LM"``, scipy's default basis) run to machine precision from a
    fixed start vector, with scipy's BLAS on one thread, so repeated calls
    agree bitwise.  A matrix that annihilates the start vector takes the
    dense solver at any order.  The module docstring gives the cut-off.
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


_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max


def _normal(v) -> bool:
    """Whether ``v`` is a positive normal float (not 0, subnormal, inf or nan)."""
    return _TINY <= v <= _HUGE


def _root_sum_sq(x: np.ndarray) -> float:
    """sqrt(sum(x**2)), rescaled by max|x| when the plain sum leaves the normal range."""
    with np.errstate(over="ignore"):
        s = np.sum(x**2)
    if _normal(s) or not np.any(x):
        return float(np.sqrt(s))
    top = np.max(np.abs(x))
    return float(top * np.sqrt(np.sum((x / top) ** 2)))


def _frobenius(M: np.ndarray) -> float:
    """||M||_F: the plain norm where it is finite, else max|M| * ||M / max|M|||_F.

    The one Frobenius norm of an error or a matrix that the harness and
    proofcheck report, so a matrix near the top of the float range gives a
    finite norm wherever the true one is finite.
    """
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(M, "fro"))
    if math.isfinite(fro):
        return fro
    top = float(np.max(np.abs(M)))
    return top * float(np.linalg.norm(M / top, "fro"))


def effective_rank(sig: np.ndarray) -> float:
    """trace / sigma_1 of a descending spectrum with sigma_1 > 0.

    The sum is taken over the spectrum scaled by sigma_1 only when the plain
    sum overflows or falls below the normal float range.
    """
    with np.errstate(over="ignore"):
        total = np.sum(sig)
    if np.isfinite(total) and not 0 < abs(total) < _TINY:
        return float(total / sig[0])
    return float(np.sum(sig / sig[0]))


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
        gamma_k = sigma_k / sigma_{k+1} (+inf when the tail vanishes or the
        ratio overflows);
        stable rank = ||.||_F^2 / sigma_1^2; effective rank = trace / sigma_1.
        The masses, the stable rank and the effective rank are computed from
        the spectrum scaled by its largest value when the plain sums would
        overflow or fall below the normal float range.
    """
    sig = descending_spectrum(eigenvalues, k)
    if sig[0] <= 0:
        raise ValueError("leading eigenvalue must be positive")
    head = sig[:k]
    tail = sig[k:]
    tail_2 = float(tail[0])
    # a Python quotient overflows to inf without a warning
    gamma = float(sig[k - 1]) / tail_2 if tail_2 > 0 else math.inf
    with np.errstate(over="ignore"):
        mass, top2 = np.sum(sig**2), sig[0] ** 2
    if _normal(mass) and _normal(top2):
        stable_rank = float(mass / top2)
    else:  # sigma_1^2 or the mass over- or underflows near the ends of the float range
        stable_rank = float(np.sum((sig / sig[0]) ** 2))
    return SpectrumStats(
        k=k,
        tail_2=tail_2,
        tail_F=_root_sum_sq(tail),
        head_F=_root_sum_sq(head),
        gap=float(sig[k - 1] - tail[0]),
        gamma_k=gamma,
        stable_rank=stable_rank,
        effective_rank=effective_rank(sig),
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
