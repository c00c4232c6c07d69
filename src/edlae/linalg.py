"""Dense symmetric linear algebra kernel.

Positive-definite inversion and top-k symmetric eigendecomposition.  All
arithmetic is 64-bit; every routine is a pure function and safe to call
from multiple threads, except that ``sym_inverse`` and ``top_k_eig`` with
``overwrite_a=True`` reuse the caller's ``a`` as their workspace.  Checks
and copies over n x n matrices run in blocks of ``_BLOCK_ROWS`` rows, so
they need no n x n temporaries.
``scipy.linalg`` is imported by the routines that call LAPACK or BLAS, when
they run, so importing this module does not load scipy.

numpy and scipy each bundle their own OpenBLAS runtime, with its own thread
pool, and a pool's workers keep spinning for a while after each call.  A
LAPACK call made right after a numpy product therefore competes with numpy's
spinning workers: on a 2-core machine with 2 BLAS threads, ``sym_inverse``
at n = 1500 took 162 ms right after a numpy product and 91 ms right after
the same product in scipy (medians of 7).  ``_matmul`` runs a product in
scipy's runtime, so a chain of LAPACK calls and products stays in one pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite

_SYMMETRY_TOL = 1e-10
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class SymEigResult:
    """Top-k eigenpairs of a symmetric matrix.

    ``eigenvalues`` is sorted descending; ``eigenvectors`` has orthonormal
    columns, each with its first largest-magnitude component non-negative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_symmetric(a, name="matrix"):
    """``a`` as a float64 array after checking it is square, finite and
    symmetric within _SYMMETRY_TOL of its largest magnitude, a row block at
    a time."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    scale, asymmetry = 1.0, 0.0
    # One row block of differences, reused: the check's only temporary.
    diff = np.empty((min(_BLOCK_ROWS, a.shape[0]), a.shape[0]))
    for start in range(0, a.shape[0], _BLOCK_ROWS):
        rows = a[start:start + _BLOCK_ROWS]
        high, low = float(rows.max()), float(rows.min())  # NaN or inf if any entry is
        if not (np.isfinite(high) and np.isfinite(low)):
            raise ValueError(f"{name} contains non-finite values")
        scale = max(scale, high, -low)
        block = np.subtract(rows, a[:, start:start + _BLOCK_ROWS].T, out=diff[:len(rows)])
        asymmetry = max(asymmetry, float(block.max()), -float(block.min()))
    if asymmetry > _SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric within {_SYMMETRY_TOL:g}")
    return a


def _mirror_lower(a):
    """Copy the lower triangle of square ``a`` onto its upper one, in place:
    off-diagonal tiles of _BLOCK_ROWS x _BLOCK_ROWS whole, diagonal tiles a
    row at a time.  The source and destination of each copy occupy disjoint
    memory in a C- or Fortran-ordered ``a``, so numpy makes no temporary."""
    n = a.shape[0]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        for lo in range(0, start, _BLOCK_ROWS):
            a[lo:lo + _BLOCK_ROWS, start:stop] = a[start:stop, lo:lo + _BLOCK_ROWS].T
        for i in range(start, stop - 1):
            a[i, i + 1:stop] = a[i + 1:stop, i]
    return a


def _matmul(a, b):
    """``a @ b`` by scipy's BLAS ``?gemm``, the runtime that runs this
    module's LAPACK calls.

    The product is formed as numpy forms it for a C-ordered ``a`` and a
    Fortran-ordered ``b``, as ``(b^T a^T)^T`` with ``b`` transposed by gemm,
    so it needs no copy of either operand and, for those layouts, matched
    ``a @ b`` bit for bit with the OpenBLAS builds of numpy 2.4 and scipy
    1.17.  The result is C-ordered, like ``a @ b``.
    """
    import scipy.linalg  # here, not at the top: only the BLAS call needs scipy

    gemm, = scipy.linalg.blas.get_blas_funcs(("gemm",), (a, b))
    return gemm(1.0, b, a.T, trans_a=True).T


def _reverse_and_sign_columns(q):
    """``q[:, ::-1]`` in q's own storage: columns swapped pairwise in place,
    then each flipped so its first largest-magnitude component is
    non-negative, one column at a time, so no temporary is larger than a
    column."""
    k = q.shape[1]
    for j in range(k // 2):
        swap = q[:, j].copy()
        q[:, j] = q[:, k - 1 - j]
        q[:, k - 1 - j] = swap
    for column in q.T:
        if column[np.argmax(np.abs(column))] < 0.0:
            column *= -1.0
    return q


def _cholesky_rcond(work):
    """Factor the Fortran-ordered ``work`` in place by ``?potrf`` (upper
    triangle); return ``?pocon``'s reciprocal 1-norm condition number of the
    matrix it held, or 0.0 if a pivot is not positive.  The 1-norm
    (``?lange``) is taken first, with no copy."""
    import scipy.linalg  # here, not at the top: only the LAPACK calls need scipy

    lange, potrf, pocon = scipy.linalg.lapack.get_lapack_funcs(("lange", "potrf", "pocon"), (work,))
    norm = lange("1", work)
    info = potrf(work, lower=False, clean=False, overwrite_a=True)[1]
    return pocon(work, norm)[0] if info == 0 else 0.0


def sym_inverse(a: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Invert a symmetric positive-definite matrix via Cholesky: LAPACK
    ``?potrf`` factors its lower triangle and ``?potri`` inverts the factor.

    Raises NotPositiveDefinite when the reciprocal condition number
    (``_cholesky_rcond``) is below n * eps: rounding gives a numerically
    singular matrix a zero pivot or a tiny positive one, so the pivot alone
    cannot decide.  For regularized Gram matrices this signals that the
    ridge term is too small.  The result is exactly symmetric.  With
    ``overwrite_a`` a C-ordered float64 ``a`` is the workspace, so the
    inverse is returned in its storage and no n x n copy is made; otherwise
    ``a`` is left unchanged.
    """
    a = _require_symmetric(a)
    if a.shape[0] == 0:
        raise DimensionMismatch("cannot invert an empty matrix")
    # LAPACK works on Fortran-ordered arrays.  a.T is one for a C-ordered a,
    # and its upper triangle is a's lower one.
    work = a.T if overwrite_a and a.flags.c_contiguous else np.array(a.T, order="F")
    rcond, bound = _cholesky_rcond(work), a.shape[0] * np.finfo(np.float64).eps
    if not rcond >= bound:  # NaN included
        raise NotPositiveDefinite(
            f"matrix is not positive definite: reciprocal condition number {rcond:.3g} < n * eps "
            f"= {bound:.3g}; if this is a regularized Gram matrix, increase lambda")
    import scipy.linalg

    potri, = scipy.linalg.lapack.get_lapack_funcs(("potri",), (work,))
    return _mirror_lower(potri(work, lower=False, overwrite_c=True)[0].T)


def top_k_eig(a: np.ndarray, k: int, overwrite_a: bool = False) -> SymEigResult:
    """Return the k largest-eigenvalue pairs of a symmetric matrix.

    Only the requested pairs are computed (LAPACK ``?syevr`` through
    ``scipy.linalg.eigh``), which is backward stable, so every residual
    ``||A v - lambda v||_2`` is of the order of machine precision times
    ``||A||``.  Raises NoConvergence if LAPACK reports a failure.

    With ``overwrite_a`` the solver works in ``a``'s storage, which it
    destroys, instead of an n x n copy.  A C-ordered ``a`` is passed as its
    Fortran-ordered transpose, so for an exactly symmetric ``a`` LAPACK sees
    the same matrix and the result is bit-identical to the copying path.
    The eigenvectors are the solver's own (Fortran-ordered) output array,
    put in descending order and signed in place.
    """
    a = _require_symmetric(a)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k must be in [1, {n}], got {k}")
    work = a.T if overwrite_a and a.flags.c_contiguous else a
    import scipy.linalg  # here, not at the top: only the LAPACK calls need scipy

    try:
        vals, vecs = scipy.linalg.eigh(work, subset_by_index=(n - k, n - 1), check_finite=False,
                                       overwrite_a=overwrite_a)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    return SymEigResult(vals[::-1].copy(), _reverse_and_sign_columns(vecs))
