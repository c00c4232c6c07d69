"""Dense symmetric linear algebra kernel.

Positive-definite inversion, top-k symmetric eigendecomposition, and a dense
SVD oracle used by the verification suites.  All arithmetic is 64-bit; every
routine is a pure function and safe to call from multiple threads, except
that ``sym_inverse`` and ``top_k_eig`` with ``overwrite_a=True`` reuse the
caller's ``a`` as their workspace.  Checks and copies over n x n matrices
run in blocks of ``_BLOCK_ROWS`` rows, so they need no n x n temporaries.
``scipy.linalg`` is imported by the two routines that call LAPACK, when they
run, so importing this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite, OracleCapExceeded

# dense_svd is a verification oracle, not a production path; refuse instances
# whose smaller dimension exceeds this cap.  Module-level so callers can
# raise it deliberately.
SVD_ORACLE_CAP = 512

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


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``M = left @ diag(singular) @ right.T``, singular descending."""

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


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
    """Copy the lower triangle of square ``a`` onto its upper one, in place,
    a column block at a time."""
    n = a.shape[0]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        a[:start, start:stop] = a[start:stop, :start].T
        block = a[start:stop, start:stop]
        upper = np.triu_indices(stop - start, 1)
        block[upper] = block.T[upper]
    return a


def _fix_column_signs(q):
    """Flip columns so the first largest-magnitude component is non-negative."""
    if q.shape[1] == 0:
        return q
    lead = np.argmax(np.abs(q), axis=0)
    flip = q[lead, np.arange(q.shape[1])] < 0.0
    q[:, flip] *= -1.0
    return q


def sym_inverse(a: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Invert a symmetric positive-definite matrix via Cholesky: LAPACK
    ``?potrf`` factors its lower triangle and ``?potri`` inverts the factor.

    Raises NotPositiveDefinite when the factorization fails, which for
    regularized Gram matrices signals that the ridge term is too small.
    The result is exactly symmetric.  With ``overwrite_a`` a C-ordered
    float64 ``a`` is the workspace, so the inverse is returned in its
    storage and no n x n copy is made; otherwise ``a`` is left unchanged.
    """
    a = _require_symmetric(a)
    if a.shape[0] == 0:
        raise DimensionMismatch("cannot invert an empty matrix")
    # LAPACK works on Fortran-ordered arrays.  a.T is one for a C-ordered a,
    # and its upper triangle is a's lower one.
    work = a.T if overwrite_a and a.flags.c_contiguous else np.array(a.T, order="F")
    import scipy.linalg  # here, not at the top: only the LAPACK calls need scipy

    potrf, potri = scipy.linalg.lapack.get_lapack_funcs(("potrf", "potri"), (work,))
    factor, info = potrf(work, lower=False, clean=False, overwrite_a=True)
    if info == 0:
        work, info = potri(factor, lower=False, overwrite_c=True)
    if info != 0:
        raise NotPositiveDefinite(
            "symmetric factorization failed: matrix is not positive definite; "
            "if this is a regularized Gram matrix, increase lambda"
        )
    return _mirror_lower(work.T)


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
    return SymEigResult(vals[::-1].copy(), _fix_column_signs(vecs[:, ::-1].copy()))


def dense_svd(m: np.ndarray, cap: int | None = None) -> SvdResult:
    """Thin SVD of a dense matrix; verification oracle for small instances.

    Raises OracleCapExceeded when min(m, n) is above the cap (default
    SVD_ORACLE_CAP).
    """
    m = _as_matrix(m)
    cap = SVD_ORACLE_CAP if cap is None else cap
    if min(m.shape) > cap:
        raise OracleCapExceeded(
            f"dense_svd called on {m.shape[0]}x{m.shape[1]} instance, cap is {cap}"
        )
    left, singular, right_t = np.linalg.svd(m, full_matrices=False)
    right = right_t.T.copy()
    # Deterministic sign choice keyed on the right vectors; flip pairs so the
    # reconstruction is unchanged.
    lead = np.argmax(np.abs(right), axis=0)
    flip = right[lead, np.arange(right.shape[1])] < 0.0
    right[:, flip] *= -1.0
    left = left.copy()
    left[:, flip] *= -1.0
    return SvdResult(left, singular, right)


def truncate_svd(s: SvdResult, k: int) -> np.ndarray:
    """Best rank-k Frobenius approximation assembled from a thin SVD."""
    r = s.singular.shape[0]
    if not 0 <= k <= r:
        raise DimensionMismatch(f"k must be in [0, {r}], got {k}")
    return (s.left[:, :k] * s.singular[:k]) @ s.right[:, :k].T
