"""Dense symmetric linear algebra kernel.

Positive-definite inversion and top-k symmetric eigendecomposition.  All
arithmetic is 64-bit; every routine is a pure function and safe to call
from multiple threads, except that ``sym_inverse`` and ``top_k_eig`` with
``overwrite_a=True`` reuse a C-ordered float64 ``a`` as their workspace.
Both hand LAPACK ``a.T`` in Fortran order, as a view or a copy, so each
reads one triangle of ``a`` on every path (``sym_inverse`` the lower,
``top_k_eig`` the upper) and overwriting matches copying bit for bit.
Checks and copies over n x n matrices run in blocks of ``_BLOCK_ROWS`` rows,
so they need no n x n temporaries.
``scipy.linalg`` is imported by the routines that call LAPACK or BLAS, when
they run, so importing this module does not load scipy.

``top_k_eig`` finds the top k eigenpairs one way, by subset MRRR: it calls
``dsytrd``, ``dstemr`` and ``dormtr`` through the function pointers that
``scipy.linalg.cython_lapack`` exports in ``__pyx_capi__``, by ``ctypes``
(``_lapack``), and not through scipy's f2py wrappers: ``lapack.dstemr``
allocates and zero-fills an n x n eigenvector array whatever the number of
pairs asked for, and scipy wraps no ``dormtr`` (``dormqr`` on the
reflectors' sub-block copies them).  Called through the pointers, the
routines write into arrays this module allocates, one n x k array for the
eigenvectors, and run in scipy's OpenBLAS runtime like every other LAPACK
call here.

numpy and scipy each bundle their own OpenBLAS runtime, with its own thread
pool, and a pool's workers keep spinning for a while after each call.  A
LAPACK call made right after a numpy product therefore competes with numpy's
spinning workers: on a 2-core machine with 2 BLAS threads, ``sym_inverse``
at n = 1500 took 162 ms right after a numpy product and 91 ms right after
the same product in scipy (medians of 7).  ``_matmul`` runs a product in
scipy's runtime, so a chain of LAPACK calls and products stays in one pool.
"""

from __future__ import annotations

import functools
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
    work = a.T if overwrite_a and a.flags.c_contiguous else np.array(a.T, order="F")
    rcond, bound = _cholesky_rcond(work), a.shape[0] * np.finfo(np.float64).eps
    if not rcond >= bound:  # NaN included
        raise NotPositiveDefinite(
            f"matrix is not positive definite: reciprocal condition number {rcond:.3g} < n * eps "
            f"= {bound:.3g}; if this is a regularized Gram matrix, increase lambda")
    import scipy.linalg

    potri, = scipy.linalg.lapack.get_lapack_funcs(("potri",), (work,))
    return _mirror_lower(potri(work, lower=False, overwrite_c=True)[0].T)


@functools.cache
def _lapack_function(name):
    """scipy's LAPACK routine ``name`` as a ctypes function of pointers, made
    from the function pointer that ``scipy.linalg.cython_lapack`` exports in
    a capsule.  The capsule's name is the routine's C signature, in which
    every argument is a pointer, so its ``*`` count is the argument count."""
    import ctypes

    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    signature = get_name(capsule)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * signature.count(b"*"))(
        get_pointer(capsule, signature))


def _lapack(name, *args):
    """Call LAPACK's ``name`` with ``args`` and its ``info`` last, every
    argument by reference as Fortran takes it: arrays as they are, and bytes,
    float and integer scalars as one-element character, double and C int
    arrays.  Raises NoConvergence naming the routine if ``info`` is not 0."""
    arrays = [arg if isinstance(arg, np.ndarray) else
              np.array(arg, dtype="S1" if isinstance(arg, bytes) else
                       np.float64 if isinstance(arg, float) else np.intc)
              for arg in args]
    info = np.zeros((), dtype=np.intc)
    _lapack_function(name)(*[array.ctypes.data for array in arrays], info.ctypes.data)
    if info != 0:
        raise NoConvergence(f"LAPACK {name} failed: info = {int(info)}")


def _top_k_mrrr(work, k):
    """The k largest eigenpairs of the Fortran-ordered ``work``, ascending,
    by MRRR, with ``work``'s lower triangle as the matrix, destroyed:
    ``dsytrd`` reduces it in place to tridiagonal T = Q^T A Q, ``dstemr``
    computes T's eigenpairs n-k+1..n by index into one n x k array, and
    ``dormtr`` turns them into A's in place by applying Q.  ``dstemr`` gets
    LAPACK's documented workspace, 18n doubles and 10n ints; the others'
    depend on the block size and are queried.  Every workspace is freed
    before the next routine runs."""
    n = work.shape[0]
    d, e, tau = np.empty(n), np.empty(n), np.empty(n)  # dstemr uses e[n - 1] as workspace
    query = np.empty(1)
    _lapack("dsytrd", b"L", n, work, n, d, e, tau, query, -1)
    _lapack("dsytrd", b"L", n, work, n, d, e, tau, np.empty(int(query[0])), int(query[0]))

    w, vecs = np.empty(n), np.empty((n, k), order="F")
    found, tryrac = np.zeros((), dtype=np.intc), np.ones((), dtype=np.intc)
    _lapack("dstemr", b"V", b"I", n, d, e, 0.0, 0.0, n - k + 1, n, found, w, vecs, n, k,
            np.empty(2 * k, dtype=np.intc), tryrac, np.empty(18 * n), 18 * n,
            np.empty(10 * n, dtype=np.intc), 10 * n)
    if found != k:
        raise NoConvergence(f"LAPACK dstemr found {int(found)} of {k} eigenpairs: info = 0")

    back = (b"L", b"L", b"N", n, k, work, n, tau, vecs, n)
    _lapack("dormtr", *back, query, -1)
    # dormtr's query leaves out the 65 x 64 block-reflector factor that the
    # dormqr it calls keeps in the same workspace.  Short of it, dormqr
    # shrinks its block size, and at OpenBLAS's 32 runs unblocked up to
    # k = 130: 71 against 12 ms at k = 64 and n = 1500.
    lwork = int(query[0]) + 65 * 64
    _lapack("dormtr", *back, np.empty(lwork), lwork)
    return w[:k], vecs


def top_k_eig(a: np.ndarray, k: int, overwrite_a: bool = False) -> SymEigResult:
    """Return the k largest-eigenvalue pairs of a symmetric matrix.

    Only the requested pairs are computed, by a backward stable method, so
    every residual ``||A v - lambda v||_2`` is of the order of machine
    precision times ``||A||``.  Raises NoConvergence if LAPACK reports a
    failure.

    One method at every k (``_top_k_mrrr``): ``?sytrd`` reduces A to
    tridiagonal form T = Q^T A Q, MRRR (``?stemr``) finds T's top k pairs by
    index, and ``?ormtr`` applies Q to them in place.  MRRR needs no
    re-orthogonalization inside clusters of close eigenvalues, where the
    bisection and inverse iteration (``?stebz`` + ``?stein``) that LAPACK's
    subset drivers run instead do more work as k grows.  On the student
    Grams of 600, 1000 and 1500 items MRRR was the faster of the two at
    every k from 16 to 384: 3% less time at k = 16 and n = 1500, 31% to 51%
    less at k = 384.

    With ``overwrite_a`` a C-ordered float64 ``a`` is the solver's
    workspace, which it destroys, instead of an n x n copy; otherwise ``a``
    is left unchanged.  Either way LAPACK reads ``a``'s upper triangle, so
    the result is bit-identical to the copying path.
    The eigenvectors are the solver's own (Fortran-ordered) n x k output
    array, put in descending order and signed in place.
    """
    a = _require_symmetric(a)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k must be in [1, {n}], got {k}")
    work = a.T if overwrite_a and a.flags.c_contiguous else np.array(a.T, order="F")
    vals, vecs = _top_k_mrrr(work, k)
    return SymEigResult(vals[::-1].copy(), _reverse_and_sign_columns(vecs))
