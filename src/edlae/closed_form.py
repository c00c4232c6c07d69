"""Closed-form training of low-rank linear autoencoders from the Gram matrix.

Both model families are one teacher-student pipeline over the item-item Gram
matrix G = X^T X, with C = (G + Lambda)^-1:

1. Teacher: the full-rank least-squares optimum B = I - C S for a diagonal
   column scale S that is the only thing the families disagree on:
   - edlae (the denoising model) constrains diag B to zero, which gives
     S = diagM(1 / diag C) and stops the model from scoring an item by its
     own presence;
   - ridge (the unconstrained baseline) leaves it free, which gives
     S = Lambda, so B = C G.
2. Student: the best rank-k factorization of the teacher's predictions,
   V = top-k eigenvectors Q of the student Gram M = B^T (G + Lambda) B and
   U = B @ Q.  For edlae the diagonal of U V^T is left free, which makes the
   projection a (highly accurate) approximation rather than exact.

With C (G + Lambda) = I, M = (I - S C)(G + Lambda)(I - C S) =
G + Lambda - 2S + S C S for either family, built from C and G alone.  Since
C S = I - B, M = (G + Lambda) - S (I + B), so with M V = V diag(lambda_j)
for the top eigenpairs, U = B V = S^-1 (G V + Lambda V - V diag(lambda_j)) - V.
So edlae's chain never holds its teacher: C -> M (in C's storage when C is
no longer needed) -> top-k eigenpairs (in M's storage) -> U from one
product G V.  Ridge's S = Lambda is 0 at lambda = p = 0, so ridge keeps
B = I - C Lambda, in C's storage, and U = B V.  ``full_rank_teacher``
returns B itself, for the checks and tests; every model is a
``LowRankModel``.

``train_regularized(g, lam_diag, kinds, k)`` composes the chain once per
regularizer diagonal: one C, then each family's student Gram and
projection.  ``train_grid`` calls it once per (lambda, p), and
``baselines.ridge_low_rank`` at an explicit Lambda.  The grid shares work:
C depends only on (lambda, p), so one inverse serves both families, and the
leading eigenvectors of M do not depend on k, so one top-max(k)
eigendecomposition per family serves every rank as column slices of V and
U.  The last family builds its student Gram (edlae) or teacher (ridge) in
C's storage, and the eigensolver works in the student Gram's storage.

numpy and scipy bundle separate OpenBLAS runtimes whose thread pools slow
each other when calls alternate between them (see ``linalg``).  The chain's
BLAS work, the inverse, the eigensolver and the product that forms U, all
runs in scipy's; callers that score or evaluate models with numpy products
do best to do so after the grid is trained, as ``edlae train`` does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDropout, NoConvergence, NotPositiveDefinite
from .linalg import _BLOCK_ROWS, _matmul, sym_inverse, top_k_eig

# The family table: whether a family constrains (and its objective removes)
# the model's diagonal.  Everything else follows from it.
ZERO_DIAGONAL = {"edlae": True, "ridge": False}


def _zero_diagonal(kind):
    """ZERO_DIAGONAL[kind], the one read of the family table; an unknown
    family raises ValueError before any O(n^2) work."""
    if kind not in ZERO_DIAGONAL:
        raise ValueError(f"kinds must be one or more of {list(ZERO_DIAGONAL)}, got {[kind]}")
    return ZERO_DIAGONAL[kind]


def _check_kinds_and_ranks(kinds, ks, n):
    """Reject an empty ``kinds``, an unknown family, an empty ``ks`` and any
    rank outside [1, n]: the checks a trainer makes before it factorizes."""
    if not (len(kinds) and set(kinds) <= ZERO_DIAGONAL.keys()):
        raise ValueError(f"kinds must be one or more of {list(ZERO_DIAGONAL)}, got {list(kinds)}")
    if not 1 <= min(ks, default=0) <= max(ks, default=0) <= n:
        raise DimensionMismatch(f"ks must be ranks in [1, {n}], got {list(ks)}")


def _check_lam(lam):
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and non-negative, got {lam}")


def _check_p(p):
    if not 0.0 <= p < 1.0:
        raise InvalidDropout(f"dropout_p must be in [0, 1), got {p}")


@dataclass(frozen=True)
class EdlaeConfig:
    """Hyperparameters (lambda, p) of one training run; the rank is not one."""

    lam: float
    dropout_p: float

    def __post_init__(self):
        _check_p(self.dropout_p)
        _check_lam(self.lam)


@dataclass(frozen=True)
class LowRankModel:
    """Rank-k factor pair; predictions are x @ u @ v.T per user row x.  The
    rank k is read off the factors."""

    u: np.ndarray
    v: np.ndarray
    config: EdlaeConfig | None = None
    kind: str = "edlae"

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    def matrix(self) -> np.ndarray:
        return self.u @ self.v.T


def regularizer(gram_diag: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Per-item ridge diagonal lam + (p / (1 - p)) * diag(G).

    The dropout-derived term scales with each item's popularity; at p = 0 it
    collapses to a uniform ridge.
    """
    _check_p(p)
    _check_lam(lam)
    gram_diag = np.asarray(gram_diag, dtype=np.float64)
    if gram_diag.ndim != 1:
        raise DimensionMismatch("gram_diag must be 1-d")
    if gram_diag.size and gram_diag.min() < 0:
        raise ValueError("gram_diag must be non-negative")
    return lam + (p / (1.0 - p)) * gram_diag


def _check_square_match(g, lam_diag):
    g = np.asarray(g, dtype=np.float64)
    lam_diag = np.asarray(lam_diag, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"Gram matrix must be square, got shape {g.shape}")
    if lam_diag.shape != (g.shape[0],):
        raise DimensionMismatch(
            f"regularizer diagonal has length {lam_diag.shape}, expected {g.shape[0]}"
        )
    return g, lam_diag


def _regularized_inverse(g, lam_diag):
    """C = (G + Lambda)^-1 of an already checked G and Lambda: G + Lambda is
    formed, factorized and inverted in one new buffer.  Raises
    NotPositiveDefinite as ``sym_inverse`` does."""
    zz = g.copy()
    zz.flat[:: g.shape[0] + 1] += lam_diag
    return sym_inverse(zz, overwrite_a=True)


def _scale(c, lam_diag, zero_diagonal):
    """diag S: 1 / diag C for the zero-diagonal family, Lambda for ridge."""
    return 1.0 / np.diag(c) if zero_diagonal else lam_diag


def _teacher(c, scale, zero_diagonal, overwrite_c):
    """Full-rank teacher B = I - C S, for diag S ``scale``, from the inverse
    C = (G + Lambda)^-1.  With ``overwrite_c`` B is built in C's storage, so
    C is no longer available to the caller."""
    diagonal = 0.0 if zero_diagonal else 1.0 - np.diag(c) * scale
    b = np.multiply(c, -scale[None, :], out=c if overwrite_c else None)
    np.fill_diagonal(b, diagonal)
    return b


def full_rank_teacher(g: np.ndarray, lam_diag: np.ndarray, kind: str = "edlae") -> np.ndarray:
    """Exact full-rank optimum B of family ``kind`` (a key of ZERO_DIAGONAL),
    built in the storage of a new C.  Raises NotPositiveDefinite as
    ``sym_inverse`` does."""
    zero_diagonal = _zero_diagonal(kind)
    g, lam_diag = _check_square_match(g, lam_diag)
    c = _regularized_inverse(g, lam_diag)
    return _teacher(c, _scale(c, lam_diag, zero_diagonal), zero_diagonal, overwrite_c=True)


@dataclass(frozen=True)
class StudentGram:
    """Student Gram M = B^T (G + Lambda) B = G + Lambda - 2S + S C S of
    family ``kind``'s teacher B = I - C S, with what its projection needs:
    ``scale`` (diag S), G and Lambda, and, for ridge only, the teacher B
    itself."""

    m: np.ndarray
    scale: np.ndarray
    kind: str
    g: np.ndarray
    lam_diag: np.ndarray
    teacher: np.ndarray | None = None


def student_gram(c: np.ndarray, g: np.ndarray, lam_diag: np.ndarray, kind: str = "edlae",
                 overwrite_c: bool = False) -> StudentGram:
    """Regularized Gram of the teacher's predictions, B^T (G + Lambda) B, from
    the inverse C = (G + Lambda)^-1 of family ``kind``.

    Built straight from C as G + Lambda - 2S + S C S, a row block at a time:
    C[rows] * (s[rows] s^T) + G[rows], then Lambda - 2S on the diagonal.
    s_i s_j is s_j s_i in floating point, and C and G are exactly symmetric,
    so M is too.  The family enters only through S.  The zero-diagonal
    family never forms B: M is built in one new buffer, or in C's storage
    with ``overwrite_c``.  Ridge keeps B for its projection
    (``_teacher_times``): M is built in a new buffer first, then B in C's
    storage with ``overwrite_c``.
    """
    zero_diagonal = _zero_diagonal(kind)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != np.shape(c):
        raise DimensionMismatch(f"inverse has shape {np.shape(c)}, Gram has {g.shape}")
    c, lam_diag = _check_square_match(c, lam_diag)
    scale = _scale(c, lam_diag, zero_diagonal)
    m = c if overwrite_c and zero_diagonal else np.empty(c.shape)
    for start in range(0, len(m), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        np.multiply(c[rows], scale[rows, None] * scale, out=m[rows])
        m[rows] += g[rows]
    m.flat[:: len(m) + 1] += lam_diag - 2.0 * scale
    teacher = None if zero_diagonal else _teacher(c, scale, False, overwrite_c)
    return StudentGram(m=m, scale=scale, kind=kind, g=g, lam_diag=lam_diag, teacher=teacher)


def _teacher_times(student: StudentGram, eig) -> np.ndarray:
    """U = B V for the top eigenpairs ``eig`` = (lambda_j, V) of the student
    Gram, formed in scipy's BLAS runtime (``linalg._matmul``).

    Ridge multiplies by its teacher.  The zero-diagonal family does without
    B: the closed form M = (G + Lambda) - S (I + B) gives
    B = S^-1 (G + Lambda - M) - I, and M V = V diag(lambda_j), so
    U = S^-1 (G V + Lambda V - V diag(lambda_j)) - V, one product G V and
    then O(n k) work a row block at a time.  Ridge cannot take that route:
    its S = Lambda is 0 at lambda = p = 0.
    """
    v = eig.eigenvectors
    if student.teacher is not None:
        return _matmul(student.teacher, v)
    u = _matmul(student.g, v)
    for start in range(0, u.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block, v_rows = u[rows], v[rows]
        block += student.lam_diag[rows, None] * v_rows
        block -= v_rows * eig.eigenvalues
        block /= student.scale[rows, None]
        block -= v_rows
    return u


def student_projection(student: StudentGram, k: int, overwrite_m: bool = False) -> LowRankModel:
    """Project the teacher onto rank k: V = top-k eigenvectors of the student
    Gram, U = B @ V (``_teacher_times``), so U V^T = B Q_k Q_k^T.  With
    ``overwrite_m`` the eigensolver works in the student Gram's storage and
    destroys it; ``top_k_eig`` rejects a k outside [1, n]."""
    eig = top_k_eig(student.m, k, overwrite_a=overwrite_m)
    return LowRankModel(u=_teacher_times(student, eig), v=eig.eigenvectors, kind=student.kind)


def train_regularized(g: np.ndarray, lam_diag: np.ndarray, kinds, k: int) -> list[LowRankModel]:
    """Rank-k models, with no config, of the families ``kinds`` for one
    regularizer diagonal Lambda: the one place the chain is composed.
    ``kinds`` and k are checked first.  One C = (G + Lambda)^-1 serves every
    family, and the last builds its student Gram or teacher in C's storage.
    Raises NotPositiveDefinite as ``sym_inverse`` does."""
    g, lam_diag = _check_square_match(g, lam_diag)
    _check_kinds_and_ranks(kinds, [k], len(g))
    c = _regularized_inverse(g, lam_diag)
    return [student_projection(student_gram(c, g, lam_diag, kind,
                                            overwrite_c=ki == len(kinds) - 1), k,
                               overwrite_m=True)
            for ki, kind in enumerate(kinds)]


def train_closed_form(g: np.ndarray, cfg: EdlaeConfig, k: int, kind: str = "edlae") -> LowRankModel:
    """Train a rank-k model of family ``kind`` from the Gram matrix alone:
    the one-point case of ``train_grid``, with ``cfg`` attached.  Raw
    interactions are never needed past the Gram matrix.
    """
    (model,) = train_grid(g, [kind], [k], [cfg.lam], [cfg.dropout_p])
    return model


def train_grid(g: np.ndarray, kinds, ks, lambdas, ps) -> list[LowRankModel]:
    """Train every model of the grid kinds x ks x lambdas x ps.

    Returns the models in that order, kind varying slowest and p fastest,
    which is the order of ``edlae train``'s log; the grid is checked first,
    and an empty axis is an error.  Each (lambda, p) is one ``EdlaeConfig``,
    shared by its models, and one ``train_regularized`` call at rank
    max(ks), which factorizes G + Lambda once and takes one
    eigendecomposition per kind.  A rank-k model holds copies of the first k
    columns of its U and V, equal to ``train_closed_form``'s up to rounding
    and bit for bit at k = max(ks).  All n x n buffers of one (lambda, p)
    are freed, and its models sliced, before the next G + Lambda is
    factorized.  An error of one (lambda, p)'s chain (NotPositiveDefinite,
    NoConvergence or ValueError) is raised again as its type, prefixed with
    ``lambda = ..., p = ...: ``.
    """
    g = np.asarray(g, dtype=np.float64)
    _check_kinds_and_ranks(kinds, ks, len(g))
    if not (len(lambdas) and len(ps)):
        raise ValueError(f"lambdas and ps must each hold one or more values, got "
                         f"{list(lambdas)} and {list(ps)}")
    configs = [EdlaeConfig(lam=lam, dropout_p=p) for lam, p in itertools.product(lambdas, ps)]
    g_diag = np.diag(g).copy()
    points = []  # per (lambda, p), in lambda -> p order: its models, kind -> k
    for cfg in configs:
        lam_diag = regularizer(g_diag, cfg.lam, cfg.dropout_p)
        try:
            points.append([LowRankModel(u=full.u[:, :k].copy(), v=full.v[:, :k].copy(),
                                        config=cfg, kind=full.kind)
                           for full in train_regularized(g, lam_diag, kinds, max(ks))
                           for k in ks])
        except (NotPositiveDefinite, NoConvergence, ValueError) as exc:
            raise type(exc)(f"lambda = {cfg.lam:g}, p = {cfg.dropout_p:g}: {exc}") from exc
    return [model for same_kind_and_k in zip(*points) for model in same_kind_and_k]


def edlae_objective(x: np.ndarray, lam_diag: np.ndarray, model: LowRankModel) -> float:
    """Exact training objective of the model's family:

        || X - X D ||_F^2 + || Lambda^(1/2) D ||_F^2

    where D is U V^T of the ``LowRankModel`` with its diagonal removed for
    the zero-diagonal family and kept for ridge.  X is a dense array
    (``InteractionMatrix.to_dense()`` gives one).
    """
    zero_diagonal = _zero_diagonal(model.kind)
    x = np.asarray(x, dtype=np.float64)
    lam_diag = np.asarray(lam_diag, dtype=np.float64)
    n, d = x.shape[1], model.matrix()
    if d.shape != (n, n) or lam_diag.shape != (n,):
        raise DimensionMismatch(
            f"inconsistent shapes: {n} items, model {d.shape}, Lambda {lam_diag.shape}"
        )
    if zero_diagonal:
        d = d - np.diag(np.diag(d))
    resid = x - x @ d
    penalty = np.sqrt(lam_diag)[:, None] * d
    return float(np.sum(resid * resid) + np.sum(penalty * penalty))


def objective_from_gram(g: np.ndarray, lam_diag: np.ndarray, model: LowRankModel) -> float:
    """Same objective evaluated from the Gram matrix (no raw X needed):

        tr(G) - 2 tr(G D) + tr(D^T Z D),  Z = G + Lambda,

    from the factors of the ``LowRankModel``'s D = U V^T - delta diagM(w),
    w = diag(U V^T), where delta is 1 for the zero-diagonal family and 0 for
    ridge, in O(n^2 k):

        tr(G D)       = sum((G U) * V) - delta sum(diag(G) w)
        tr(D^T Z D)   = tr((U^T Z U)(V^T V)) - 2 delta w . diag(Z U V^T)
                        + delta sum(diag(Z) w^2)

    with diag(Z U V^T) the row sums of (Z U) * V.
    """
    zero_diagonal = _zero_diagonal(model.kind)
    g, lam_diag = _check_square_match(g, lam_diag)
    n = g.shape[0]
    u, v = np.asarray(model.u, dtype=np.float64), np.asarray(model.v, dtype=np.float64)
    if u.shape[0] != n or v.shape != u.shape:
        raise DimensionMismatch(
            f"inconsistent shapes: {n} items, factors {u.shape} and {v.shape}"
        )
    gu = g @ u
    zu = gu + lam_diag[:, None] * u
    objective = np.trace(g) - 2.0 * np.sum(gu * v) + np.sum((u.T @ zu) * (v.T @ v))
    if zero_diagonal:
        w = np.einsum("ij,ij->i", u, v)
        z_diag = np.diag(g) + lam_diag
        objective += (2.0 * np.dot(np.diag(g), w) - 2.0 * np.dot(w, np.einsum("ij,ij->i", zu, v))
                      + np.dot(z_diag, w * w))
    return float(objective)
