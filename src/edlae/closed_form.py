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

Expanding B^T (G + Lambda) B with C (G + Lambda) = I gives, for either
family, the O(n^2) form M = (G + Lambda) - S (I + B): for edlae
(G + Lambda) - diagM(1 / diag C) (I + B), for ridge G - Lambda + Lambda C
Lambda.

A grid (``train_grid``) shares work the same way: C depends only on
(lambda, p), so one inverse serves both families, and the leading
eigenvectors of M do not depend on k, so one top-max(k) eigendecomposition
per family serves every rank as column slices of V and U = B V.  The n x n
buffers are reused in place: the teacher of the last family is built in C's
storage, the student Gram in one buffer, and the eigensolver works in the
student Gram's storage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import InteractionMatrix
from .errors import DimensionMismatch, InvalidDropout
from .linalg import _BLOCK_ROWS, sym_inverse, top_k_eig

# The family table: whether a family constrains (and its objective removes)
# the model's diagonal.  Everything else follows from it.
ZERO_DIAGONAL = {"edlae": True, "ridge": False}


def _check_lam(lam):
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and non-negative, got {lam}")


@dataclass(frozen=True)
class EdlaeConfig:
    """Hyperparameters of one training run."""

    lam: float
    dropout_p: float
    rank: int

    def __post_init__(self):
        if not 0.0 <= self.dropout_p < 1.0:
            raise InvalidDropout(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        _check_lam(self.lam)
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class FullRankModel:
    """Full-rank teacher B = I - C S of one family.

    ``c_diag`` keeps diag((G + Lambda)^-1) and ``scale`` the diagonal of S,
    which the student-Gram closed form needs.
    """

    b: np.ndarray
    c_diag: np.ndarray
    scale: np.ndarray
    kind: str = "edlae"

    def matrix(self) -> np.ndarray:
        return self.b


@dataclass(frozen=True)
class LowRankModel:
    """Rank-k factor pair; predictions are x @ u @ v.T per user row x."""

    u: np.ndarray
    v: np.ndarray
    rank: int
    config: EdlaeConfig | None = None
    kind: str = "edlae"

    def matrix(self) -> np.ndarray:
        return self.u @ self.v.T


def regularizer(gram_diag: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Per-item ridge diagonal lam + (p / (1 - p)) * diag(G).

    The dropout-derived term scales with each item's popularity; at p = 0 it
    collapses to a uniform ridge.
    """
    if not 0.0 <= p < 1.0:
        raise InvalidDropout(f"dropout probability must be in [0, 1), got {p}")
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


def _regularized(g, lam_diag):
    """A new array holding G + Lambda."""
    zz = g.copy()
    zz.flat[:: g.shape[0] + 1] += lam_diag
    return zz


def teacher_from_inverse(c: np.ndarray, lam_diag: np.ndarray, kind: str = "edlae",
                         overwrite_c: bool = False) -> FullRankModel:
    """Full-rank teacher B = I - C S of family ``kind`` from the inverse
    C = (G + Lambda)^-1.  With ``overwrite_c`` B is built in C's storage, so
    C is no longer available to the caller."""
    c, lam_diag = _check_square_match(c, lam_diag)
    zero_diagonal = ZERO_DIAGONAL[kind]
    c_diag = np.diag(c).copy()
    scale = 1.0 / c_diag if zero_diagonal else lam_diag
    b = np.multiply(c, -scale[None, :], out=c if overwrite_c else None)
    np.fill_diagonal(b, 0.0 if zero_diagonal else 1.0 - c_diag * scale)
    return FullRankModel(b=b, c_diag=c_diag, scale=scale, kind=kind)


def full_rank_teacher(g: np.ndarray, lam_diag: np.ndarray, kind: str = "edlae") -> FullRankModel:
    """Exact full-rank optimum of family ``kind`` (a key of ZERO_DIAGONAL).

    Raises NotPositiveDefinite when G + Lambda cannot be factorized, which
    signals the regularizer is too small.
    """
    g, lam_diag = _check_square_match(g, lam_diag)
    c = sym_inverse(_regularized(g, lam_diag), overwrite_a=True)
    return teacher_from_inverse(c, lam_diag, kind, overwrite_c=True)


def _symmetrize(m):
    """Replace square ``m`` by (m + m^T) / 2 in place, a row block at a time."""
    n = m.shape[0]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        mean = m[start:stop, start:] + m[start:, start:stop].T
        mean *= 0.5
        m[start:stop, start:] = mean
        m[start:, start:stop] = mean.T
    return m


def student_gram(model: FullRankModel, g: np.ndarray, lam_diag: np.ndarray) -> np.ndarray:
    """Regularized Gram of the teacher's predictions, B^T (G + Lambda) B.

    Evaluated through the closed form (G + Lambda) - S (I + B), assembled in
    one new buffer.  The result is symmetrized since that form is symmetric
    only analytically.
    """
    g, lam_diag = _check_square_match(g, lam_diag)
    n = g.shape[0]
    if model.b.shape != (n, n):
        raise DimensionMismatch(f"teacher has shape {model.b.shape}, Gram has {g.shape}")
    m = np.multiply(model.b, -model.scale[:, None])
    m += g
    m.flat[:: n + 1] += lam_diag - model.scale
    return _symmetrize(m)


def student_projection(model: FullRankModel, m_student: np.ndarray, k: int,
                       overwrite_m: bool = False) -> LowRankModel:
    """Project the teacher onto rank k: V = top-k eigenvectors of the student
    Gram, U = B @ V, so U V^T = B Q_k Q_k^T.  With ``overwrite_m`` the
    eigensolver works in the student Gram's storage and destroys it."""
    n = model.b.shape[0]
    if not 1 <= k <= n:
        raise DimensionMismatch(f"rank must be in [1, {n}], got {k}")
    v = top_k_eig(m_student, k, overwrite_a=overwrite_m).eigenvectors
    return LowRankModel(u=model.b @ v, v=v, rank=k, config=None, kind=model.kind)


def train_closed_form(g: np.ndarray, cfg: EdlaeConfig, kind: str = "edlae") -> LowRankModel:
    """Train a rank-k model of family ``kind`` from the Gram matrix alone.

    Composition: regularizer -> full-rank teacher -> student Gram -> top-k
    projection.  Raw interactions are never needed past the Gram matrix.
    """
    lam_diag = regularizer(np.diag(g), cfg.lam, cfg.dropout_p)
    teacher = full_rank_teacher(g, lam_diag, kind)
    model = student_projection(teacher, student_gram(teacher, g, lam_diag), cfg.rank)
    return replace(model, config=cfg)


def train_grid(g: np.ndarray, kinds, ks, lambdas, ps):
    """Train every model of the grid kinds x ks x lambdas x ps.

    Yields ``(position, model)`` with ``position = (kind index, k index,
    lambda index, p index)``, so sorting by position gives the grid in that
    order; the yield order is lambda -> p -> kind -> k.  Each (lambda, p)
    factorizes G + Lambda once and each (lambda, p, kind) takes one
    top-max(ks) eigendecomposition; a rank-k model holds the first k
    columns of its U and V.  The models equal ``train_closed_form``'s up to
    rounding.  All n x n buffers of one (lambda, p) are freed before its
    models are yielded.
    """
    g = np.asarray(g, dtype=np.float64)
    g_diag = np.diag(g).copy()
    top = max(ks)
    for li, lam in enumerate(lambdas):
        for pi, p in enumerate(ps):
            lam_diag = regularizer(g_diag, lam, p)
            c = sym_inverse(_regularized(g, lam_diag), overwrite_a=True)
            # The last kind takes C's storage for its teacher.
            factors = [_projected(c, g, lam_diag, kind, top, overwrite_c=ki == len(kinds) - 1)
                       for ki, kind in enumerate(kinds)]
            del c
            for fi, full in enumerate(factors):
                for ki, k in enumerate(ks):
                    yield (fi, ki, li, pi), LowRankModel(
                        u=full.u[:, :k].copy(), v=full.v[:, :k].copy(), rank=k,
                        config=EdlaeConfig(lam=lam, dropout_p=p, rank=k), kind=full.kind)


def _projected(c, g, lam_diag, kind, k, overwrite_c):
    """Rank-k model of family ``kind`` from C; frees its n x n buffers.  The
    eigensolver works in the student Gram's storage."""
    teacher = teacher_from_inverse(c, lam_diag, kind, overwrite_c=overwrite_c)
    return student_projection(teacher, student_gram(teacher, g, lam_diag), k, overwrite_m=True)


def _objective_matrix(model, n, lam_diag):
    """The model's dense matrix D, with its diagonal removed when its family
    constrains it, after checking it against n items and Lambda."""
    d = model.matrix()
    if d.shape != (n, n) or lam_diag.shape != (n,):
        raise DimensionMismatch(
            f"inconsistent shapes: {n} items, model {d.shape}, Lambda {lam_diag.shape}"
        )
    if ZERO_DIAGONAL[model.kind]:
        d = d - np.diag(np.diag(d))
    return d


def edlae_objective(x, lam_diag: np.ndarray, model) -> float:
    """Exact training objective of the model's family:

        || X - X D ||_F^2 + || Lambda^(1/2) D ||_F^2

    where D is the model's dense matrix (U V^T for low-rank models) with its
    diagonal removed for the zero-diagonal family and kept for ridge.
    """
    x = x.to_dense() if isinstance(x, InteractionMatrix) else np.asarray(x, dtype=np.float64)
    lam_diag = np.asarray(lam_diag, dtype=np.float64)
    d = _objective_matrix(model, x.shape[1], lam_diag)
    resid = x - x @ d
    penalty = np.sqrt(lam_diag)[:, None] * d
    return float(np.sum(resid * resid) + np.sum(penalty * penalty))


def objective_from_gram(g: np.ndarray, lam_diag: np.ndarray, model) -> float:
    """Same objective evaluated from the Gram matrix (no raw X needed):

        tr(G) - 2 tr(G D) + tr(D^T Z D),  Z = G + Lambda,

    from the factors of D = U V^T - delta diagM(w), w = diag(U V^T), where
    delta is 1 for the zero-diagonal family and 0 for ridge, in O(n^2 k):

        tr(G D)       = sum((G U) * V) - delta sum(diag(G) w)
        tr(D^T Z D)   = tr((U^T Z U)(V^T V)) - 2 delta w . diag(Z U V^T)
                        + delta sum(diag(Z) w^2)

    with diag(Z U V^T) the row sums of (Z U) * V.  A full-rank model is the
    pair U = B, V = I.
    """
    g, lam_diag = _check_square_match(g, lam_diag)
    n = g.shape[0]
    if isinstance(model, LowRankModel):
        u, v = np.asarray(model.u, dtype=np.float64), np.asarray(model.v, dtype=np.float64)
    else:
        u, v = model.matrix(), np.eye(n)
    if u.shape[0] != n or v.shape != u.shape:
        raise DimensionMismatch(
            f"inconsistent shapes: {n} items, factors {u.shape} and {v.shape}"
        )
    gu = g @ u
    zu = gu + lam_diag[:, None] * u
    objective = np.trace(g) - 2.0 * np.sum(gu * v) + np.sum((u.T @ zu) * (v.T @ v))
    if ZERO_DIAGONAL[model.kind]:
        w = np.einsum("ij,ij->i", u, v)
        z_diag = np.diag(g) + lam_diag
        objective += (2.0 * np.dot(np.diag(g), w) - 2.0 * np.dot(w, np.einsum("ij,ij->i", zu, v))
                      + np.dot(z_diag, w * w))
    return float(objective)
