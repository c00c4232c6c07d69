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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import InteractionMatrix
from .errors import DimensionMismatch, InvalidDropout
from .linalg import sym_inverse, top_k_eig

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

    def predict(self, x_rows) -> np.ndarray:
        return np.asarray((x_rows @ self.u) @ self.v.T)


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


def full_rank_teacher(g: np.ndarray, lam_diag: np.ndarray, kind: str = "edlae") -> FullRankModel:
    """Exact full-rank optimum of family ``kind`` (a key of ZERO_DIAGONAL).

    Raises NotPositiveDefinite when G + Lambda cannot be factorized, which
    signals the regularizer is too small.
    """
    g, lam_diag = _check_square_match(g, lam_diag)
    zero_diagonal = ZERO_DIAGONAL[kind]
    b = sym_inverse(g + np.diag(lam_diag))
    c_diag = np.diag(b).copy()
    scale = 1.0 / c_diag if zero_diagonal else lam_diag
    b *= -scale[None, :]
    np.fill_diagonal(b, 0.0 if zero_diagonal else 1.0 - c_diag * scale)
    return FullRankModel(b=b, c_diag=c_diag, scale=scale, kind=kind)


def student_gram(model: FullRankModel, g: np.ndarray, lam_diag: np.ndarray) -> np.ndarray:
    """Regularized Gram of the teacher's predictions, B^T (G + Lambda) B.

    Evaluated through the closed form (G + Lambda) - S (I + B).  The result
    is symmetrized since that form is symmetric only analytically.
    """
    g, lam_diag = _check_square_match(g, lam_diag)
    n = g.shape[0]
    if model.b.shape != (n, n):
        raise DimensionMismatch(f"teacher has shape {model.b.shape}, Gram has {g.shape}")
    m = g + np.diag(lam_diag) - model.scale[:, None] * (np.eye(n) + model.b)
    return 0.5 * (m + m.T)


def student_projection(model: FullRankModel, m_student: np.ndarray, k: int) -> LowRankModel:
    """Project the teacher onto rank k: V = top-k eigenvectors of the student
    Gram, U = B @ V, so U V^T = B Q_k Q_k^T."""
    n = model.b.shape[0]
    if not 1 <= k <= n:
        raise DimensionMismatch(f"rank must be in [1, {n}], got {k}")
    v = top_k_eig(m_student, k).eigenvectors
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

        tr(G) - 2 tr(G D) + tr(D^T (G + Lambda) D).
    """
    g, lam_diag = _check_square_match(g, lam_diag)
    d = _objective_matrix(model, g.shape[0], lam_diag)
    zz = g + np.diag(lam_diag)
    return float(np.trace(g) - 2.0 * np.sum(g * d.T) + np.sum(d * (zz @ d)))
