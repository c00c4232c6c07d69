"""Fold-in scoring of held-out users and ranking metrics with standard errors.

Scoring feeds each held-out user's fold-in items through the model and masks
those items to -inf so they can never be recommended back.  The fold-in
product ``X U`` is summed in numpy, without a sparse matrix: each user's row
starts at 0 and adds ``value * U[item]`` over the user's fold-in items in
ascending item order, one multiply and one add per element.  A CSR product
(scipy's ``csr_matvecs``) does exactly these operations in this order, so the
scores are bit-equal to ``(X_csr @ U) @ V.T``.

A ranking orders items by descending score, ties by ascending item index,
which keeps every metric deterministic.  NaN scores are rejected.  Only the
first ``cutoff`` items of each ranking are formed: rows are processed in
blocks, argpartition selects each row's top-cutoff candidates, and only those
are sorted.  A row where an item tied with the cutoff-th score falls outside
the candidates is fully sorted instead, so the tie rule holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import LowRankModel
from .dataset import InteractionMatrix
from .errors import DimensionMismatch, EmptyHoldout

# Rows ranked at a time: bounds the temporaries of the top-list selection.
_BLOCK_ROWS = 256
# Values of X U (rows times rank) summed at a time by the fold-in product.
_FOLD_IN_BLOCK = 1 << 15


@dataclass(frozen=True)
class MetricResult:
    """Per-user ranking metric with its mean and standard error."""

    metric: str
    cutoff: int
    mean: float
    stderr: float
    per_user: np.ndarray


def score_users(model: LowRankModel, foldin: InteractionMatrix) -> np.ndarray:
    """Score all items for each held-out user from their fold-in row.

    Fold-in positions are masked to -inf afterwards.
    """
    item_dim = model.u.shape[0]
    if item_dim != foldin.num_items:
        raise DimensionMismatch(
            f"model covers {item_dim} items, fold-in matrix has {foldin.num_items}"
        )
    scores = _fold_in(foldin, model.u) @ model.v.T
    scores[foldin.users, foldin.items] = -np.inf
    return scores


def _fold_in(foldin, u):
    """``X U`` for the fold-in matrix X, with a CSR product's summation order.

    Users are ordered by descending fold-in count (a stable sort) and taken
    in blocks of about _FOLD_IN_BLOCK values of ``X U``, which stay in cache
    (one whole (users, k) accumulator is 1.2-1.6x slower on the benchmark's
    fold-in sets at k = 64 and 384).  Pass j over a block adds the j-th
    fold-in row of each of its users with more than j items; those users are
    a prefix of the block, so they are updated without a scatter.  A block
    takes as many passes as its first user has items, not one per user.
    """
    u = np.asarray(u, dtype=np.float64)
    counts = foldin.user_counts()
    order = np.argsort(-counts, kind="stable")
    starts = (np.cumsum(counts) - counts)[order]
    # active[j]: the number of users with more than j fold-in items
    active = counts.size - np.searchsorted(np.sort(counts), np.arange(counts.max(initial=0)),
                                           side="right")
    block = max(1, _FOLD_IN_BLOCK // max(u.shape[1], 1))
    xu = np.zeros((counts.size, u.shape[1]))
    for lo in range(0, counts.size, block):
        hi = min(lo + block, counts.size)
        for j in range(int(counts[order[lo]])):
            users = min(int(active[j]), hi) - lo
            idx = starts[lo:lo + users] + j
            step = u[foldin.items[idx]]
            step *= foldin.values[idx, None]
            xu[lo:lo + users] += step
    out = np.empty_like(xu)
    out[order] = xu
    return out


def _check_eval_inputs(scores, holdout):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise DimensionMismatch("scores must be 2-d (users x items)")
    if (holdout.num_users, holdout.num_items) != scores.shape:
        raise DimensionMismatch(
            f"scores shape {scores.shape} does not match holdout "
            f"({holdout.num_users}, {holdout.num_items})"
        )
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN, which has no rank; mask items with -inf")
    counts = holdout.user_counts()
    if scores.shape[0] == 0 or counts.min(initial=1) == 0:
        raise EmptyHoldout("every scored user needs at least one holdout item")
    return scores, counts


def _top_lists(scores, cutoff):
    """Each row's first min(cutoff, n) items by descending score, ties by
    ascending item index: the leading columns of a stable sort of -scores."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    num_users, n = scores.shape
    width = min(cutoff, n)
    if width == n:
        return np.argsort(-scores, axis=1, kind="stable")
    top = np.empty((num_users, width), dtype=np.intp)
    for lo in range(0, num_users, _BLOCK_ROWS):
        top[lo:lo + _BLOCK_ROWS] = _block_top(scores[lo:lo + _BLOCK_ROWS], width)
    return top


def _block_top(block, width):
    """_top_lists of one row block, for width < n.

    argpartition selects a top-width candidate set per row; sorted by item
    index and then stably by descending score, it is the row's exact top
    list unless an item tied with the boundary (the width-th best) score was
    left out.  Such rows, including rows with fewer than width finite
    scores, are ranked by a full stable sort instead.
    """
    rows = np.arange(block.shape[0])[:, None]
    cand = np.argpartition(block, block.shape[1] - width, axis=1)[:, -width:]
    cand.sort(axis=1)
    cand_scores = block[rows, cand]
    order = np.argsort(-cand_scores, axis=1, kind="stable")
    top = cand[rows, order]
    boundary = cand_scores[rows, order[:, -1:]]
    ties = np.count_nonzero(block == boundary, axis=1)
    redo = np.flatnonzero(ties != np.count_nonzero(cand_scores == boundary, axis=1))
    if redo.size:
        top[redo] = np.argsort(-block[redo], axis=1, kind="stable")[:, :width]
    return top


def _aggregate(name, cutoff, per_user):
    num = per_user.size
    stderr = float(per_user.std(ddof=1) / np.sqrt(num)) if num > 1 else 0.0
    return MetricResult(name, cutoff, float(per_user.mean()), stderr, per_user)


def ndcg_at_k(scores: np.ndarray, holdout: InteractionMatrix, cutoff: int = 100) -> MetricResult:
    """Binary-relevance nDCG truncated at ``cutoff``.

    DCG discounts a hit at rank r by 1/log2(r + 1); the ideal DCG places one
    hit at each of the first min(cutoff, #holdout) ranks.
    """
    scores, counts = _check_eval_inputs(scores, holdout)
    num_users = scores.shape[0]
    top = _top_lists(scores, cutoff)
    rel = np.zeros(scores.shape, dtype=bool)
    rel[holdout.users, holdout.items] = True
    gains = rel[np.arange(num_users)[:, None], top]
    discounts = 1.0 / np.log2(np.arange(2, top.shape[1] + 2))
    dcg = gains @ discounts
    ideal_hits = np.minimum(counts, top.shape[1])
    idcg = np.concatenate([[0.0], np.cumsum(discounts)])[ideal_hits]
    return _aggregate("ndcg", cutoff, dcg / idcg)


def recall_at_k(scores: np.ndarray, holdout: InteractionMatrix, cutoff: int) -> MetricResult:
    """Fraction of holdout items retrieved in the top ``cutoff``, normalized
    by min(cutoff, #holdout) so a full retrieval scores 1."""
    scores, counts = _check_eval_inputs(scores, holdout)
    num_users = scores.shape[0]
    top = _top_lists(scores, cutoff)
    rel = np.zeros(scores.shape, dtype=bool)
    rel[holdout.users, holdout.items] = True
    hits = rel[np.arange(num_users)[:, None], top].sum(axis=1)
    denom = np.minimum(counts, cutoff)
    return _aggregate("recall", cutoff, hits / denom)
