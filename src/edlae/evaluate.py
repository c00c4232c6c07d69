"""Fold-in scoring of held-out users and ranking metrics with standard errors.

Scoring feeds each held-out user's fold-in items through the model and masks
those items to -inf so they can never be recommended back.  The fold-in
product ``X U`` is summed in numpy, without a sparse matrix: each user's row
starts at 0 and adds ``value * U[item]`` over the user's fold-in items in
ascending item order, one multiply and one add per element.  A CSR product
(scipy's ``csr_matvecs``) does exactly these operations in this order, so
``X U`` is bit-equal to ``X_csr @ U``.  Scores are the row-blocked product
``(X U)[lo:hi] @ V.T`` over blocks of _BLOCK_ROWS users.  With OpenBLAS this
was bit-equal to the whole product ``(X U) @ V.T`` at ranks up to 64, but it
is not in general: at rank 384 about one entry in 7,000 differed by an ulp.

A ranking orders items by descending score, ties by ascending item index,
which keeps every metric deterministic.  NaN scores are rejected, and a
model's scores must be finite before its fold-in items are masked.  Each
model's scores are ranked once: one top list per row at the largest cutoff
serves every metric, since a smaller cutoff's list is a prefix of it.  Only
the first ``cutoff`` items of each ranking are formed: argpartition selects
each row's top-cutoff candidates, and only those are sorted.  A row where an
item tied with the cutoff-th score falls outside the candidates is fully
sorted instead, so the tie rule holds exactly.  Rows are scored and ranked a
block at a time: ``model_metrics`` folds in, scores, masks, ranks and
reduces each block of users before it folds in the next, and
``ranking_metrics`` ranks and reduces row blocks of a given score matrix.  A
block's top lists are checked against the holdout in one reused (block rows
x items) relevance mask, and its per-user metrics are read off one
rank-order cumulative sum of its hits and of its discounted gains.  So
neither ``X U``, the scores, the top lists, the mask nor the gains are ever
held for all users at once; only one float64 per user per metric is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import LowRankModel
from .dataset import InteractionMatrix
from .errors import DimensionMismatch, EmptyHoldout

# Users folded in, scored and ranked at a time: bounds the block of X U, the
# score block and the temporaries of the top-list selection.
_BLOCK_ROWS = 256


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

    Fold-in positions are masked to -inf.  The (users x items) result is
    filled block by block from the same scores that model_metrics ranks.
    """
    scores = np.empty((foldin.num_users, model.v.shape[0]))
    for _ in _score_blocks(model, foldin, out=scores):
        pass  # each block is written into its rows of scores
    return scores


def _check_model(model, foldin):
    item_dim = model.u.shape[0]
    if item_dim != foldin.num_items:
        raise DimensionMismatch(
            f"model covers {item_dim} items, fold-in matrix has {foldin.num_items}"
        )


def _score_blocks(model, foldin, out=None):
    """Yield ``(lo, scores)`` per block of _BLOCK_ROWS users from ``lo``:
    ``(X U)[lo:hi] @ V.T`` with the block's fold-in entries set to -inf.
    Raises ValueError if a product is not finite, before the mask: NaN has
    no rank, +inf ties at the top, and -inf would read as a masked item.

    This is the one definition of a score.  ``(X U)[lo:hi]`` is folded in
    from the block's own fold-in triples; a user's row of ``X U`` does not
    depend on the other users, so it equals the row of the whole product.
    Each block's product is written into rows lo:hi of ``out`` when it is
    given, else into one block buffer that the next block overwrites.
    """
    _check_model(model, foldin)
    v_t = model.v.T
    num_users = foldin.num_users
    if out is None:
        buffer = np.empty((min(_BLOCK_ROWS, num_users), v_t.shape[1]))
    for lo in range(0, num_users, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, num_users)
        rows = _user_rows(foldin, lo, hi)
        block = np.matmul(_fold_in(rows, model.u), v_t,
                          out=buffer[:hi - lo] if out is None else out[lo:hi])
        _check_finite(block)
        block[rows.users, rows.items] = -np.inf
        yield lo, block


def _user_rows(matrix, lo, hi):
    """Users lo:hi of ``matrix`` as a matrix of hi - lo users from 0."""
    entries = slice(*np.searchsorted(matrix.users, (lo, hi)))
    return InteractionMatrix(hi - lo, matrix.num_items, matrix.users[entries] - lo,
                             matrix.items[entries], matrix.values[entries], matrix.binarized)


def _fold_in(foldin, u):
    """``X U`` for the fold-in matrix X, with a CSR product's summation order.

    ``foldin`` is one scoring block of at most _BLOCK_ROWS users, as
    _score_blocks hands it; besides the (users, k) result, one accumulator
    and one step buffer of the same size are held.  Users are ordered by
    descending fold-in count (a stable sort).  Pass j adds the j-th fold-in
    row of each user with more than j items; those users are a prefix of the
    order, so they are updated without a scatter, and the block takes as
    many passes as its heaviest user has items, not one per user.
    """
    u = np.asarray(u, dtype=np.float64)
    counts = foldin.user_counts()
    order = np.argsort(-counts, kind="stable")
    starts = (np.cumsum(counts) - counts)[order]
    # active[j]: the number of users with more than j fold-in items
    active = counts.size - np.searchsorted(np.sort(counts), np.arange(counts.max(initial=0)),
                                           side="right")
    # x * 1.0 is x exactly, so unit values, as in a binarized split, skip the
    # multiply, and with it the buffer of up to 8192 values that numpy's
    # broadcasting multiply allocates on each pass.
    unit_values = bool((foldin.values == 1.0).all())
    xu = np.zeros((counts.size, u.shape[1]))
    steps = np.empty_like(xu)
    for j, users in enumerate(active.tolist()):
        idx = starts[:users] + j
        # Fold-in items index rows of u, so "clip" never clips; unlike the
        # default mode it writes into ``step`` without a buffer.
        step = np.take(u, foldin.items[idx], axis=0, out=steps[:users], mode="clip")
        if not unit_values:
            step *= foldin.values[idx, None]
        xu[:users] += step
    out = np.empty_like(xu)
    out[order] = xu
    return out


def _check_eval_inputs(scores, holdout):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise DimensionMismatch("scores must be 2-d (users x items)")
    _check_holdout(scores.shape, holdout)
    _check_no_nan(scores)
    return scores


def _check_finite(scores):
    # max and min propagate NaN and reach any infinity, with no temporary
    if not (np.isfinite(scores.max(initial=0.0)) and np.isfinite(scores.min(initial=0.0))):
        raise ValueError("scores contain NaN or an infinity: non-finite scores have no rank")


def _check_no_nan(scores):
    if np.isnan(scores.max(initial=-np.inf)):  # max propagates NaN, with no temporary
        raise ValueError("scores contain NaN, which has no rank; mask items with -inf")


def _check_holdout(shape, holdout):
    """Reject a holdout that does not fit a ``shape`` score matrix or has a
    user without an item."""
    if (holdout.num_users, holdout.num_items) != shape:
        raise DimensionMismatch(
            f"scores shape {shape} does not match holdout "
            f"({holdout.num_users}, {holdout.num_items})"
        )
    if holdout.num_users == 0 or holdout.user_counts().min(initial=1) == 0:
        raise EmptyHoldout("every scored user needs at least one holdout item")


def _top_lists(scores, cutoff):
    """Each row's first min(cutoff, n) items by descending score, ties by
    ascending item index: the leading columns of a stable sort of -scores.

    Its temporaries are a few times the size of ``scores``, so it is passed
    one row block at a time.  argpartition selects a top-width candidate set
    per row (every item when width = n); sorted by item index and then
    stably by descending score, it is the row's exact top list unless an
    item tied with the boundary (the width-th best) score was left out.
    Such rows, including rows with fewer than width finite scores, are
    ranked by a full stable sort instead.  Candidates are sorted by score
    with numpy's default (unstable) sort, which orders distinct scores the
    same way; only rows where two sorted candidate scores are equal are
    sorted again stably.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    n = scores.shape[1]
    width = min(cutoff, n)
    rows = np.arange(scores.shape[0])[:, None]
    cand = np.argpartition(scores, n - width, axis=1)[:, -width:].copy()  # frees the rest
    cand.sort(axis=1)
    cand_scores = scores[rows, cand]
    neg = -cand_scores
    order = np.argsort(neg, axis=1)
    ranked = np.take_along_axis(neg, order, axis=1)
    tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(neg[tied], axis=1, kind="stable")
    top = cand[rows, order]
    boundary = cand_scores[rows, order[:, -1:]]
    ties = np.count_nonzero(scores == boundary, axis=1)
    redo = np.flatnonzero(ties != np.count_nonzero(cand_scores == boundary, axis=1))
    if redo.size:
        top[redo] = np.argsort(-scores[redo], axis=1, kind="stable")[:, :width]
    return top


def _aggregate(name, cutoff, per_user):
    num = per_user.size
    stderr = float(per_user.std(ddof=1) / np.sqrt(num)) if num > 1 else 0.0
    return MetricResult(name, cutoff, float(per_user.mean()), stderr, per_user)


_METRICS = ("ndcg", "recall")
_DEFAULT_METRICS = (("ndcg", 100), ("recall", 20), ("recall", 50))


def _check_metrics(metrics):
    if not metrics:
        raise ValueError("no metrics requested")
    for name, cutoff in metrics:
        if name not in _METRICS:
            raise ValueError(f"unknown metric {name!r}; expected one of {list(_METRICS)}")
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")


def ranking_metrics(
    scores: np.ndarray,
    holdout: InteractionMatrix,
    metrics=_DEFAULT_METRICS,
) -> list[MetricResult]:
    """One MetricResult per ``(name, cutoff)`` of ``metrics``, in that order,
    from a single ranking of ``scores``.

    ``"ndcg"`` is binary-relevance nDCG truncated at the cutoff: DCG
    discounts a hit at rank r by 1/log2(r + 1), and the ideal DCG places one
    hit at each of the first min(cutoff, #holdout) ranks.  ``"recall"`` is
    the fraction of holdout items retrieved in the top ``cutoff``, normalized
    by min(cutoff, #holdout) so a full retrieval scores 1.
    """
    scores = _check_eval_inputs(scores, holdout)
    _check_metrics(metrics)
    blocks = ((lo, scores[lo:lo + _BLOCK_ROWS]) for lo in range(0, scores.shape[0], _BLOCK_ROWS))
    return _rank_blocks(blocks, holdout, metrics)


def model_metrics(
    model: LowRankModel,
    foldin: InteractionMatrix,
    holdout: InteractionMatrix,
    metrics=_DEFAULT_METRICS,
) -> list[MetricResult]:
    """``ranking_metrics(score_users(model, foldin), holdout, metrics)``,
    without the (users x items) score matrix.

    Each block of users is folded in, scored, checked to be finite, masked,
    ranked and reduced to its per-user metrics before the next is folded
    in, so only one float64 per user per metric is held for all users.
    Dimensions, empty holdouts and ``metrics`` are checked before any
    scoring.
    """
    _check_model(model, foldin)
    _check_holdout((foldin.num_users, model.v.shape[0]), holdout)
    _check_metrics(metrics)
    return _rank_blocks(_score_blocks(model, foldin), holdout, metrics)


def _rank_blocks(blocks, holdout, metrics):
    """The ranking of ranking_metrics over ``(lo, scores of rows lo:hi)``
    blocks that cover the holdout's users in order.

    Each block's gains (its top lists' hits) are reduced to its users'
    metrics before the next block is ranked.
    """
    n = holdout.num_items
    discounts = 1.0 / np.log2(np.arange(2, min(max(cutoff for _, cutoff in metrics), n) + 2))
    per_user = [np.empty(holdout.num_users) for _ in metrics]
    rel = np.zeros((min(_BLOCK_ROWS, holdout.num_users), n), dtype=bool)
    for lo, scores in blocks:
        hi = lo + scores.shape[0]
        held = _user_rows(holdout, lo, hi)
        rel[held.users, held.items] = True
        gains = np.take_along_axis(rel[:hi - lo], _top_lists(scores, discounts.size), axis=1)
        rel[held.users, held.items] = False
        _reduce_block(gains, held.user_counts(), metrics, discounts,
                      [values[lo:hi] for values in per_user])
    return [_aggregate(name, cutoff, values) for (name, cutoff), values in zip(metrics, per_user)]


def _reduce_block(gains, counts, metrics, discounts, out):
    """Write each metric's values for one block's users into its ``out`` array.

    ``gains`` are the block's top lists' hits and ``counts`` its users'
    holdout sizes.  The DCG at every cutoff is a column of one rank-order
    cumulative sum of the hits' discounts, so each hit's discount is added in
    rank order; every recall's hit count is a column of one cumulative count.
    These block-sized temporaries are freed on return, before the next block
    is scored.
    """
    dcg = np.cumsum(gains * discounts, axis=1)
    hits = np.cumsum(gains, axis=1)
    ideal = np.concatenate([[0.0], np.cumsum(discounts)])  # ideal[h]: DCG of h leading hits
    for (name, cutoff), values in zip(metrics, out):
        at = min(cutoff, gains.shape[1])
        if name == "ndcg":
            np.divide(dcg[:, at - 1], ideal[np.minimum(counts, at)], out=values)
        else:
            np.divide(hits[:, at - 1], np.minimum(counts, cutoff), out=values)


def ndcg_at_k(scores: np.ndarray, holdout: InteractionMatrix, cutoff: int = 100) -> MetricResult:
    """Binary-relevance nDCG truncated at ``cutoff`` (see ranking_metrics)."""
    return ranking_metrics(scores, holdout, (("ndcg", cutoff),))[0]


def recall_at_k(scores: np.ndarray, holdout: InteractionMatrix, cutoff: int) -> MetricResult:
    """Recall at ``cutoff``, normalized by min(cutoff, #holdout) (see ranking_metrics)."""
    return ranking_metrics(scores, holdout, (("recall", cutoff),))[0]
