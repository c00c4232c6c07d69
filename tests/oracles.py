"""Independent oracles shared across the test suite.

These deliberately avoid the library's production paths: the Gram oracle is
a plain dict loop, the triple check sorts every input with ``np.lexsort``,
the text parsers and writers of the dataset module work
one line at a time, fold-in scoring is a scipy sparse product, the ranking
metrics enumerate full rankings in pure Python, and the factor-pair
minimizer is multi-restart gradient descent on the written-out objective
(restarts stacked in arrays, with the one-at-a-time loop kept as its
bit-for-bit reference), and the best rank-k approximation is numpy's SVD
truncated.  When a test compares the library against one of
these, the two sides share no code.  The one exception is the per-metric
ranking path that ``evaluate.ranking_metrics`` replaced (``per_metric_*``):
it reuses the library's top-list and input-check helpers, so that tests can
require the two paths to agree bit for bit.  Likewise ``composed_low_rank``
spells out the training chain stage by stage from the library's public
stage functions, so that tests can require every trainer to equal it bit
for bit, and ``in_place_train_deep_ae`` is the deep-AE trainer as it was
when each step wrote into its parameter arrays (with a backprop that keeps
each pre-activation), so that tests can require the trainer to equal it bit
for bit.
"""

import math

import numpy as np

from edlae.closed_form import student_gram, student_projection
from edlae.dataset import InteractionMatrix
from edlae.deepae import (
    _MAX_HALVINGS, DeepAEParams, deep_ae_forward, init_params, squared_error,
)
from edlae.evaluate import MetricResult, _aggregate, _check_eval_inputs, _top_lists
from edlae.errors import DimensionMismatch, Divergence, EmptyDataset, ParseError
from edlae.linalg import sym_inverse


def naive_gram(x: InteractionMatrix) -> np.ndarray:
    """X^T X accumulated entry-by-entry (only sensible for small instances)."""
    by_user = {}
    for u, i, v in zip(x.users, x.items, x.values):
        by_user.setdefault(int(u), []).append((int(i), float(v)))
    g = np.zeros((x.num_items, x.num_items))
    for entries in by_user.values():
        for i, vi in entries:
            for j, vj in entries:
                g[i, j] += vi * vj
    return g


def lexsorted_triples(num_users, num_items, users, items, values, binarized=False):
    """``InteractionMatrix.from_triples``'s checks and order, spelled out with
    ``np.lexsort`` over every input: the (users, items, values) arrays, or
    the exception it raises."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (users.shape == items.shape == values.shape) or users.ndim != 1:
        raise DimensionMismatch("users, items, values must be equal-length 1-d arrays")
    order = np.lexsort((items, users))
    users, items, values = users[order], items[order], values[order]
    if users.size:
        if users.min() < 0 or users.max() >= num_users:
            raise ValueError("user index out of range")
        if items.min() < 0 or items.max() >= num_items:
            raise ValueError("item index out of range")
        dup = (np.diff(users) == 0) & (np.diff(items) == 0)
        if dup.any():
            raise ValueError("duplicate (user, item) pair")
        if values.min() <= 0 or not np.isfinite(values).all():
            raise ValueError("interaction values must be positive and finite")
        if binarized and not np.all(values == 1.0):
            raise ValueError("binarized matrix must have all values equal to 1")
    return users, items, values


_HEADER_USER_NAMES = {"user", "user_id", "userid", "uid"}
_HEADER_ITEM_NAMES = {"item", "item_id", "itemid", "iid", "movie", "movie_id", "movieid", "song", "song_id"}


def _looks_like_header(fields):
    a, b = fields[0].strip().lower(), fields[1].strip().lower()
    if len(fields) == 3:
        try:
            float(fields[2])
            return False  # numeric third column: a data row
        except ValueError:
            return a in _HEADER_USER_NAMES or b in _HEADER_ITEM_NAMES
    return a in _HEADER_USER_NAMES and b in _HEADER_ITEM_NAMES


def load_interactions(path, fmt="csv", binarize=True):
    """``dataset.load_interactions`` one line at a time, merging duplicate
    pairs in a dict."""
    delim, other = (",", "\t") if fmt == "csv" else ("\t", ",")
    user_index, item_index, merged = {}, {}, {}
    first_data_line = True
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(delim)
            if len(fields) not in (2, 3):
                raise ParseError(f"expected user{delim}item[{delim}count], got {line!r}", line=lineno)
            if first_data_line:
                first_data_line = False
                if _looks_like_header(fields):
                    continue
            user, item = fields[0].strip(), fields[1].strip()
            if not user or not item:
                raise ParseError(f"empty user or item id in {line!r}", line=lineno)
            if other in user or other in item:
                raise ParseError(f"user or item id contains {other!r} in {line!r}", line=lineno)
            if len(fields) == 3:
                try:
                    value = float(fields[2])
                except ValueError:
                    raise ParseError(f"count {fields[2]!r} is not a number", line=lineno) from None
                if not np.isfinite(value) or value <= 0:
                    raise ParseError(f"count must be positive and finite, got {fields[2]!r}", line=lineno)
            else:
                value = 1.0
            u = user_index.setdefault(user, len(user_index))
            i = item_index.setdefault(item, len(item_index))
            merged[(u, i)] = merged.get((u, i), 0.0) + value
    if not merged:
        raise EmptyDataset(f"no interactions found in {path}")
    users = [k[0] for k in merged]
    items = [k[1] for k in merged]
    values = np.ones(len(merged)) if binarize else list(merged.values())
    matrix = InteractionMatrix.from_triples(
        len(user_index), len(item_index), users, items, values, binarized=binarize
    )
    return matrix, list(user_index), list(item_index)


def csr_scores(u, v, foldin: InteractionMatrix) -> np.ndarray:
    """Fold-in scores through a scipy CSR product, ``(X @ U) @ V.T``, with
    the fold-in items masked to -inf."""
    scores = np.asarray((foldin.to_csr() @ u) @ v.T).astype(np.float64, copy=False)
    scores[foldin.users, foldin.items] = -np.inf
    return scores


def interactions_text(x, row_users, user_ids, item_ids) -> str:
    """A split file's text, formatted one row at a time."""
    return "".join(
        f"{user_ids[int(row_users[int(u)])]},{item_ids[int(i)]},{v:.17g}\n"
        for u, i, v in zip(x.users, x.items, x.values)
    )


def foldin_mask(x: InteractionMatrix, held, foldin_fraction, rng) -> np.ndarray:
    """The fold-in draw of ``split_strong_generalization``: per held-out user
    in ascending order, two binary searches for its range of triples and one
    permutation of it."""
    mask = np.zeros(x.nnz, dtype=bool)
    for u in np.sort(held):
        lo = int(np.searchsorted(x.users, u, side="left"))
        hi = int(np.searchsorted(x.users, u, side="right"))
        cnt = hi - lo
        n_fold = int(np.clip(round(foldin_fraction * cnt), 1, cnt - 1))
        mask[lo + rng.permutation(cnt)[:n_fold]] = True
    return mask


def full_ranking(score_row) -> list:
    """Item indices sorted by descending score, ties by ascending index."""
    order = sorted(range(len(score_row)), key=lambda j: (-score_row[j], j))
    return order


def brute_ndcg(scores, holdout_sets, cutoff) -> list:
    per_user = []
    for row, relevant in zip(scores, holdout_sets):
        ranking = full_ranking(list(row))[:cutoff]
        dcg = sum(
            1.0 / math.log2(rank + 2)
            for rank, item in enumerate(ranking)
            if item in relevant
        )
        ideal = sum(1.0 / math.log2(rank + 2) for rank in range(min(cutoff, len(relevant))))
        per_user.append(dcg / ideal)
    return per_user


def brute_recall(scores, holdout_sets, cutoff) -> list:
    per_user = []
    for row, relevant in zip(scores, holdout_sets):
        ranking = full_ranking(list(row))[:cutoff]
        hits = sum(1 for item in ranking if item in relevant)
        per_user.append(hits / min(cutoff, len(relevant)))
    return per_user


def per_metric_ndcg(scores, holdout: InteractionMatrix, cutoff: int = 100) -> MetricResult:
    """nDCG as evaluate.ndcg_at_k computed it before ranking_metrics: its
    own top list and a dense users x items relevance mask per call.  Each
    user's DCG adds the discounts of its hits one at a time in rank order,
    as ``brute_ndcg`` does."""
    scores = _check_eval_inputs(scores, holdout)
    counts = holdout.user_counts()
    num_users = scores.shape[0]
    top = _top_lists(scores, cutoff)
    rel = np.zeros(scores.shape, dtype=bool)
    rel[holdout.users, holdout.items] = True
    gains = rel[np.arange(num_users)[:, None], top]
    discounts = 1.0 / np.log2(np.arange(2, top.shape[1] + 2))
    dcg = np.array([sum(discounts[hits], 0.0) for hits in gains])
    ideal_hits = np.minimum(counts, top.shape[1])
    idcg = np.concatenate([[0.0], np.cumsum(discounts)])[ideal_hits]
    return _aggregate("ndcg", cutoff, dcg / idcg)


def per_metric_recall(scores, holdout: InteractionMatrix, cutoff: int) -> MetricResult:
    """Recall as evaluate.recall_at_k computed it before ranking_metrics."""
    scores = _check_eval_inputs(scores, holdout)
    counts = holdout.user_counts()
    num_users = scores.shape[0]
    top = _top_lists(scores, cutoff)
    rel = np.zeros(scores.shape, dtype=bool)
    rel[holdout.users, holdout.items] = True
    hits = rel[np.arange(num_users)[:, None], top].sum(axis=1)
    denom = np.minimum(counts, cutoff)
    return _aggregate("recall", cutoff, hits / denom)


def holdout_sets(holdout: InteractionMatrix) -> list:
    sets = [set() for _ in range(holdout.num_users)]
    for u, i in zip(holdout.users, holdout.items):
        sets[int(u)].add(int(i))
    return sets


def composed_low_rank(g, lam_diag, kind, k):
    """Rank-k model of family ``kind``, one stage per call: a new G + Lambda
    inverted in place, the student Gram in C's storage, and a top-k
    projection that leaves the student Gram intact."""
    zz = g.copy()
    zz.flat[:: g.shape[0] + 1] += lam_diag
    c = sym_inverse(zz, overwrite_a=True)
    return student_projection(student_gram(c, g, lam_diag, kind, overwrite_c=True), k)


def objective_uv(x, lam_diag, u, v, remove_diag=True) -> float:
    """The training objective written out directly from X, U, V."""
    b = u @ v.T
    d = b - np.diag(np.diag(b)) if remove_diag else b
    r = x - x @ d
    pen = np.sqrt(lam_diag)[:, None] * d
    return float(np.sum(r * r) + np.sum(pen * pen))


def gd_restarts_loop(x, lam_diag, k, restarts=50, steps=2500, seed=0,
                     remove_diag=True) -> np.ndarray:
    """Final objective of each restart of a multi-restart gradient descent
    over (U, V), one restart after another: the reference for
    ``gd_restarts``.

    Plain descent with an accept/reject step and multiplicative step-size
    adaptation; each restart draws its own start point from a seeded stream.
    """
    n = x.shape[1]
    xtx = x.T @ x
    zz = xtx + np.diag(lam_diag)
    finals = np.empty(restarts)
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        u = 0.1 * rng.standard_normal((n, k))
        v = 0.1 * rng.standard_normal((n, k))
        lr = 1e-3
        f = objective_uv(x, lam_diag, u, v, remove_diag)
        stall = 0
        for _ in range(steps):
            b = u @ v.T
            d = b - np.diag(np.diag(b)) if remove_diag else b
            grad_d = -2.0 * (xtx - zz @ d)
            if remove_diag:
                np.fill_diagonal(grad_d, 0.0)
            gu = grad_d @ v
            gv = grad_d.T @ u
            u2 = u - lr * gu
            v2 = v - lr * gv
            f2 = objective_uv(x, lam_diag, u2, v2, remove_diag)
            if np.isfinite(f2) and f2 < f:
                stall = stall + 1 if f - f2 < 1e-14 * max(f, 1.0) else 0
                u, v, f = u2, v2, f2
                lr *= 1.05
                if stall > 40:
                    break
            else:
                lr *= 0.5
                if lr < 1e-16:
                    break
        finals[r] = f
    return finals


def _diagonals(d):
    """A view of the diagonal of each stacked square of C-ordered ``d``."""
    return d.reshape(len(d), -1)[:, :: d.shape[1] + 1]


def _objectives_uv(x, lam_diag, u, v, remove_diag):
    """``objective_uv`` of each stacked pair u[r], v[r], with the same
    products and the same summation order per pair."""
    d = u @ v.transpose(0, 2, 1)
    if remove_diag:
        diagonal = _diagonals(d)
        diagonal -= diagonal  # as b - np.diag(np.diag(b)) forms it: d_ii - d_ii
    r = x - x @ d
    pen = np.sqrt(lam_diag)[:, None] * d
    return (np.sum((r * r).reshape(len(d), -1), axis=1)
            + np.sum((pen * pen).reshape(len(d), -1), axis=1))


def gd_restarts(x, lam_diag, k, restarts=50, steps=2500, seed=0, remove_diag=True) -> np.ndarray:
    """``gd_restarts_loop`` with the restarts stacked as (restarts, n, k)
    arrays.  Each restart keeps its own start point, step size, stall count
    and stop, and only the restarts still running take a step."""
    n = x.shape[1]
    xtx = x.T @ x
    zz = xtx + np.diag(lam_diag)
    draws = []
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        draws.append([0.1 * rng.standard_normal((n, k)) for _ in "uv"])  # u, then v
    u, v = (np.stack(side) for side in zip(*draws))
    lr = np.full(restarts, 1e-3)
    f = _objectives_uv(x, lam_diag, u, v, remove_diag)
    stall = np.zeros(restarts, dtype=np.int64)
    live = np.arange(restarts)
    for _ in range(steps):
        if live.size == 0:
            break
        ul, vl, step = u[live], v[live], lr[live][:, None, None]
        d = ul @ vl.transpose(0, 2, 1)
        if remove_diag:
            diagonal = _diagonals(d)
            diagonal -= diagonal
        grad_d = -2.0 * (xtx - zz @ d)
        if remove_diag:
            _diagonals(grad_d)[:] = 0.0  # np.fill_diagonal(grad_d, 0.0)
        u2 = ul - step * (grad_d @ vl)
        v2 = vl - step * (grad_d.transpose(0, 2, 1) @ ul)
        f2 = _objectives_uv(x, lam_diag, u2, v2, remove_diag)
        before = f[live]
        accept = np.isfinite(f2) & (f2 < before)
        took, missed = live[accept], live[~accept]
        small = before[accept] - f2[accept] < 1e-14 * np.maximum(before[accept], 1.0)
        stall[took] = np.where(small, stall[took] + 1, 0)
        u[took], v[took], f[took] = u2[accept], v2[accept], f2[accept]
        lr[took] *= 1.05
        lr[missed] *= 0.5
        going = np.empty(live.size, dtype=bool)
        going[accept], going[~accept] = stall[took] <= 40, lr[missed] >= 1e-16
        live = live[going]
    return f


def gd_min_uv(x, lam_diag, k, restarts=50, steps=2500, seed=0, remove_diag=True) -> float:
    """Best objective over (U, V) found by multi-restart gradient descent
    (``gd_restarts``)."""
    return float(gd_restarts(x, lam_diag, k, restarts, steps, seed, remove_diag).min())


def fd_gradient(params, x, step=1e-6) -> np.ndarray:
    """Central finite-difference gradient of the deep AE squared error,
    flattened in (weights..., biases..., w_out) order.

    Uses only the public forward pass, independently of the backprop code.
    """
    blocks = list(params.weights) + list(params.biases) + [params.w_out]
    sizes = [b.size for b in blocks]
    grad = np.empty(int(np.sum(sizes)))
    offset = 0
    for block in blocks:
        flat = block.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = squared_error(x, deep_ae_forward(params, x))
            flat[idx] = orig - step
            down = squared_error(x, deep_ae_forward(params, x))
            flat[idx] = orig
            grad[offset + idx] = (up - down) / (2.0 * step)
        offset += flat.size
    return grad


# The derivatives as the in-place trainer took them: relu's from the
# pre-activation z, the others from the output h.
_IN_PLACE_ACTIVATIONS = {
    "tanh": (np.tanh, lambda z, h: 1.0 - h * h),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, h: (z > 0.0).astype(np.float64)),
    "linear": (lambda z: z, lambda z, h: np.ones_like(z)),
}


def _in_place_se_and_gradients(params, x):
    """``deepae.se_and_gradients`` as it was, keeping each layer's
    pre-activation."""
    act, act_grad = _IN_PLACE_ACTIVATIONS[params.activation]
    pres, acts = [], [x]
    for w, b in zip(params.weights, params.biases):
        pres.append(acts[-1] @ w + b)
        acts.append(act(pres[-1]))
    diff = acts[-1] @ params.w_out - x
    se = float(np.sum(diff * diff))
    d_out = 2.0 * diff
    g_w_out = acts[-1].T @ d_out
    d_h = d_out @ params.w_out.T
    g_weights = [None] * len(params.weights)
    g_biases = [None] * len(params.biases)
    for layer in range(len(params.weights) - 1, -1, -1):
        d_z = d_h * act_grad(pres[layer], acts[layer + 1])
        g_weights[layer] = acts[layer].T @ d_z
        g_biases[layer] = d_z.sum(axis=0)
        if layer > 0:
            d_h = d_z @ params.weights[layer].T
    return se, (g_weights, g_biases, g_w_out)


def _copied(params):
    return DeepAEParams([w.copy() for w in params.weights], [b.copy() for b in params.biases],
                        params.w_out.copy(), params.activation)


def in_place_train_deep_ae(x, arch, k, steps, lr, seed):
    """``deepae.train_deep_ae``'s loop as it was when each step wrote into
    the parameter arrays, so the best parameters seen and each restart were
    copies: (best params, best squared error), or the same Divergence."""
    x = np.asarray(x, dtype=np.float64)
    params = init_params(x.shape[1], k, arch, seed)
    best_se, best_params = np.inf, _copied(params)
    halvings = 0
    for _ in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            se, (gw, gb, gout) = _in_place_se_and_gradients(params, x)
        if not np.isfinite(se):
            params = _copied(best_params)
            lr *= 0.5
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise Divergence(
                    f"loss stayed non-finite after {halvings} step halvings; lower the learning rate"
                )
            continue
        if se < best_se:
            best_se = se
            best_params = _copied(params)
        for w, g in zip(params.weights, gw):
            w -= lr * g
        for b, g in zip(params.biases, gb):
            b -= lr * g
        params.w_out[...] -= lr * gout
    with np.errstate(over="ignore", invalid="ignore"):
        final_se = squared_error(x, deep_ae_forward(params, x))
    if np.isfinite(final_se) and final_se < best_se:
        best_se = final_se
        best_params = _copied(params)
    return best_params, best_se


def binary_instance(seed, m=40, n=8, density=0.3) -> np.ndarray:
    """Random implicit-feedback matrix with no empty items."""
    rng = np.random.default_rng(seed)
    x = (rng.random((m, n)) < density).astype(np.float64)
    for j in range(n):
        if x[:, j].sum() == 0:
            x[rng.integers(m), j] = 1.0
    return x


def truncated_svd(m: np.ndarray, k: int) -> np.ndarray:
    """Best rank-k Frobenius approximation of ``m`` (Eckart-Young): its thin
    SVD with all but the k largest singular values dropped."""
    left, singular, right_t = np.linalg.svd(m, full_matrices=False)
    return (left[:, :k] * singular[:k]) @ right_t[:k]


def exact_gram(x: np.ndarray) -> np.ndarray:
    raw = x.T @ x
    upper = np.triu(raw, 1)
    return upper + upper.T + np.diag(np.diag(raw))


def synthetic_cluster_noise(seed, m=8000, n=300, clusters=8, cluster_items=30,
                            basket_cluster=10, basket_diffuse=4) -> InteractionMatrix:
    """Low-rank-plus-noise interaction data for the desk-scale trend check.

    Items split into clusters (each user draws from two preferred clusters,
    giving low-rank co-occurrence structure) plus a pool of diffuse items
    bought independently under a steep popularity law: popular but
    unpredictable, the noise component that per-item calibration must
    demote.
    """
    rng = np.random.default_rng(seed)
    n_clustered = clusters * cluster_items
    n_diffuse = n - n_clustered
    in_cluster = 1.0 / np.arange(1, cluster_items + 1) ** 0.4
    in_cluster /= in_cluster.sum()
    diffuse_pop = 1.0 / np.arange(1, n_diffuse + 1) ** 1.2
    diffuse_pop /= diffuse_pop.sum()
    rows, cols = [], []
    for user in range(m):
        first, second = rng.choice(clusters, size=2, replace=False)
        items = set()
        while len(items) < basket_cluster:
            c = first if rng.random() < 0.7 else second
            items.add(int(c * cluster_items + rng.choice(cluster_items, p=in_cluster)))
        while len(items) < basket_cluster + basket_diffuse:
            items.add(int(n_clustered + rng.choice(n_diffuse, p=diffuse_pop)))
        rows.extend([user] * len(items))
        cols.extend(sorted(items))
    return InteractionMatrix.from_triples(
        m, n, rows, cols, np.ones(len(rows)), binarized=True
    )
