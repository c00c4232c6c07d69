"""Independent oracles shared across the test suite.

These deliberately avoid the library's production paths: the Gram oracle is
a plain dict loop, the text parsers and writers of the dataset module work
one line at a time, fold-in scoring is a scipy sparse product, the ranking
metrics enumerate full rankings in pure Python, and the factor-pair
minimizer is multi-restart gradient descent on the written-out objective.  When a test compares the library against one of
these, the two sides share no code.
"""

import math
import os

import numpy as np

from edlae.dataset import InteractionMatrix
from edlae.errors import EmptyDataset, ParseError


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
    with open(path, "r", encoding="utf-8") as handle:
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


def read_interactions(path, user_to_index, item_to_index, num_items, binarized):
    """``dataset._read_interactions`` one line at a time: the matrix of a
    split file and the original index of each of its rows.  A bad line is a
    ParseError naming the file and the line."""
    name = os.path.basename(path)
    triples = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(f"expected user,item,value, got {line!r}", lineno, name)
            try:
                user, item = user_to_index[fields[0]], item_to_index[fields[1]]
            except KeyError as missing:
                raise ParseError(f"id {missing} not present in id maps", lineno, name) from None
            try:
                value = float(fields[2])
            except ValueError:
                raise ParseError(f"value {fields[2]!r} is not a number", lineno, name) from None
            if not math.isfinite(value) or value <= 0:
                raise ParseError(f"value must be positive and finite, got {fields[2]!r}",
                                 lineno, name)
            triples.append((user, item, value))
    rows = sorted({t[0] for t in triples})
    row_of = {u: r for r, u in enumerate(rows)}
    matrix = InteractionMatrix.from_triples(
        len(rows), num_items, [row_of[t[0]] for t in triples], [t[1] for t in triples],
        [t[2] for t in triples], binarized=binarized,
    )
    return matrix, np.array(rows, dtype=np.int64)


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


def holdout_sets(holdout: InteractionMatrix) -> list:
    sets = [set() for _ in range(holdout.num_users)]
    for u, i in zip(holdout.users, holdout.items):
        sets[int(u)].add(int(i))
    return sets


def objective_uv(x, lam_diag, u, v, remove_diag=True) -> float:
    """The training objective written out directly from X, U, V."""
    b = u @ v.T
    d = b - np.diag(np.diag(b)) if remove_diag else b
    r = x - x @ d
    pen = np.sqrt(lam_diag)[:, None] * d
    return float(np.sum(r * r) + np.sum(pen * pen))


def gd_min_uv(x, lam_diag, k, restarts=50, steps=2500, seed=0, remove_diag=True) -> float:
    """Best objective over (U, V) found by multi-restart gradient descent.

    Plain descent with an accept/reject step and multiplicative step-size
    adaptation; each restart draws its own start point from a seeded stream.
    """
    n = x.shape[1]
    xtx = x.T @ x
    zz = xtx + np.diag(lam_diag)
    best = np.inf
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
        best = min(best, f)
    return best


def fd_gradient(params, x, step=1e-6) -> np.ndarray:
    """Central finite-difference gradient of the deep AE squared error,
    flattened in (weights..., biases..., w_out) order.

    Uses only the public forward pass, independently of the backprop code.
    """
    from edlae.deepae import deep_ae_forward, squared_error

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


def binary_instance(seed, m=40, n=8, density=0.3) -> np.ndarray:
    """Random implicit-feedback matrix with no empty items."""
    rng = np.random.default_rng(seed)
    x = (rng.random((m, n)) < density).astype(np.float64)
    for j in range(n):
        if x[:, j].sum() == 0:
            x[rng.integers(m), j] = 1.0
    return x


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
