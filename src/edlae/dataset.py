"""Sparse interaction ingestion, Gram matrix, and strong-generalization splits.

Interactions are (user, item, value) triples over dense integer indices;
string ids from input files are mapped to indices in order of first
appearance and the mapping is persisted next to the split files so that
evaluation is reproducible across runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InsufficientUsers,
    ParseError,
)

_HEADER_USER_NAMES = {"user", "user_id", "userid", "uid"}
_HEADER_ITEM_NAMES = {"item", "item_id", "itemid", "iid", "movie", "movie_id", "movieid", "song", "song_id"}

SPLIT_FILES = (
    "train.csv",
    "validation_foldin.csv",
    "validation_holdout.csv",
    "test_foldin.csv",
    "test_holdout.csv",
)


@dataclass(frozen=True)
class InteractionMatrix:
    """Sparse user-item matrix stored as sorted (user, item, value) triples."""

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    binarized: bool

    @staticmethod
    def from_triples(num_users, num_items, users, items, values, binarized=False):
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
        return InteractionMatrix(int(num_users), int(num_items), users, items, values, bool(binarized))

    @property
    def nnz(self) -> int:
        return int(self.users.size)

    def to_csr(self) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix(
            (self.values, (self.users, self.items)),
            shape=(self.num_users, self.num_items),
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.num_users, self.num_items))
        out[self.users, self.items] = self.values
        return out

    def user_counts(self) -> np.ndarray:
        return np.bincount(self.users, minlength=self.num_users)


def _looks_like_header(fields):
    a, b = fields[0].strip().lower(), fields[1].strip().lower()
    if len(fields) == 3:
        try:
            float(fields[2])
            return False  # numeric third column: a data row
        except ValueError:
            return a in _HEADER_USER_NAMES or b in _HEADER_ITEM_NAMES
    return a in _HEADER_USER_NAMES and b in _HEADER_ITEM_NAMES


def load_interactions(path, fmt: str = "csv", binarize: bool = True):
    """Stream a user,item[,count] file into an InteractionMatrix.

    Ids are arbitrary strings without a comma or a tab (the split files use
    both as separators), mapped to dense indices in order of first
    appearance.  Duplicate pairs are merged by summing counts (then clamped
    to 1 when binarizing).  Returns (matrix, user_ids, item_ids) where the id
    lists map index -> original string.
    """
    if fmt not in ("csv", "tsv"):
        raise ValueError(f"format must be 'csv' or 'tsv', got {fmt!r}")
    # A field can not hold ``delim``; ids holding ``other`` are rejected.
    delim, other = (",", "\t") if fmt == "csv" else ("\t", ",")
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    merged: dict[tuple[int, int], float] = {}
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
    users = np.fromiter((k[0] for k in merged), dtype=np.int64, count=len(merged))
    items = np.fromiter((k[1] for k in merged), dtype=np.int64, count=len(merged))
    values = np.fromiter(merged.values(), dtype=np.float64, count=len(merged))
    if binarize:
        values = np.ones_like(values)
    matrix = InteractionMatrix.from_triples(
        len(user_index), len(item_index), users, items, values, binarized=binarize
    )
    return matrix, list(user_index), list(item_index)


def gram(x: InteractionMatrix) -> np.ndarray:
    """Item-item co-occurrence matrix X^T X, dense and exactly symmetric.

    The upper triangle is computed and mirrored so the output is symmetric
    by construction, not merely up to rounding.
    """
    if x.num_items < 1:
        raise DimensionMismatch("gram requires at least one item")
    csr = x.to_csr()
    raw = (csr.T @ csr).toarray().astype(np.float64, copy=False)
    upper = np.triu(raw, 1)
    return upper + upper.T + np.diag(np.diag(raw))


@dataclass(frozen=True)
class SplitSpec:
    """Strong-generalization split parameters; a fixed seed fixes the split."""

    validation_fraction: float
    test_fraction: float
    foldin_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        for name in ("validation_fraction", "test_fraction", "foldin_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.validation_fraction + self.test_fraction >= 1.0:
            raise ValueError(
                "validation_fraction + test_fraction must leave a positive training share"
            )


@dataclass(frozen=True)
class EvalSplit:
    """Train matrix plus fold-in/holdout pairs over disjoint held-out users.

    Matrix rows within each group follow ascending original user index; the
    ``*_users`` arrays record that mapping back to the full user set.
    """

    train: InteractionMatrix
    validation_foldin: InteractionMatrix
    validation_holdout: InteractionMatrix
    test_foldin: InteractionMatrix
    test_holdout: InteractionMatrix
    train_users: np.ndarray
    validation_users: np.ndarray
    test_users: np.ndarray


def _submatrix(x, user_rows, keep_mask=None):
    """Rows of x for the given original users, re-indexed 0..len(rows)-1.

    user_rows must be sorted ascending.
    """
    select = np.isin(x.users, user_rows)
    if keep_mask is not None:
        select &= keep_mask
    users = np.searchsorted(user_rows, x.users[select])
    return InteractionMatrix.from_triples(
        len(user_rows), x.num_items, users, x.items[select], x.values[select], x.binarized
    )


def split_strong_generalization(x: InteractionMatrix, spec: SplitSpec) -> EvalSplit:
    """Partition users into train / validation / test with item fold-in splits.

    Held-out users are drawn uniformly from users with at least two
    interactions (both fold-in and holdout must be non-empty); everyone else
    stays in train.  Deterministic given spec.seed.
    """
    m = x.num_users
    counts = x.user_counts()
    eligible = np.flatnonzero(counts >= 2)
    n_val = int(round(spec.validation_fraction * m))
    n_test = int(round(spec.test_fraction * m))
    if n_val < 1 or n_test < 1 or n_val + n_test > eligible.size:
        raise InsufficientUsers(
            f"need {n_val} validation + {n_test} test users with >= 2 interactions, "
            f"have {eligible.size} eligible of {m} total"
        )
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(eligible)
    val_users = np.sort(perm[:n_val])
    test_users = np.sort(perm[n_val : n_val + n_test])
    held = np.concatenate([val_users, test_users])
    train_users = np.setdiff1d(np.arange(m), held)

    # Per held-out user, draw the fold-in subset; iterate in a fixed order so
    # the rng stream (and hence the split) is reproducible.  Triples are
    # sorted by user, so each user's entries form a contiguous range.
    foldin_mask = np.zeros(x.nnz, dtype=bool)
    for u in np.sort(held):
        lo = int(np.searchsorted(x.users, u, side="left"))
        hi = int(np.searchsorted(x.users, u, side="right"))
        cnt = hi - lo
        n_fold = int(np.clip(round(spec.foldin_fraction * cnt), 1, cnt - 1))
        chosen = rng.permutation(cnt)[:n_fold]
        foldin_mask[lo + chosen] = True

    return EvalSplit(
        train=_submatrix(x, train_users),
        validation_foldin=_submatrix(x, val_users, foldin_mask),
        validation_holdout=_submatrix(x, val_users, ~foldin_mask),
        test_foldin=_submatrix(x, test_users, foldin_mask),
        test_holdout=_submatrix(x, test_users, ~foldin_mask),
        train_users=train_users,
        validation_users=val_users,
        test_users=test_users,
    )


def _write_id_map(path, ids):
    with open(path, "w", encoding="utf-8") as handle:
        for index, original in enumerate(ids):
            handle.write(f"{original}\t{index}\n")


def _read_id_map(path):
    ids = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected id<TAB>index, got {line!r}", line=lineno)
            ids.append(parts[0])
    return ids


def _write_interactions(path, x, row_users, user_ids, item_ids):
    with open(path, "w", encoding="utf-8") as handle:
        for u, i, v in zip(x.users, x.items, x.values):
            original_user = user_ids[int(row_users[int(u)])]
            handle.write(f"{original_user},{item_ids[int(i)]},{v:.17g}\n")


def save_split_artifacts(out_dir, split: EvalSplit, user_ids, item_ids, spec: SplitSpec):
    """Write the split as CSV files plus id maps and a deterministic manifest."""
    os.makedirs(out_dir, exist_ok=True)
    _write_id_map(os.path.join(out_dir, "users.tsv"), user_ids)
    _write_id_map(os.path.join(out_dir, "items.tsv"), item_ids)
    groups = {
        "train.csv": (split.train, split.train_users),
        "validation_foldin.csv": (split.validation_foldin, split.validation_users),
        "validation_holdout.csv": (split.validation_holdout, split.validation_users),
        "test_foldin.csv": (split.test_foldin, split.test_users),
        "test_holdout.csv": (split.test_holdout, split.test_users),
    }
    for name, (matrix, rows) in groups.items():
        _write_interactions(os.path.join(out_dir, name), matrix, rows, user_ids, item_ids)
    lines = [
        "edlae split manifest v1",
        f"seed = {spec.seed}",
        f"validation_fraction = {spec.validation_fraction:.17g}",
        f"test_fraction = {spec.test_fraction:.17g}",
        f"foldin_fraction = {spec.foldin_fraction:.17g}",
        f"num_users = {len(user_ids)}",
        f"num_items = {len(item_ids)}",
        f"binarized = {'true' if split.train.binarized else 'false'}",
        f"train_users = {split.train_users.size}",
        f"validation_users = {split.validation_users.size}",
        f"test_users = {split.test_users.size}",
        "files = users.tsv items.tsv " + " ".join(SPLIT_FILES),
    ]
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _read_interactions(path, user_to_index, item_to_index, num_items, binarized):
    triples = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(f"expected user,item,value, got {line!r}", line=lineno)
            try:
                triples.append(
                    (user_to_index[fields[0]], item_to_index[fields[1]], float(fields[2]))
                )
            except KeyError as missing:
                raise ParseError(f"id {missing} not present in id maps", line=lineno) from None
    rows = sorted({t[0] for t in triples})
    row_of = {u: r for r, u in enumerate(rows)}
    users = np.array([row_of[t[0]] for t in triples], dtype=np.int64)
    items = np.array([t[1] for t in triples], dtype=np.int64)
    values = np.array([t[2] for t in triples], dtype=np.float64)
    matrix = InteractionMatrix.from_triples(
        len(rows), num_items, users, items, values, binarized=binarized
    )
    return matrix, np.array(rows, dtype=np.int64)


def load_split_artifacts(split_dir):
    """Load the artifacts written by save_split_artifacts.

    Returns (EvalSplit, user_ids, item_ids).  Fold-in and holdout matrices of
    the same group share row order by construction (ascending user index).
    """
    manifest_path = os.path.join(split_dir, "manifest.txt")
    manifest = {}
    with open(manifest_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if "=" in line:
                key, _, value = line.partition("=")
                manifest[key.strip()] = value.strip()
    binarized = manifest.get("binarized", "false") == "true"
    user_ids = _read_id_map(os.path.join(split_dir, "users.tsv"))
    item_ids = _read_id_map(os.path.join(split_dir, "items.tsv"))
    user_to_index = {v: k for k, v in enumerate(user_ids)}
    item_to_index = {v: k for k, v in enumerate(item_ids)}
    n = len(item_ids)

    def read(name):
        return _read_interactions(
            os.path.join(split_dir, name), user_to_index, item_to_index, n, binarized
        )

    train, train_users = read("train.csv")
    val_foldin, val_users = read("validation_foldin.csv")
    val_holdout, val_users_h = read("validation_holdout.csv")
    test_foldin, test_users = read("test_foldin.csv")
    test_holdout, test_users_h = read("test_holdout.csv")
    if not np.array_equal(val_users, val_users_h) or not np.array_equal(test_users, test_users_h):
        raise ParseError("fold-in and holdout files disagree on user sets", line=0)
    return (
        EvalSplit(
            train=train,
            validation_foldin=val_foldin,
            validation_holdout=val_holdout,
            test_foldin=test_foldin,
            test_holdout=test_holdout,
            train_users=train_users,
            validation_users=val_users,
            test_users=test_users,
        ),
        user_ids,
        item_ids,
    )
