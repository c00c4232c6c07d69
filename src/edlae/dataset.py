"""Sparse interaction ingestion, Gram matrix, and strong-generalization splits.

Interactions are (user, item, value) triples over dense integer indices;
string ids from input files are mapped to indices in order of first
appearance and the mapping is persisted next to the split files so that
evaluation is reproducible across runs.

Text files are read and written in chunks of ``_CHUNK_LINES`` lines, with
no Python loop per row: a chunk is joined and split once, its fields are
slices of the token list, and ids map to indices through dict lookups done
by ``map``.  Lines end where iterating a text file ends them, never at the
other characters ``str.splitlines`` breaks on.  A chunk that fails a check
is scanned again line by line, so an error names the first bad line.
``load_split_artifacts`` parses only the groups a command uses (``train``
the train and validation files, ``eval`` the test files), and
``save_split_artifacts`` writes every file atomically
(``serialize.write_atomic``), so a failed ingest leaves no half-written one.
Only ``gram`` needs scipy (a sparse product); ``to_csr`` imports it when
called, so parsing and splitting run on numpy alone.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InsufficientUsers,
    ParseError,
)

if TYPE_CHECKING:
    import scipy.sparse

_HEADER_USER_NAMES = {"user", "user_id", "userid", "uid"}
_HEADER_ITEM_NAMES = {"item", "item_id", "itemid", "iid", "movie", "movie_id", "movieid", "song", "song_id"}

SPLIT_FILES = (
    "train.csv",
    "validation_foldin.csv",
    "validation_holdout.csv",
    "test_foldin.csv",
    "test_holdout.csv",
)
# The split files of each group; the manifest holds its user count as
# ``<group>_users``.
_GROUP_FILES = {
    "train": ("train.csv",),
    "validation": ("validation_foldin.csv", "validation_holdout.csv"),
    "test": ("test_foldin.csv", "test_holdout.csv"),
}

_CHUNK_LINES = 8192


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
        import scipy.sparse  # here, not at the top: only gram needs scipy

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


def _chunks(handle):
    """``(first line number, stripped non-blank lines, raw lines)`` per chunk
    of up to _CHUNK_LINES lines of a text file, split as iterating the file
    splits them."""
    first = 1
    while raw := list(itertools.islice(handle, _CHUNK_LINES)):
        yield first, list(filter(None, map(str.strip, raw))), raw
        first += len(raw)


def _index_of(ids, index):
    """Indices of ``ids`` in ``index``; unseen ids are added in order of
    first appearance."""
    fresh = list(dict.fromkeys(itertools.filterfalse(index.__contains__, ids)))
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def _parse_input_chunk(lines, delim, other, check_header):
    """Stripped user ids, item ids and counts of non-blank input lines, or
    None if some line fails a check."""
    counts = np.fromiter(map(str.count, lines, itertools.repeat(delim)),
                         dtype=np.int64, count=len(lines))
    if counts.min() < 1 or counts.max() > 2:
        return None
    if check_header and _looks_like_header(lines[0].split(delim)):
        lines, counts = lines[1:], counts[1:]
        if not lines:
            return [], [], np.zeros(0)
    width = int(counts.max()) + 1
    if counts.min() != counts.max():
        # Mixed 2- and 3-field lines: a 2-field line counts 1.
        lines = [line if c == 2 else f"{line}{delim}1" for line, c in zip(lines, counts.tolist())]
    tokens = delim.join(lines).split(delim)
    users = list(map(str.strip, tokens[0::width]))
    items = list(map(str.strip, tokens[1::width]))
    if "" in users or "" in items or other in "".join(users) or other in "".join(items):
        return None
    if width == 2:
        return users, items, np.ones(len(users))
    try:
        values = np.fromiter(map(float, tokens[2::3]), dtype=np.float64, count=len(users))
    except ValueError:
        return None
    if not (np.isfinite(values).all() and values.min() > 0):
        return None
    return users, items, values


def _raise_input_error(raw, first, delim, other, check_header):
    """Raise the ParseError of the first bad line among ``raw`` (numbered
    from ``first``), checking each line as ``load_interactions`` does."""
    for lineno, raw_line in enumerate(raw, start=first):
        line = raw_line.strip()
        if not line:
            continue
        fields = line.split(delim)
        if len(fields) not in (2, 3):
            raise ParseError(f"expected user{delim}item[{delim}count], got {line!r}", line=lineno)
        if check_header:
            check_header = False
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
    raise AssertionError("a rejected chunk holds no bad line")


def load_interactions(path, fmt: str = "csv", binarize: bool = True):
    """Read a user,item[,count] file into an InteractionMatrix.

    Ids are arbitrary strings without a comma or a tab (the split files use
    both as separators), stripped of surrounding whitespace and mapped to
    dense indices in order of first appearance.  The first non-blank line is
    skipped when it looks like a header.  Duplicate pairs are merged by
    summing counts in file order (then clamped to 1 when binarizing).
    Returns (matrix, user_ids, item_ids) where the id lists map index ->
    original string.
    """
    if fmt not in ("csv", "tsv"):
        raise ValueError(f"format must be 'csv' or 'tsv', got {fmt!r}")
    # A field can not hold ``delim``; ids holding ``other`` are rejected.
    delim, other = (",", "\t") if fmt == "csv" else ("\t", ",")
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, items, values = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    check_header = True
    with open(path, "r", encoding="utf-8") as handle:
        for first, lines, raw in _chunks(handle):
            if not lines:
                continue
            parsed = _parse_input_chunk(lines, delim, other, check_header)
            if parsed is None:
                _raise_input_error(raw, first, delim, other, check_header)
            check_header = False
            users.append(_index_of(parsed[0], user_index))
            items.append(_index_of(parsed[1], item_index))
            values.append(parsed[2])
    users, items, values = map(np.concatenate, (users, items, values))
    if not users.size:
        raise EmptyDataset(f"no interactions found in {path}")
    n = len(item_index)
    pairs, which = np.unique(users * n + items, return_inverse=True)
    if binarize:
        merged = np.ones(pairs.size)
    else:
        # bincount adds in file order, as summing pair by pair would.
        merged = np.bincount(which, weights=values, minlength=pairs.size)
    matrix = InteractionMatrix.from_triples(
        len(user_index), n, pairs // n, pairs % n, merged, binarized=binarize
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
    held = np.sort(np.concatenate([val_users, test_users]))
    train_users = np.setdiff1d(np.arange(m), held)

    # Per held-out user, draw the fold-in subset; iterate in a fixed order so
    # the rng stream (and hence the split) is reproducible.  Triples are
    # sorted by user, so each user's entries form a contiguous range.
    starts = np.cumsum(counts) - counts
    chosen = []
    for lo, cnt in zip(starts[held].tolist(), counts[held].tolist()):
        n_fold = min(max(round(spec.foldin_fraction * cnt), 1), cnt - 1)
        chosen.append(lo + rng.permutation(cnt)[:n_fold])
    foldin_mask = np.zeros(x.nnz, dtype=bool)
    foldin_mask[np.concatenate(chosen)] = True

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


def _id_map_bytes(ids):
    return "".join(map("{}\t{}\n".format, ids, range(len(ids)))).encode("utf-8")


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


def _object_array(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _interaction_chunks(x, row_users, user_names, item_cells):
    """The CSV lines of ``x`` as UTF-8 chunks of _CHUNK_LINES lines.

    ``user_names`` holds every user id and ``item_cells`` every item id
    followed by a comma, as object arrays; each distinct value is formatted
    once.
    """
    distinct, which = np.unique(x.values, return_inverse=True)
    value_cells = _object_array([f"{v:.17g}\n" for v in distinct.tolist()])
    user_cells = user_names[row_users] + ","
    for start in range(0, x.nnz, _CHUNK_LINES):
        rows = slice(start, min(start + _CHUNK_LINES, x.nnz))
        cells = np.empty((rows.stop - start, 3), dtype=object)
        cells[:, 0] = user_cells[x.users[rows]]
        cells[:, 1] = item_cells[x.items[rows]]
        cells[:, 2] = value_cells[which[rows]]
        yield "".join(cells.ravel().tolist()).encode("utf-8")


def save_split_artifacts(out_dir, split: EvalSplit, user_ids, item_ids, spec: SplitSpec):
    """Write the split as CSV files plus id maps and a deterministic manifest,
    each file atomically."""
    from . import serialize  # serialize imports closed_form, which imports this module

    os.makedirs(out_dir, exist_ok=True)
    serialize.write_atomic(os.path.join(out_dir, "users.tsv"), _id_map_bytes(user_ids))
    serialize.write_atomic(os.path.join(out_dir, "items.tsv"), _id_map_bytes(item_ids))
    user_names = _object_array(user_ids)
    item_cells = _object_array(item_ids) + ","
    groups = {
        "train.csv": (split.train, split.train_users),
        "validation_foldin.csv": (split.validation_foldin, split.validation_users),
        "validation_holdout.csv": (split.validation_holdout, split.validation_users),
        "test_foldin.csv": (split.test_foldin, split.test_users),
        "test_holdout.csv": (split.test_holdout, split.test_users),
    }
    for name, (matrix, rows) in groups.items():
        serialize.write_atomic(os.path.join(out_dir, name),
                               *_interaction_chunks(matrix, rows, user_names, item_cells))
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
    serialize.write_atomic(os.path.join(out_dir, "manifest.txt"),
                           ("\n".join(lines) + "\n").encode("utf-8"))


def _parse_split_chunk(lines, user_to_index, item_to_index):
    """Indices and values of non-blank split-file lines, or None if some line
    fails a check."""
    if set(map(str.count, lines, itertools.repeat(","))) != {2}:
        return None
    tokens = ",".join(lines).split(",")
    try:
        parsed = (
            np.fromiter(map(user_to_index.__getitem__, tokens[0::3]), dtype=np.int64,
                        count=len(lines)),
            np.fromiter(map(item_to_index.__getitem__, tokens[1::3]), dtype=np.int64,
                        count=len(lines)),
            np.fromiter(map(float, tokens[2::3]), dtype=np.float64, count=len(lines)),
        )
    except (KeyError, ValueError):
        return None
    if not (np.isfinite(parsed[2]).all() and parsed[2].min() > 0):
        return None
    return parsed


def _raise_split_error(raw, first, user_to_index, item_to_index, name):
    """Raise the ParseError of the first bad line among ``raw`` (numbered
    from ``first``) of split file ``name``, checking each line as
    ``_read_interactions`` does."""
    for lineno, raw_line in enumerate(raw, start=first):
        line = raw_line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ParseError(f"expected user,item,value, got {line!r}", lineno, name)
        try:
            user_to_index[fields[0]], item_to_index[fields[1]]
        except KeyError as missing:
            raise ParseError(f"id {missing} not present in id maps", lineno, name) from None
        try:
            value = float(fields[2])
        except ValueError:
            raise ParseError(f"value {fields[2]!r} is not a number", lineno, name) from None
        if not np.isfinite(value) or value <= 0:
            raise ParseError(f"value must be positive and finite, got {fields[2]!r}", lineno, name)
    raise AssertionError("a rejected chunk holds no bad line")


def _read_interactions(path, user_to_index, item_to_index, num_items, binarized):
    users, items, values = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    with open(path, "r", encoding="utf-8") as handle:
        for first, lines, raw in _chunks(handle):
            if not lines:
                continue
            parsed = _parse_split_chunk(lines, user_to_index, item_to_index)
            if parsed is None:
                _raise_split_error(raw, first, user_to_index, item_to_index,
                                   os.path.basename(path))
            users.append(parsed[0])
            items.append(parsed[1])
            values.append(parsed[2])
    users, items, values = map(np.concatenate, (users, items, values))
    rows, row_of = np.unique(users, return_inverse=True)
    matrix = InteractionMatrix.from_triples(
        rows.size, num_items, row_of, items, values, binarized=binarized
    )
    return matrix, rows


def _manifest_count(manifest, key, actual, name):
    """Check one count of the manifest against what a file holds."""
    try:
        expected = int(manifest[key])
    except (KeyError, ValueError):
        raise ParseError(f"manifest.txt has no integer {key}", line=0) from None
    if actual != expected:
        raise ParseError(
            f"{name} does not match manifest.txt: {key} = {expected}, but the file holds "
            f"{actual}; the split is truncated or stale",
            line=0,
        )


def load_split_artifacts(split_dir, groups=("train", "validation", "test")):
    """Load the artifacts written by save_split_artifacts.

    Returns (EvalSplit, user_ids, item_ids).  Only the files of ``groups``
    (``"train"``, ``"validation"``, ``"test"``) are parsed; the parts of any
    other group are empty 0-row matrices with every item as a column, and
    their user arrays are empty.  The id maps are checked against the
    manifest's user and item counts, and each parsed file against its
    group's user count, so a truncated artifact raises ParseError naming it;
    a bad line of a split file raises ParseError naming the file and line.
    Fold-in and holdout matrices of the same group share row order by
    construction (ascending user index).
    """
    unknown = sorted(set(groups) - set(_GROUP_FILES))
    if unknown:
        raise ValueError(f"unknown split groups {unknown}; expected some of {list(_GROUP_FILES)}")
    manifest = {}
    with open(os.path.join(split_dir, "manifest.txt"), "r", encoding="utf-8") as handle:
        for line in handle:
            if "=" in line:
                key, _, value = line.partition("=")
                manifest[key.strip()] = value.strip()
    binarized = manifest.get("binarized", "false") == "true"
    user_ids = _read_id_map(os.path.join(split_dir, "users.tsv"))
    item_ids = _read_id_map(os.path.join(split_dir, "items.tsv"))
    _manifest_count(manifest, "num_users", len(user_ids), "users.tsv")
    _manifest_count(manifest, "num_items", len(item_ids), "items.tsv")
    user_to_index = {v: k for k, v in enumerate(user_ids)}
    item_to_index = {v: k for k, v in enumerate(item_ids)}
    n = len(item_ids)

    parts, group_users = {}, {}
    for group, names in _GROUP_FILES.items():
        if group not in groups:
            empty = InteractionMatrix.from_triples(0, n, [], [], [], binarized=binarized)
            parts.update(dict.fromkeys(names, empty))
            group_users[group] = np.zeros(0, dtype=np.int64)
            continue
        for name in names:
            parts[name], rows = _read_interactions(
                os.path.join(split_dir, name), user_to_index, item_to_index, n, binarized
            )
            _manifest_count(manifest, f"{group}_users", rows.size, name)
            if group in group_users and not np.array_equal(group_users[group], rows):
                raise ParseError("fold-in and holdout files disagree on user sets", line=0)
            group_users[group] = rows
    return (
        EvalSplit(
            train=parts["train.csv"],
            validation_foldin=parts["validation_foldin.csv"],
            validation_holdout=parts["validation_holdout.csv"],
            test_foldin=parts["test_foldin.csv"],
            test_holdout=parts["test_holdout.csv"],
            train_users=group_users["train"],
            validation_users=group_users["validation"],
            test_users=group_users["test"],
        ),
        user_ids,
        item_ids,
    )
