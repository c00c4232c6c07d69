"""Sparse interaction ingestion, Gram matrix, and strong-generalization splits.

Interactions are (user, item, value) triples over dense integer indices;
string ids from input files are mapped to indices in order of first
appearance and the mapping is persisted next to the split files so that
evaluation is reproducible across runs.

Input files are read in blocks of about ``_BLOCK_CHARS`` characters, each
cut after its last newline, with no Python loop per row.  Lines end where
iterating a text file ends them (at ``\n``, ``\r\n`` or ``\r``), never at
the other characters ``str.splitlines`` breaks on.  A block is plain when it
is ASCII, every byte is printable (0x21-0x7E), a newline or the delimiter,
none is the other separator, and every non-blank line holds exactly one
delimiter with a field of 1 to 8 bytes on each side.  A plain block is
parsed in numpy: each field becomes one integer key, its bytes read as a
``<u8``, one ``np.unique`` a column finds the block's distinct ids, and
only those are decoded and looked up in the id dicts.  Any other block
(non-ASCII ids, padding whitespace, an id longer than 8 bytes, a count
column, a bad line) is parsed line by line as
a chunk: it is joined and split once, its fields are slices of the token
list, and ids map to indices through dict lookups done by ``map``.  Both
give the same ids, order and errors, since stripping a plain field changes
nothing.  A chunk that fails a check is parsed again one line at a time by
the same parser, so an error names the first bad line, with the message of
the first check that line fails.  Output CSV files are written in chunks of
``_CHUNK_LINES`` lines.

The split's layout is one table, ``_SPLIT_GROUPS``, of each group's parts.
A part is the EvalSplit field of that name, written as ``<part>.csv`` with
string ids, for other tools, and as ``<part>.npy``, the ``(2, nnz)`` int64
array of each pair's original user and item index in (user, item) order
(plus ``<part>.values.npy`` unless binarized).  A group's users are the
field and the manifest key ``<group>_users``.  Every file is written
atomically (``serialize.write_atomic``), so a failed ingest leaves no
half-written one.  ``load_split_artifacts`` reads the manifest (with
``serialize.read_record``), ``items.tsv`` and the arrays of the groups a
command uses, each checked against the manifest's counts.
Only ``gram`` needs scipy (a sparse product); ``to_csr`` imports it when
called, so parsing and splitting run on numpy alone.

Ingest sorts once.  ``load_interactions`` turns each line's pair into one
int64 key, ``user * num_items + item``, built in place as the parsed blocks
are released, and merges repeated pairs from the sorted keys.  Every matrix
after that, the split parts included, is built from triples already in
(user, item) order, which ``InteractionMatrix.from_triples`` checks and
keeps without a copy.  No full-size copy of the triples outlives its step.
"""

from __future__ import annotations

import io
import itertools
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import serialize
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InsufficientUsers,
    ParseError,
)
from .linalg import _mirror_lower

if TYPE_CHECKING:
    import scipy.sparse

_HEADER_USER_NAMES = {"user", "user_id", "userid", "uid"}
_HEADER_ITEM_NAMES = {"item", "item_id", "itemid", "iid", "movie", "movie_id", "movieid", "song", "song_id"}

# The split's layout (see the module docstring): each group's parts.
_SPLIT_GROUPS = {
    "train": ("train",),
    "validation": ("validation_foldin", "validation_holdout"),
    "test": ("test_foldin", "test_holdout"),
}
SPLIT_FILES = tuple(f"{part}.csv" for parts in _SPLIT_GROUPS.values() for part in parts)
_MANIFEST_HEADER = "edlae split manifest v2"

_CHUNK_LINES = 8192
# Input files are parsed in blocks of about this many characters.
_BLOCK_CHARS = 1 << 18
# The bytes a plain block may hold besides the delimiter (see the module
# docstring).
_PLAIN_BYTES = np.zeros(256, dtype=bool)
_PLAIN_BYTES[0x21:0x7F] = True
_PLAIN_BYTES[ord("\n")] = True
# Masks of the low w bytes of a uint64, for w = 0..8.
_LOW_BYTES = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype=np.uint64)


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
        """The matrix of the given triples, checked and sorted by (user, item).

        Triples already in that order, as every caller in this package passes
        them, are kept as given: int64 users and items and float64 values are
        held without a copy.  Others are gathered once in the order of a
        stable argsort of the key ``user * num_items + item``, which is the
        order of ``np.lexsort((items, users))``.  Duplicate pairs are found as
        equal adjacent keys.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (users.shape == items.shape == values.shape) or users.ndim != 1:
            raise DimensionMismatch("users, items, values must be equal-length 1-d arrays")
        if users.size:
            if users.min() < 0 or users.max() >= num_users:
                raise ValueError("user index out of range")
            if items.min() < 0 or items.max() >= num_items:
                raise ValueError("item index out of range")
            key = users * num_items + items
            steps = np.diff(key)
            if steps.min(initial=0) < 0:
                order = np.argsort(key, kind="stable")
                users, items, values = users[order], items[order], values[order]
                steps = np.diff(key[order])
            if steps.min(initial=1) == 0:
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


def _blocks(handle):
    """``(first line number, text)`` of each block of whole lines of a text
    file: about _BLOCK_CHARS characters at a time, cut after the last newline
    and without it.  Lines end where iterating the file ends them.  Only the
    text just read is searched for a newline, and the pieces of a line that
    spans reads are joined once, so a long line costs time linear in it."""
    first, pieces = 1, []
    while data := handle.read(_BLOCK_CHARS):
        cut = data.rfind("\n")
        if cut < 0:
            pieces.append(data)
            continue
        pieces.append(data[:cut])
        block = "".join(pieces)
        yield first, block
        first += block.count("\n") + 1
        pieces = [data[cut + 1:]]
    rest = "".join(pieces)
    if rest:
        yield first, rest


def _index_of(ids, index):
    """Indices of ``ids`` in ``index``; unseen ids are added in order of
    first appearance."""
    fresh = list(dict.fromkeys(itertools.filterfalse(index.__contains__, ids)))
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def _plain_lines(block, delim, other):
    """``(bytes, starts, cuts, ends)`` of the non-blank lines of a plain
    block (see the module docstring): line i is ``block[starts[i]:ends[i]]``
    and its delimiter is at ``cuts[i]``.  The bytes are the block's, then 8
    zeros.  None for any other block."""
    if not block.isascii():
        return None
    raw = block.encode("ascii")
    text = np.frombuffer(raw, dtype=np.uint8)
    allowed = _PLAIN_BYTES.copy()
    allowed[ord(delim)] = True
    allowed[ord(other)] = False
    if not allowed[text].all():
        return None
    ends = np.append(np.flatnonzero(text == ord("\n")), text.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    full = ends > starts
    starts, ends = starts[full], ends[full]
    cuts = np.flatnonzero(text == ord(delim))
    # Cut i inside line i for every i, and as many cuts as lines: one a line,
    # with 1 to 8 bytes on each side of it.
    if cuts.size != starts.size:
        return None
    users, items = cuts - starts, ends - cuts - 1
    if not ((users >= 1) & (users <= 8) & (items >= 1) & (items <= 8)).all():
        return None
    return np.frombuffer(raw + bytes(8), dtype=np.uint8), starts, cuts, ends


def _plain_column(block, data, starts, ends):
    """``(distinct fields in order of first appearance, each field's
    position among them)`` of the fields ``block[starts[i]:ends[i]]``, each
    1 to 8 bytes, of a plain block whose ``_plain_lines`` bytes are
    ``data``.  A field's key is its bytes read as a ``<u8`` through an
    8-byte window, the bytes past the field masked off.  No field holds a
    zero byte, so equal keys are equal fields."""
    windows = np.ndarray(data.size - 7, dtype="<u8", buffer=data, strides=(1,))
    keys = windows[starts]
    keys &= _LOW_BYTES[ends - starts]
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct keys in order of first appearance
    first = first[order]
    ids = list(map(block.__getitem__, map(slice, starts[first].tolist(), ends[first].tolist())))
    return ids, order.argsort()[which]


class _BadLine(Exception):
    """A chunk parser's check failed; the message is the check's for the
    chunk's first line, so it is exact for a one-line chunk."""


def _parse_lines(first, block, header, delim, other):
    """``_parse_input_chunk`` of the non-blank lines of a block whose first
    line is line ``first``, or None when it has none.  When the parser
    rejects them, they are parsed again one line at a time: the first bad
    line raises ParseError with the parser's message and the line number."""
    raw = block.split("\n")
    lines = list(filter(None, map(str.strip, raw)))
    if not lines:
        return None
    try:
        return _parse_input_chunk(lines, header, delim, other)
    except _BadLine:
        for lineno, line in enumerate(map(str.strip, raw), start=first):
            if line:
                try:
                    _parse_input_chunk([line], header, delim, other)
                except _BadLine as bad:
                    raise ParseError(str(bad), lineno) from None
                header = False
        raise AssertionError("a rejected block holds no bad line") from None


def _block_columns(first, block, header, delim, other):
    """The user column, item column and counts of the non-blank lines of a
    block whose first line is line ``first``, or None when it has none.  A
    column is ``(ids, which)``: its line i holds ``ids[which[i]]``.  A plain
    block is parsed by ``_plain_lines`` and ``_plain_column``, any other by
    ``_parse_lines``.  ``header`` is true for the file's first non-blank
    line, which is skipped when it looks like a header."""
    plain = _plain_lines(block, delim, other)
    if plain is None:
        parsed = _parse_lines(first, block, header, delim, other)
        if parsed is None:
            return None
        users, items, values = parsed
        return (users, slice(None)), (items, slice(None)), values
    data, starts, cuts, ends = plain
    if not starts.size:
        return None
    if header and _looks_like_header(block[starts[0]:ends[0]].split(delim)):
        starts, cuts, ends = starts[1:], cuts[1:], ends[1:]
    return (_plain_column(block, data, starts, cuts), _plain_column(block, data, cuts + 1, ends),
            np.ones(starts.size))


def _parse_input_chunk(lines, header, delim, other):
    """Stripped user ids, item ids and counts of non-blank input lines, the
    first skipped when ``header`` is true and it looks like a header.  Each
    check runs on every line before the next; one that fails raises _BadLine."""
    counts = np.fromiter(map(str.count, lines, itertools.repeat(delim)),
                         dtype=np.int64, count=len(lines))
    if counts.min() < 1 or counts.max() > 2:
        raise _BadLine(f"expected user{delim}item[{delim}count], got {lines[0]!r}")
    if header and _looks_like_header(lines[0].split(delim)):
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
    if "" in users or "" in items:
        raise _BadLine(f"empty user or item id in {lines[0]!r}")
    if other in "".join(users) or other in "".join(items):
        raise _BadLine(f"user or item id contains {other!r} in {lines[0]!r}")
    if width == 2:
        return users, items, np.ones(len(users))
    try:
        values = np.fromiter(map(float, tokens[2::3]), dtype=np.float64, count=len(users))
    except ValueError:
        raise _BadLine(f"count {tokens[2]!r} is not a number") from None
    if not (np.isfinite(values).all() and values.min() > 0):
        raise _BadLine(f"count must be positive and finite, got {tokens[2]!r}")
    return users, items, values


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
    header = True
    with open(path, "r", encoding="utf-8-sig") as handle:
        for first, block in _blocks(handle):
            columns = _block_columns(first, block, header, delim, other)
            if columns is None:
                continue
            header = False
            (block_users, user_rows), (block_items, item_rows), block_values = columns
            users.append(_index_of(block_users, user_index)[user_rows])
            items.append(_index_of(block_items, item_index)[item_rows])
            if not binarize:  # binarized counts are checked, then dropped
                values.append(block_values)
            # The block's ids are not needed while the next one is parsed.
            del columns, block_users, block_items
    n = len(item_index)
    # Each line's pair as one key, user * n + item, built in place; each
    # block list is released as soon as it is concatenated.
    keys = np.concatenate(users)
    del users
    if not keys.size:
        raise EmptyDataset(f"no interactions found in {path}")
    keys *= n
    keys += np.concatenate(items)
    del items
    if binarize:
        # Sort the keys and keep the first of each run of equal ones.
        keys.sort(kind="stable")
        first_of_run = np.empty(keys.size, dtype=bool)
        first_of_run[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first_of_run[1:])
        pairs = keys[first_of_run]
        del keys, first_of_run
        merged = np.ones(pairs.size)
    else:
        pairs, which = np.unique(keys, return_inverse=True)
        del keys
        # bincount adds in file order, as summing pair by pair would.
        merged = np.bincount(which, weights=np.concatenate(values), minlength=pairs.size)
        del which, values
    pair_users, pair_items = np.divmod(pairs, n)
    del pairs
    matrix = InteractionMatrix.from_triples(
        len(user_index), n, pair_users, pair_items, merged, binarized=binarize
    )
    return matrix, list(user_index), list(item_index)


def gram(x: InteractionMatrix) -> np.ndarray:
    """Item-item co-occurrence matrix X^T X, dense, exactly symmetric and
    C-ordered.

    The upper triangle of the sparse product is mirrored onto the lower one
    in place, a block at a time, so the output is symmetric by construction,
    not merely up to rounding, and the dense result is the only n x n buffer.
    The product is a CSC matrix whose dense form is Fortran-ordered; being
    exactly symmetric, it equals its transpose, which is returned as the
    C-ordered array the training chain's products and copies read without
    a transposing copy.
    """
    if x.num_items < 1:
        raise DimensionMismatch("gram requires at least one item")
    csr = x.to_csr()
    g = (csr.T @ csr).toarray().astype(np.float64, copy=False)
    del csr
    # The lower triangle of g.T is g's upper one: mirror it in place.
    _mirror_lower(g.T)
    return g.T


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


def _submatrix(x, num_rows, row_of, select):
    """The triples of x where ``select`` holds, in a matrix of ``num_rows``
    users; user u becomes row ``row_of[u]``."""
    return InteractionMatrix.from_triples(
        num_rows, x.num_items, row_of[x.users[select]], x.items[select], x.values[select],
        x.binarized,
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
    for name, fraction, count in (("validation", spec.validation_fraction, n_val),
                                  ("test", spec.test_fraction, n_test)):
        if count < 1:
            raise InsufficientUsers(
                f"{name} fraction {fraction:g} of {m} users rounds to 0 {name} users; "
                "each held-out part needs at least 1"
            )
    if n_val + n_test > eligible.size:
        raise InsufficientUsers(
            f"need {n_val} validation + {n_test} test users with >= 2 interactions, "
            f"have {eligible.size} eligible of {m} total"
        )
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(eligible)
    val_users = np.sort(perm[:n_val])
    test_users = np.sort(perm[n_val : n_val + n_test])
    held = np.sort(np.concatenate([val_users, test_users]))
    part = np.zeros(m, dtype=np.int8)  # each user's part: 0 train, 1 validation, 2 test
    part[val_users] = 1
    part[test_users] = 2
    train_users = np.flatnonzero(part == 0)
    row_of = np.empty(m, dtype=np.int64)  # each user's row within its part
    for users in (train_users, val_users, test_users):
        row_of[users] = np.arange(users.size)

    # Per held-out user, draw the fold-in subset; iterate in a fixed order so
    # the rng stream (and hence the split) is reproducible.  Triples are
    # sorted by user, so each user's entries form a contiguous range.  A
    # user keeps round(foldin_fraction * count) entries (rint rounds half to
    # even, as round does), at least one and all but one.
    held_counts = counts[held]
    n_fold = np.clip(np.rint(spec.foldin_fraction * held_counts), 1, held_counts - 1)
    n_fold = n_fold.astype(np.int64)
    chosen = np.concatenate([
        rng.permutation(cnt)[:k] for cnt, k in zip(held_counts.tolist(), n_fold.tolist())])
    chosen += np.repeat((np.cumsum(counts) - counts)[held], n_fold)
    foldin_mask = np.zeros(x.nnz, dtype=bool)
    foldin_mask[chosen] = True
    part_of = part[x.users]

    return EvalSplit(
        train=_submatrix(x, train_users.size, row_of, part_of == 0),
        validation_foldin=_submatrix(x, val_users.size, row_of, (part_of == 1) & foldin_mask),
        validation_holdout=_submatrix(x, val_users.size, row_of, (part_of == 1) & ~foldin_mask),
        test_foldin=_submatrix(x, test_users.size, row_of, (part_of == 2) & foldin_mask),
        test_holdout=_submatrix(x, test_users.size, row_of, (part_of == 2) & ~foldin_mask),
        train_users=train_users,
        validation_users=val_users,
        test_users=test_users,
    )


def _id_map_bytes(ids):
    return "".join(map("{}\t{}\n".format, ids, range(len(ids)))).encode("utf-8")


def _read_id_map(path):
    """The ids of a map that ``_id_map_bytes`` wrote: the i-th non-blank line
    must be ``id<TAB>i``, and no id may repeat, so a reordered or edited map
    raises ParseError instead of moving ids."""
    index = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected id<TAB>index, got {line!r}", lineno,
                                 os.path.basename(path))
            i = len(index)
            if parts[1] != str(i):
                raise ParseError(f"expected index {i}, got {parts[1]!r}", lineno,
                                 os.path.basename(path))
            if index.setdefault(parts[0], i) != i:
                raise ParseError(f"id {parts[0]!r} repeats index {index[parts[0]]}", lineno,
                                 os.path.basename(path))
    return list(index)


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


def _write_array(path, descr, *rows):
    """Write the array of ``descr`` values whose rows are ``rows`` (of one
    row, the 1-d array) as ``np.save`` would, without stacking them."""
    rows = [np.ascontiguousarray(row, dtype=descr) for row in rows]
    shape = (rows[0].size,) if len(rows) == 1 else (len(rows), rows[0].size)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": shape})
    serialize.write_atomic(path, header.getvalue(), *rows)


def save_split_artifacts(out_dir, split: EvalSplit, user_ids, item_ids, spec: SplitSpec):
    """Write the split as CSV files plus id maps, as index arrays (see the
    module docstring) and a deterministic manifest, each file atomically.

    The files hold a part's users only through their pairs, so a part with
    a user who has none raises ValueError before any file is written.
    """
    parts = [(part, getattr(split, part), getattr(split, f"{group}_users"))
             for group, names in _SPLIT_GROUPS.items() for part in names]
    for part, x, _ in parts:
        empty = x.num_users - np.count_nonzero(x.user_counts())
        if empty:
            raise ValueError(f"{part}: {empty} of its {x.num_users} users have no "
                             "interactions, which the split files can not store")
    os.makedirs(out_dir, exist_ok=True)
    serialize.write_atomic(os.path.join(out_dir, "users.tsv"), _id_map_bytes(user_ids))
    serialize.write_atomic(os.path.join(out_dir, "items.tsv"), _id_map_bytes(item_ids))
    user_names = _object_array(user_ids)
    item_cells = _object_array(item_ids) + ","
    for part, x, row_users in parts:
        serialize.write_atomic(os.path.join(out_dir, f"{part}.csv"),
                               *_interaction_chunks(x, row_users, user_names, item_cells))
    arrays = []
    for part, x, row_users in parts:
        arrays.append(f"{part}.npy")
        _write_array(os.path.join(out_dir, arrays[-1]), "<i8", row_users[x.users], x.items)
        if not split.train.binarized:
            arrays.append(f"{part}.values.npy")
            _write_array(os.path.join(out_dir, arrays[-1]), "<f8", x.values)
    serialize.write_record(os.path.join(out_dir, "manifest.txt"), [
        ("seed", spec.seed), ("validation_fraction", spec.validation_fraction),
        ("test_fraction", spec.test_fraction), ("foldin_fraction", spec.foldin_fraction),
        ("num_users", len(user_ids)), ("num_items", len(item_ids)),
        ("binarized", split.train.binarized),
        *((f"{group}_users", getattr(split, f"{group}_users").size) for group in _SPLIT_GROUPS),
        ("files", " ".join(("users.tsv", "items.tsv", *SPLIT_FILES, *arrays))),
    ], header=_MANIFEST_HEADER)


def _read_array(split_dir, name, descr, shape):
    """The C-ordered ``descr`` array of ``shape`` (a length of -1 may be any)
    in the ``.npy`` file ``name``; anything else, or a file that can not be
    read whole, raises ParseError naming the file."""
    try:
        with open(os.path.join(split_dir, name), "rb") as handle:
            array = np.load(handle, allow_pickle=False)
        if not isinstance(array, np.ndarray):
            raise ValueError("an .npz archive, not an array")
    except (OSError, ValueError, EOFError, MemoryError) as exc:  # MemoryError: a huge header
        raise ParseError(f"not a readable .npy array: {exc}", file=name) from None
    if not (array.dtype == np.dtype(descr) and array.flags.c_contiguous
            and len(array.shape) == len(shape)
            and all(want in (-1, got) for want, got in zip(shape, array.shape))):
        order = "C" if array.flags.c_contiguous else "Fortran"
        raise ParseError(f"expected a C-ordered {descr} array of shape {shape}, got a {order}-"
                         f"ordered {array.dtype.str} array of shape {array.shape}", file=name)
    return array


def _read_part(split_dir, part, num_users, num_items, binarized):
    """The matrix of one part's arrays and the original index of each row's
    user; a new row starts where the user index changes.  A user index out
    of ``[0, num_users)`` or decreasing, an item index out of range, a
    repeated pair, a value that is not positive and finite, and a values
    file in a binarized split or missing from another raise ParseError."""
    name, values_name = f"{part}.npy", f"{part}.values.npy"
    users, items = _read_array(split_dir, name, "<i8", (2, -1))
    if binarized:
        if os.path.exists(os.path.join(split_dir, values_name)):
            raise ParseError("a binarized split has no values file", file=values_name)
        values = np.ones(users.size)
    else:
        values = _read_array(split_dir, values_name, "<f8", (users.size,))
        if not (np.isfinite(values).all() and values.min(initial=1.0) > 0):
            raise ParseError("values must be positive and finite", file=values_name)
    step = np.diff(users, prepend=users[:1] - 1)  # 1 at the first pair
    if step.min(initial=0) < 0:
        raise ParseError("user indices decrease", file=name)
    if users.size and (users[0] < 0 or users[-1] >= num_users):
        raise ParseError(f"user index outside [0, {num_users})", file=name)
    first = step != 0  # each user's first pair
    try:
        matrix = InteractionMatrix.from_triples(np.count_nonzero(first), num_items,
                                                np.cumsum(first) - 1, items, values, binarized)
    except ValueError as exc:  # an item index out of range or a repeated pair
        raise ParseError(str(exc), file=name) from None
    return matrix, users[first]


def _manifest_int(manifest, key):
    try:
        return int(manifest[key])
    except (KeyError, ValueError):
        raise ParseError(f"no integer {key}", file="manifest.txt") from None


def _manifest_count(manifest, key, actual, name, what):
    """Check one count of the manifest against the ``what`` file ``name`` holds."""
    expected = _manifest_int(manifest, key)
    if actual != expected:
        raise ParseError(
            f"{name} holds {actual} {what}, manifest says {key} = {expected}; "
            "the split is truncated or stale",
            file="manifest.txt",
        )


def load_split_artifacts(split_dir, groups=("train", "validation", "test")):
    """The split that save_split_artifacts wrote, read from its arrays.

    Returns (EvalSplit, item_ids).  Only the arrays of ``groups``
    (``"train"``, ``"validation"``, ``"test"``) are read; the parts of any
    other group are empty 0-row matrices with every item as a column, and
    their user arrays are empty.  The user count comes from the manifest,
    so no CSV file and not ``users.tsv`` is read.  A fault of the manifest,
    of ``items.tsv`` or of an array (see ``_read_part``), and a count that
    disagrees with the manifest, raise ParseError naming the file.
    Fold-in and holdout matrices of the same group share row order by
    construction (ascending user index).
    """
    unknown = sorted(set(groups) - set(_SPLIT_GROUPS))
    if unknown:
        raise ValueError(f"unknown split groups {unknown}; expected some of {list(_SPLIT_GROUPS)}")
    manifest = serialize.read_record(os.path.join(split_dir, "manifest.txt"),
                                     header=_MANIFEST_HEADER, file="manifest.txt")
    binarized = manifest.get("binarized")
    if binarized not in ("true", "false"):
        raise ParseError(f"binarized must be true or false, got {binarized!r}",
                         file="manifest.txt")
    binarized = binarized == "true"
    num_users = _manifest_int(manifest, "num_users")
    item_ids = _read_id_map(os.path.join(split_dir, "items.tsv"))
    _manifest_count(manifest, "num_items", len(item_ids), "items.tsv", "ids")
    n = len(item_ids)

    fields = {}
    for group, parts in _SPLIT_GROUPS.items():
        users = f"{group}_users"
        if group not in groups:
            empty = InteractionMatrix.from_triples(0, n, [], [], [], binarized=binarized)
            fields.update(dict.fromkeys(parts, empty))
            fields[users] = np.zeros(0, dtype=np.int64)
            continue
        for part in parts:
            fields[part], rows = _read_part(split_dir, part, num_users, n, binarized)
            _manifest_count(manifest, users, rows.size, f"{part}.npy", "users")
            if not np.array_equal(fields.setdefault(users, rows), rows):
                raise ParseError(f"{parts[0]}.npy and {part}.npy hold different users")
    return EvalSplit(**fields), item_ids
