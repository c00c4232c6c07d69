"""Tests for ingestion, the Gram matrix, and strong-generalization splits."""

import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from edlae import dataset, linalg
from edlae.cli import main
from edlae.dataset import (
    InteractionMatrix,
    SplitSpec,
    gram,
    load_interactions,
    load_split_artifacts,
    save_split_artifacts,
    split_strong_generalization,
)
from edlae.errors import DimensionMismatch, EmptyDataset, InsufficientUsers, ParseError

from oracles import naive_gram


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def traced_peak(fn, *args):
    """``(peak bytes tracemalloc saw during fn(*args), result)``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def triples_outcome(fn, *args, **kwargs):
    """``("ok", users, items, values)`` of a triple check, or its error."""
    try:
        result = fn(*args, **kwargs)
    except (ValueError, DimensionMismatch) as exc:
        return ("error", type(exc), str(exc))
    if isinstance(result, InteractionMatrix):
        result = (result.users, result.items, result.values)
    return ("ok", *(a.tobytes() for a in result), *(a.dtype.str for a in result))


@st.composite
def triple_inputs(draw):
    """Small triples that may be sorted or shuffled, may repeat a pair and
    may hold an out-of-range index or a bad value."""
    num_users, num_items = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pairs = draw(st.lists(st.tuples(st.integers(-1, num_users), st.integers(-1, num_items)),
                          max_size=12))
    pairs = [(u, i) for u, i in pairs if draw(st.integers(0, 9)) == 0
             or (0 <= u < num_users and 0 <= i < num_items)]
    order = draw(st.sampled_from(["sorted", "shuffled", "reversed"]))
    if order == "sorted":
        pairs.sort()
    elif order == "reversed":
        pairs.sort(reverse=True)
    else:
        pairs = draw(st.permutations(pairs))
    good = st.sampled_from([1.0, 1.0, 1.0, 2.0, 0.5])
    values = [draw(good if draw(st.integers(0, 9)) else st.sampled_from([0.0, -1.0, np.nan,
                                                                        np.inf]))
              for _ in pairs]
    users, items = [p[0] for p in pairs], [p[1] for p in pairs]
    if draw(st.integers(0, 19)) == 0:
        values.append(1.0)  # one value too many
    return num_users, num_items, users, items, values, draw(st.booleans())


class TestFromTriples:
    @settings(max_examples=500, deadline=None)
    @given(triple_inputs())
    def test_matches_lexsort_oracle(self, case):
        got = triples_outcome(InteractionMatrix.from_triples, *case)
        assert got == triples_outcome(oracles.lexsorted_triples, *case)

    def test_sorted_arrays_kept_without_copy(self):
        users = np.array([0, 0, 1, 2], dtype=np.int64)
        items = np.array([1, 3, 0, 0], dtype=np.int64)
        values = np.array([1.0, 2.0, 1.0, 0.5])
        x = InteractionMatrix.from_triples(3, 4, users, items, values)
        assert x.users is users and x.items is items and x.values is values

    def test_unsorted_arrays_gathered_in_lexsort_order(self):
        rng = np.random.default_rng(3)
        u, i = np.nonzero(rng.random((300, 40)) < 0.2)
        values = rng.random(u.size) + 0.5
        shuffle = rng.permutation(u.size)
        x = InteractionMatrix.from_triples(300, 40, u[shuffle], i[shuffle], values[shuffle])
        np.testing.assert_array_equal(x.users, u)
        np.testing.assert_array_equal(x.items, i)
        assert x.values.tobytes() == values.tobytes()


class TestLoadInteractions:
    def test_basic_three_rows(self, tmp_path):
        path = write(tmp_path / "d.csv", "u1,i1\nu1,i2\nu2,i1\n")
        matrix, users, items = load_interactions(path)
        assert (matrix.num_users, matrix.num_items, matrix.nnz) == (2, 2, 3)
        assert users == ["u1", "u2"] and items == ["i1", "i2"]

    def test_duplicates_binarized(self, tmp_path):
        path = write(tmp_path / "d.csv", "u1,i1\nu1,i1\n")
        matrix, _, _ = load_interactions(path, binarize=True)
        assert matrix.nnz == 1
        assert matrix.values[0] == 1.0
        assert matrix.binarized

    def test_duplicates_summed_without_binarize(self, tmp_path):
        path = write(tmp_path / "d.csv", "u1,i1,2\nu1,i1,3\n")
        matrix, _, _ = load_interactions(path, binarize=False)
        assert matrix.values[0] == 5.0

    def test_malformed_row(self, tmp_path):
        path = write(tmp_path / "d.csv", "u1,i1\nu1\n")
        with pytest.raises(ParseError) as excinfo:
            load_interactions(path)
        assert excinfo.value.line == 2

    def test_bad_count(self, tmp_path):
        path = write(tmp_path / "d.csv", "u1,i1,abc\n")
        with pytest.raises(ParseError):
            load_interactions(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "\n\n")
        with pytest.raises(EmptyDataset):
            load_interactions(path)

    def test_header_detected(self, tmp_path):
        path = write(tmp_path / "d.csv", "user_id,item_id,count\nu1,i1,2\n")
        matrix, users, _ = load_interactions(path, binarize=False)
        assert matrix.nnz == 1 and users == ["u1"]

    def test_two_column_header_by_name(self, tmp_path):
        path = write(tmp_path / "d.csv", "user,item\nu1,i1\n")
        matrix, users, _ = load_interactions(path)
        assert matrix.nnz == 1 and users == ["u1"]

    @pytest.mark.parametrize("fmt, text", [("csv", "user,item\nu1,i1\nu1,i2\nu2,i1\n"),
                                           ("tsv", "user\titem\nu1\ti1\t2\nu2\ti1\n")],
                             ids=["csv", "tsv"])
    def test_byte_order_mark_before_header(self, tmp_path, fmt, text):
        # spreadsheet exports often begin with a UTF-8 byte-order mark
        plain = load_interactions(write(tmp_path / f"a.{fmt}", text), fmt=fmt, binarize=False)
        marked = load_interactions(write(tmp_path / f"b.{fmt}", "\ufeff" + text), fmt=fmt,
                                   binarize=False)
        assert marked[1:] == plain[1:]
        assert marked[0].to_dense().tobytes() == plain[0].to_dense().tobytes()

    def test_byte_order_mark_without_header(self, tmp_path):
        matrix, users, items = load_interactions(write(tmp_path / "d.csv", "\ufeffu1,i1\nu2,i1\n"))
        assert users == ["u1", "u2"] and items == ["i1"] and matrix.nnz == 2

    def test_tsv(self, tmp_path):
        path = write(tmp_path / "d.tsv", "u1\ti1\t4\nu2\ti2\t1\n")
        matrix, _, _ = load_interactions(path, fmt="tsv", binarize=False)
        assert matrix.nnz == 2 and matrix.values.max() == 4.0

    @pytest.mark.parametrize("fmt, text", [("tsv", "u0\ti1\nu0\titem,3\n"),
                                           ("csv", "u0,i1\nu\t0,i3\n")])
    def test_separator_in_id(self, tmp_path, fmt, text):
        # the split files use commas and tabs as separators
        path = write(tmp_path / f"d.{fmt}", text)
        with pytest.raises(ParseError) as excinfo:
            load_interactions(path, fmt=fmt)
        assert excinfo.value.line == 2


class TestGram:
    def test_identity(self):
        x = InteractionMatrix.from_triples(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        np.testing.assert_array_equal(gram(x), np.eye(2))

    def test_hand_product(self):
        # X = [[1,1],[0,1]] -> X^T X = [[1,1],[1,2]]
        x = InteractionMatrix.from_triples(2, 2, [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(gram(x), np.array([[1.0, 1.0], [1.0, 2.0]]))

    def test_empty_item_column(self):
        x = InteractionMatrix.from_triples(2, 3, [0, 1], [0, 1], [1.0, 1.0])
        g = gram(x)
        assert (g[2, :] == 0).all() and (g[:, 2] == 0).all()

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        u, i = np.nonzero(rng.random((50, 20)) < 0.3)
        x = InteractionMatrix.from_triples(50, 20, u, i, np.ones(u.size))
        g = gram(x)
        assert np.array_equal(g, g.T)

    def test_c_ordered_and_equal_to_the_dense_product(self):
        rng = np.random.default_rng(4)
        dense = (rng.random((70, 40)) < 0.3).astype(np.float64)
        u, i = np.nonzero(dense)
        x = InteractionMatrix.from_triples(70, 40, u, i, np.ones(u.size))
        g = gram(x)
        assert g.flags.c_contiguous and np.array_equal(g, dense.T @ dense)

    def test_mirrors_the_upper_triangle_of_the_product(self):
        rng = np.random.default_rng(2)
        u, i = np.nonzero(rng.random((80, 300)) < 0.1)
        x = InteractionMatrix.from_triples(80, 300, u, i, rng.choice([1.0, 0.3, 7.0], u.size))
        csr = x.to_csr()
        raw = (csr.T @ csr).toarray()
        upper = np.triu(raw, 1)
        assert gram(x).tobytes() == (upper + upper.T + np.diag(np.diag(raw))).tobytes()

    def test_one_dense_buffer(self, monkeypatch):
        # Beyond the sparse product, mirroring allocates one row block.
        monkeypatch.setattr(linalg, "_BLOCK_ROWS", 16)
        n = 500
        rng = np.random.default_rng(3)
        users = np.repeat(np.arange(1000), 2)
        items = np.stack([rng.choice(n, 2, replace=False) for _ in range(1000)]).ravel()
        x = InteractionMatrix.from_triples(1000, n, users, items, np.ones(users.size))

        def product():
            csr = x.to_csr()
            return (csr.T @ csr).toarray()

        product_peak, _ = traced_peak(product)
        peak, _ = traced_peak(gram, x)
        assert peak <= product_peak + 8 * linalg._BLOCK_ROWS * n + 64 * n

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            u, i = np.nonzero(rng.random((60, 15)) < 0.25)
            v = rng.integers(1, 4, size=u.size).astype(float)
            x = InteractionMatrix.from_triples(60, 15, u, i, v)
            assert np.abs(gram(x) - naive_gram(x)).max() <= 1e-10


def random_interactions(seed, m=60, n=12, density=0.4):
    rng = np.random.default_rng(seed)
    u, i = np.nonzero(rng.random((m, n)) < density)
    return InteractionMatrix.from_triples(m, n, u, i, np.ones(u.size), binarized=True)


class TestSplit:
    def test_deterministic(self):
        x = random_interactions(0)
        spec = SplitSpec(0.2, 0.2, seed=7)
        a = split_strong_generalization(x, spec)
        b = split_strong_generalization(x, spec)
        np.testing.assert_array_equal(a.validation_users, b.validation_users)
        np.testing.assert_array_equal(a.test_foldin.items, b.test_foldin.items)

    def test_foldin_fraction(self):
        # one user with exactly 10 items -> 8 fold-in + 2 holdout
        x = InteractionMatrix.from_triples(
            3, 10,
            [0] * 10 + [1, 1, 2, 2],
            list(range(10)) + [0, 1, 2, 3],
            np.ones(14),
        )
        spec = SplitSpec(1 / 3, 1 / 3, foldin_fraction=0.8, seed=0)
        split = split_strong_generalization(x, spec)
        for group_fold, group_hold in (
            (split.validation_foldin, split.validation_holdout),
            (split.test_foldin, split.test_holdout),
        ):
            for row in range(group_fold.num_users):
                fold = (group_fold.users == row).sum()
                hold = (group_hold.users == row).sum()
                total = fold + hold
                if total == 10:
                    assert (fold, hold) == (8, 2)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.6)
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.2)

    def test_insufficient_users(self):
        # only singleton users: nobody is eligible for holdout
        x = InteractionMatrix.from_triples(4, 4, [0, 1, 2, 3], [0, 1, 2, 3], np.ones(4))
        with pytest.raises(InsufficientUsers):
            split_strong_generalization(x, SplitSpec(0.25, 0.25, seed=0))

    def test_partition_properties(self):
        x = random_interactions(3)
        split = split_strong_generalization(x, SplitSpec(0.2, 0.2, seed=1))
        all_users = np.concatenate([split.train_users, split.validation_users, split.test_users])
        assert np.array_equal(np.sort(all_users), np.arange(x.num_users))
        # disjoint fold-in / holdout per user, both non-empty
        for fold, hold in (
            (split.validation_foldin, split.validation_holdout),
            (split.test_foldin, split.test_holdout),
        ):
            assert fold.num_users == hold.num_users
            for row in range(fold.num_users):
                f = set(fold.items[fold.users == row].tolist())
                h = set(hold.items[hold.users == row].tolist())
                assert f and h and not (f & h)

    def test_single_interaction_users_stay_in_train(self):
        triples_u = [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        triples_i = [0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        x = InteractionMatrix.from_triples(6, 2, triples_u, triples_i, np.ones(11))
        split = split_strong_generalization(x, SplitSpec(1 / 6, 1 / 6, seed=2))
        assert 0 in split.train_users

    def test_interaction_count_preserved(self):
        x = random_interactions(4)
        split = split_strong_generalization(x, SplitSpec(0.2, 0.2, seed=3))
        total = (
            split.train.nnz
            + split.validation_foldin.nnz + split.validation_holdout.nnz
            + split.test_foldin.nnz + split.test_holdout.nnz
        )
        assert total == x.nnz


class TestSplitArtifacts:
    def test_roundtrip(self, tmp_path):
        x = random_interactions(5, m=80, n=14)
        spec = SplitSpec(0.15, 0.15, seed=9)
        split = split_strong_generalization(x, spec)
        user_ids = [f"u{i}" for i in range(x.num_users)]
        item_ids = [f"i{j}" for j in range(x.num_items)]
        out = tmp_path / "split"
        save_split_artifacts(out, split, user_ids, item_ids, spec)
        loaded, loaded_items = load_split_artifacts(out)
        assert loaded_items == item_ids
        assert dataset._read_id_map(out / "users.tsv") == user_ids
        for name in ("train_users", "validation_users", "test_users"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(split, name))
        for name in ("train", "validation_foldin", "validation_holdout", "test_foldin", "test_holdout"):
            assert_same_matrix(getattr(loaded, name), getattr(split, name))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(12, 40), n=st.integers(2, 9),
           binarize=st.booleans())
    def test_arrays_round_trip(self, seed, m, n, binarize):
        # Two ingest runs, binarized or counted, write the same arrays, and
        # they read back as the parts of split_strong_generalization: equal
        # indices and users, bit-equal values.
        rng = np.random.default_rng(seed)
        touched = rng.random((m, n)) < 0.5
        touched[np.arange(m), rng.integers(n, size=m)] = True  # every user has an item
        u, i = np.nonzero(touched)
        counts = rng.choice([1.0, 0.1, 1 / 3, 2.5e-300, 7e22, 3.0], size=u.size)
        order = rng.permutation(u.size)
        text = "".join(f"u{a},i{b},{c!r}\n" for a, b, c in zip(
            u[order].tolist(), i[order].tolist(), counts[order].tolist()))
        spec = SplitSpec(0.2, 0.2, seed=seed)
        flags = ["--validation-fraction", "0.2", "--test-fraction", "0.2", "--seed", str(seed),
                 "--binarize", "true" if binarize else "false"]
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            data = write(tmp / "d.csv", text)
            x, _, item_ids = load_interactions(data, binarize=binarize)
            try:
                split = split_strong_generalization(x, spec)
            except InsufficientUsers:
                assume(False)
            for out in ("a", "b"):
                assert main(["ingest", "--data", data, "--out", str(tmp / out), *flags]) == 0
            loaded, loaded_items = load_split_artifacts(tmp / "a")
            arrays = sorted(path.name for path in (tmp / "a").glob("*.npy"))
            assert len(arrays) == (5 if binarize else 10)
            for name in arrays:
                assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()
        assert loaded_items == item_ids
        for name in ("train_users", "validation_users", "test_users"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(split, name))
        for name in ("train", "validation_foldin", "validation_holdout", "test_foldin", "test_holdout"):
            assert_same_matrix(getattr(loaded, name), getattr(split, name))

    def test_user_without_interactions_rejected_before_any_file(self, tmp_path):
        # Users 3 and 7 have no pair, so they stay in train, where the split
        # files could not hold them.
        touched = np.ones((12, 3), dtype=bool)
        touched[[3, 7]] = False
        u, i = np.nonzero(touched)
        x = InteractionMatrix.from_triples(12, 3, u, i, np.ones(u.size))
        spec = SplitSpec(0.2, 0.2, seed=1)
        split = split_strong_generalization(x, spec)
        out = tmp_path / "split"
        out.mkdir()
        with pytest.raises(ValueError, match=r"^train: 2 of its \d+ users have no interactions"):
            save_split_artifacts(out, split, [f"u{k}" for k in range(12)], ["a", "b", "c"], spec)
        assert os.listdir(out) == []

    def test_manifest_is_deterministic(self, tmp_path):
        x = random_interactions(6)
        spec = SplitSpec(0.2, 0.2, seed=4)
        ids_u = [f"u{i}" for i in range(x.num_users)]
        ids_i = [f"i{j}" for j in range(x.num_items)]
        split = split_strong_generalization(x, spec)
        save_split_artifacts(tmp_path / "a", split, ids_u, ids_i, spec)
        save_split_artifacts(tmp_path / "b", split, ids_u, ids_i, spec)
        for name in ("manifest.txt", "train.csv", "users.tsv", "items.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def assert_same_matrix(a, b):
    assert (a.num_users, a.num_items, a.binarized) == (b.num_users, b.num_items, b.binarized)
    np.testing.assert_array_equal(a.users, b.users)
    np.testing.assert_array_equal(a.items, b.items)
    assert a.values.tobytes() == b.values.tobytes()


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("error", type, message, line)`` of a call."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ParseError, EmptyDataset, ValueError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))


def assert_same_outcome(got, want):
    if want[0] == "error" or got[0] == "error":
        assert got == want
        return
    got, want = got[1], want[1]
    assert len(got) == len(want)
    assert_same_matrix(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(np.asarray(a, dtype=object), np.asarray(b, dtype=object))


# Pieces of input files.  Ids come from a small pool, so pairs repeat, and
# may hold characters that str.splitlines() breaks on; one line in four
# files breaks one of the parser's rules.
_ID_CHARS = ["a", "b", "7", "a", "b", "7", "é", "中", "\x1c", "\x85", "\u2028", " ", "."]
_IDS = st.text(alphabet=st.sampled_from(_ID_CHARS), min_size=1, max_size=3).filter(str.strip)
_COUNTS = st.sampled_from(["1", "2", " 3 ", "0.5", "1e3", "2.5", "7", "0.1"])
_BAD = st.sampled_from(["one field", "four fields", "empty id", "separator in id",
                        "0", "-1", "nan", "inf", "abc", ""])
_PAD = st.sampled_from(["", "", "", " ", "\x1c", "\xa0"])
_ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def input_files(draw):
    fmt = draw(st.sampled_from(["csv", "tsv"]))
    delim, other = (",", "\t") if fmt == "csv" else ("\t", ",")
    pool = draw(st.lists(_IDS, min_size=1, max_size=6))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["user,item", "user_id,item_id,count", "uid,song",
                                           "user,item,1", "user,x"])).replace(",", delim))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_PAD))  # blank
            continue
        fields = [draw(_PAD) + draw(st.sampled_from(pool)) + draw(_PAD) for _ in range(2)]
        if draw(st.booleans()):
            fields.append(draw(_COUNTS))
        lines.append(draw(_PAD) + delim.join(fields) + draw(_PAD))
    if lines and draw(st.integers(0, 3)) == 0:
        bad = draw(_BAD)
        fields = {"one field": ["u"], "four fields": ["u", "i", "1", "1"],
                  "empty id": ["u", " "], "separator in id": ["u", f"i{other}j"]}.get(
                      bad, ["u", "i", bad])
        lines.insert(draw(st.integers(0, len(lines))), delim.join(fields))
    text = "".join(line + draw(_ENDINGS) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline at the end of the file
    return fmt, text, draw(st.booleans()), draw(st.sampled_from([1, 2, 3, 8192]))


# Plain input files (see the dataset module docstring): printable ASCII ids
# of 1 to 12 characters, so that some blocks are plain and in others an id
# longer than 8 bytes sends the block line by line, with now and then one
# line that is not plain.
_PLAIN_CHARS = [chr(c) for c in range(0x21, 0x7F) if chr(c) != ","]
_PLAIN_IDS = st.text(alphabet=st.sampled_from(_PLAIN_CHARS), min_size=1, max_size=12)
_NOT_PLAIN = st.sampled_from(["one field", "empty id", "two delimiters", "counted",
                              "padded", "non-ascii", "other separator", "blank with space"])


@st.composite
def plain_files(draw):
    fmt = draw(st.sampled_from(["csv", "tsv"]))
    delim, other = (",", "\t") if fmt == "csv" else ("\t", ",")
    pool = draw(st.lists(_PLAIN_IDS, min_size=1, max_size=8, unique=True))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["user,item", "uid,song", "user,x"])).replace(",", delim))
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        else:
            lines.append(delim.join(draw(st.sampled_from(pool)) for _ in range(2)))
    if lines and draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), {
            "one field": "u", "empty id": f"u{delim}", "two delimiters": f"u{delim}i{delim}j",
            "counted": f"u{delim}i{delim}2", "padded": f" u{delim}i", "non-ascii": f"u{delim}\xe9",
            "other separator": f"u{delim}i{other}j", "blank with space": " "}[draw(_NOT_PLAIN)])
    text = "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline at the end of the file
    return fmt, text, draw(st.booleans()), draw(st.sampled_from([1, 5, 17, 64, 8192]))


def spy(monkeypatch, name):
    """Count the calls of the dataset function ``name``."""
    calls = []
    real = getattr(dataset, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dataset, name, counted)
    return calls


def assert_parse_matches_oracle(fmt, text, binarize, block):
    """``load_interactions`` of ``text`` read in blocks of ``block``
    characters has the oracle's outcome; blocks of a few characters cut
    lines in the middle."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"d.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        want = outcome(oracles.load_interactions, path, fmt=fmt, binarize=binarize)
        with mock.patch.object(dataset, "_BLOCK_CHARS", block):
            got = outcome(load_interactions, path, fmt=fmt, binarize=binarize)
    assert_same_outcome(got, want)


class TestParsersMatchOracles:
    @settings(max_examples=400, deadline=None)
    @given(input_files())
    def test_load_interactions(self, case):
        assert_parse_matches_oracle(*case)

    @settings(max_examples=300, deadline=None)
    @given(plain_files())
    def test_plain_blocks_match_oracle(self, case):
        assert_parse_matches_oracle(*case)

    def test_plain_and_other_blocks_alternate(self, tmp_path, monkeypatch):
        # Blocks of about one line: padded lines and lines with non-ASCII ids
        # go line by line, the others through numpy, and ids keep the order
        # in which the file first names them.
        lines = []
        for k in range(60):
            user, item = f"u{k % 7}" + "x" * (k % 7), f"item{k % 5}"
            lines.append({0: f" {user},{item}", 1: f"{user},\xe9{item}"}.get(k % 4, f"{user},{item}"))
        path = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", 8)
        plain = spy(monkeypatch, "_plain_column")
        other = spy(monkeypatch, "_parse_input_chunk")
        got = outcome(load_interactions, path, binarize=False)
        assert len(plain) == 2 * 30 and len(other) == 30
        assert_same_outcome(got, outcome(oracles.load_interactions, path, binarize=False))

    @pytest.mark.parametrize("block", [8192, 1 << 18])
    def test_benchmark_input_takes_the_plain_path(self, tmp_path, monkeypatch, block):
        # The benchmark's generator writes a header and u<k>,i<k> lines; every
        # block of them is parsed in numpy, with the same result.
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        try:
            import gen
        finally:
            sys.path.pop(0)
        path = tmp_path / "d.csv"
        gen.write_csv(path, *gen.interactions(3, 2000, 300, 8))
        want = outcome(load_interactions, str(path))
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", block)

        def refuse(*args):
            raise AssertionError("a benchmark input block was parsed line by line")

        monkeypatch.setattr(dataset, "_parse_input_chunk", refuse)
        got = outcome(load_interactions, str(path))
        assert got[1][0].nnz > 10_000
        assert_same_outcome(got, want)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 8192])
    def test_bad_line_in_a_later_chunk(self, tmp_path, chunk, monkeypatch):
        lines = [f"u{k},i{k % 3}" for k in range(10)]
        lines[7] = "u7,i1,-2"
        path = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", chunk)
        with pytest.raises(ParseError) as excinfo:
            load_interactions(path)
        assert excinfo.value.line == 8

    def test_ids_keep_characters_splitlines_breaks_on(self, tmp_path):
        text = "u\x1c0,i\x851\nu\u20282,i 3\r\nu4,i\x0c5\n"
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        matrix, users, items = load_interactions(str(path))
        assert users == ["u\x1c0", "u\u20282", "u4"]
        assert items == ["i\x851", "i 3", "i\x0c5"]
        assert matrix.nnz == 3

    def test_many_repeats_summed_sequentially_in_file_order(self, tmp_path):
        # 20 repeats of one pair, among other pairs: a pairwise sum (numpy's
        # add.reduce, reduceat) or a sum in another order would round apart.
        rng = np.random.default_rng(11)
        counts = rng.random(20) * 10.0 ** rng.integers(-3, 17, 20)
        assert np.add.reduce(counts) != sum(counts.tolist())  # the test can tell them apart
        lines = []
        for k, c in enumerate(counts.tolist()):
            lines += [f"u,i,{c!r}\n", f"u{k % 3},i{k % 5},{c!r}\n"]
        path = write(tmp_path / "d.csv", "".join(lines))
        matrix, users, items = load_interactions(path, binarize=False)
        total = 0.0
        for c in counts.tolist():
            total += c
        row = (matrix.users == users.index("u")) & (matrix.items == items.index("i"))
        assert matrix.values[row].tolist() == [total]
        want = outcome(oracles.load_interactions, path, binarize=False)
        assert_same_outcome(("ok", (matrix, users, items)), want)

    def test_ingest_memory_bounded_per_line(self, tmp_path):
        # Parsing, merging and splitting ~100k lines holds the parsed pairs,
        # the matrix and its split, but no redundant full-size copy of them:
        # every int64 or float64 copy of the triples is 8 bytes a line.
        lines = 100_000
        rng = np.random.default_rng(4)
        pairs = zip(rng.integers(0, 10_000, lines).tolist(), rng.integers(0, 500, lines).tolist())
        path = write(tmp_path / "d.csv", "".join(f"u{u},i{i}\n" for u, i in pairs))

        def ingest():
            x, _, _ = load_interactions(path)
            return split_strong_generalization(x, SplitSpec(0.1, 0.1, seed=1))

        peak, split = traced_peak(ingest)
        assert split.train.nnz > 0.7 * lines
        assert peak < 80 * lines

    def test_long_id_among_short_lines_memory_bounded(self, tmp_path):
        # A 4 KiB id among 30k short lines: its block is parsed line by line,
        # so no line's key is as wide as the longest id.  Keys that wide
        # would take about 100 MB here; the parse holds about 20 bytes per
        # byte of the file.
        lines = [f"u{k % 5000},i{k % 300}" for k in range(30_000)]
        lines[12_345] = "u" * 4096 + ",i1"
        path = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        peak, (x, user_ids, _) = traced_peak(load_interactions, path)
        assert x.nnz == len(set(lines)) and "u" * 4096 in user_ids
        assert peak < 40 * os.path.getsize(path)

    def test_duplicate_counts_summed_in_file_order(self, tmp_path):
        counts = ["0.1", "0.2", "0.3", "1e16"]
        path = write(tmp_path / "d.csv", "".join(f"u,i,{c}\n" for c in counts))
        matrix, _, _ = load_interactions(path, binarize=False)
        total = 0.0
        for c in counts:
            total += float(c)
        assert matrix.values[0] == total


class TestSplitMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_foldin_draw(self, seed):
        self.check(seed, 0.7)

    def test_half_way_fold_in_sizes_round_to_even(self):
        # Half of an odd count lies half way: 2.5 keeps 2 pairs, 3.5 keeps 4.
        split = self.check(3, 0.5)
        counts = split.test_foldin.user_counts() + split.test_holdout.user_counts()
        assert (counts % 2 == 1).any()

    def check(self, seed, foldin_fraction):
        x = random_interactions(seed, m=90, n=15, density=0.3)
        spec = SplitSpec(0.2, 0.3, foldin_fraction=foldin_fraction, seed=seed)
        split = split_strong_generalization(x, spec)
        # the draws before the fold-in masks: the user permutation
        rng = np.random.default_rng(spec.seed)
        rng.permutation(np.flatnonzero(x.user_counts() >= 2))
        held = np.concatenate([split.validation_users, split.test_users])
        mask = oracles.foldin_mask(x, held, spec.foldin_fraction, rng)
        want = set(zip(x.users[mask].tolist(), x.items[mask].tolist()))
        got = set()
        for part, rows in ((split.validation_foldin, split.validation_users),
                           (split.test_foldin, split.test_users)):
            got |= set(zip(rows[part.users].tolist(), part.items.tolist()))
        assert got == want
        return split


class TestSplitFiles:
    @pytest.mark.parametrize("chunk", [1, 2, 5, 8192])
    def test_written_bytes_match_oracle(self, tmp_path, chunk, monkeypatch):
        rng = np.random.default_rng(chunk)
        touched = rng.random((40, 9)) < 0.4
        touched[:, 0] |= ~touched.any(axis=1)  # the files hold only users with a pair
        u, i = np.nonzero(touched)
        values = rng.choice([1.0, 0.1, 1 / 3, 2.5e-300, 7e22, 3.0], size=u.size)
        x = InteractionMatrix.from_triples(40, 9, u, i, values)
        spec = SplitSpec(0.2, 0.2, seed=1)
        split = split_strong_generalization(x, spec)
        user_ids = [f"u\x1c{k} é" for k in range(40)]
        item_ids = [f"i\x85{k}" for k in range(9)]
        monkeypatch.setattr(dataset, "_CHUNK_LINES", chunk)
        save_split_artifacts(tmp_path, split, user_ids, item_ids, spec)
        for name, part, rows in (
            ("train.csv", split.train, split.train_users),
            ("validation_holdout.csv", split.validation_holdout, split.validation_users),
            ("test_foldin.csv", split.test_foldin, split.test_users),
        ):
            want = oracles.interactions_text(part, rows, user_ids, item_ids).encode("utf-8")
            assert (tmp_path / name).read_bytes() == want
            # the arrays as np.save writes them, indices stacked and values apart
            arrays = tmp_path / "np.save"
            arrays.mkdir(exist_ok=True)
            np.save(arrays / "pairs.npy", np.stack([rows[part.users], part.items]))
            np.save(arrays / "values.npy", part.values)
            stem = name.removesuffix(".csv")
            assert (tmp_path / f"{stem}.npy").read_bytes() == (arrays / "pairs.npy").read_bytes()
            assert ((tmp_path / f"{stem}.values.npy").read_bytes()
                    == (arrays / "values.npy").read_bytes())
        assert (tmp_path / "users.tsv").read_bytes() == "".join(
            f"{name}\t{k}\n" for k, name in enumerate(user_ids)).encode("utf-8")
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


def saved_split(tmp_path, seed=5):
    x = random_interactions(seed, m=80, n=14)
    spec = SplitSpec(0.15, 0.15, seed=9)
    split = split_strong_generalization(x, spec)
    user_ids = [f"u{i}" for i in range(x.num_users)]
    item_ids = [f"i{j}" for j in range(x.num_items)]
    out = tmp_path / "split"
    save_split_artifacts(out, split, user_ids, item_ids, spec)
    return out, split


class TestLoadGroups:
    def test_only_requested_groups_parsed(self, tmp_path):
        out, split = saved_split(tmp_path)
        for part in ("train", "validation_foldin", "validation_holdout"):
            os.remove(out / f"{part}.csv")
            os.remove(out / f"{part}.npy")
        loaded, items = load_split_artifacts(out, ("test",))
        assert_same_matrix(loaded.test_holdout, split.test_holdout)
        np.testing.assert_array_equal(loaded.test_users, split.test_users)
        for name in ("train", "validation_foldin", "validation_holdout"):
            part = getattr(loaded, name)
            assert (part.num_users, part.num_items, part.nnz) == (0, len(items), 0)
        assert loaded.train_users.size == 0 and loaded.validation_users.size == 0

    def test_unknown_group(self, tmp_path):
        out, _ = saved_split(tmp_path)
        with pytest.raises(ValueError, match="holdout"):
            load_split_artifacts(out, ("train", "holdout"))
