"""Tests for ingestion, the Gram matrix, and strong-generalization splits."""

import numpy as np
import pytest

from edlae.dataset import (
    InteractionMatrix,
    SplitSpec,
    gram,
    load_interactions,
    load_split_artifacts,
    save_split_artifacts,
    split_strong_generalization,
)
from edlae.errors import EmptyDataset, InsufficientUsers, ParseError

from oracles import naive_gram


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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
        loaded, loaded_users, loaded_items = load_split_artifacts(out)
        assert loaded_users == user_ids and loaded_items == item_ids
        np.testing.assert_array_equal(loaded.train_users, split.train_users)
        np.testing.assert_array_equal(loaded.test_users, split.test_users)
        for name in ("train", "validation_foldin", "validation_holdout", "test_foldin", "test_holdout"):
            a, b = getattr(split, name), getattr(loaded, name)
            np.testing.assert_array_equal(a.users, b.users)
            np.testing.assert_array_equal(a.items, b.items)
            np.testing.assert_array_equal(a.values, b.values)

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
