"""Tests for fold-in scoring and ranking metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edlae import evaluate
from edlae.closed_form import LowRankModel
from edlae.dataset import InteractionMatrix
from edlae.errors import DimensionMismatch, EmptyHoldout
from edlae.evaluate import _top_lists, ndcg_at_k, recall_at_k, score_users

from oracles import brute_ndcg, brute_recall, csr_scores, holdout_sets


def interactions(num_users, num_items, triples):
    users = [t[0] for t in triples]
    items = [t[1] for t in triples]
    return InteractionMatrix.from_triples(num_users, num_items, users, items, np.ones(len(triples)))


class TestScoreUsers:
    def test_zero_model_scores_zero_except_mask(self):
        foldin = interactions(2, 4, [(0, 1), (1, 2)])
        model = LowRankModel(u=np.zeros((4, 2)), v=np.zeros((4, 2)), rank=2)
        scores = score_users(model, foldin)
        assert scores[0, 1] == -np.inf and scores[1, 2] == -np.inf
        finite = np.isfinite(scores)
        assert (scores[finite] == 0).all()

    def test_unit_vector_full_rank(self):
        b = np.array([[0.0, 0.3, 0.7], [0.3, 0.0, 0.1], [0.7, 0.1, 0.0]])
        model = LowRankModel(u=b, v=np.eye(3), rank=3)
        foldin = interactions(1, 3, [(0, 1)])  # user row = e_1
        scores = score_users(model, foldin)
        assert scores[0, 1] == -np.inf
        np.testing.assert_allclose(scores[0, [0, 2]], b[1, [0, 2]])

    def test_low_rank_matches_materialized_product(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((20, 3))
        v = rng.standard_normal((20, 3))
        model = LowRankModel(u=u, v=v, rank=3)
        triples = [(a, b) for a in range(5) for b in rng.choice(20, 4, replace=False)]
        foldin = interactions(5, 20, triples)
        scores = score_users(model, foldin)
        direct = foldin.to_dense() @ (u @ v.T)
        direct[foldin.users, foldin.items] = -np.inf
        finite = np.isfinite(scores)
        assert ((scores == -np.inf) == (direct == -np.inf)).all()
        assert np.abs(scores[finite] - direct[finite]).max() <= 1e-12

    def test_plain_matrix_model(self):
        # a plain item-item matrix B is scored as the factor pair (B, I)
        foldin = interactions(1, 3, [(0, 0)])
        scores = score_users(LowRankModel(u=np.eye(3), v=np.eye(3), rank=3), foldin)
        assert scores[0, 0] == -np.inf

    def test_dimension_mismatch(self):
        foldin = interactions(1, 3, [(0, 0)])
        model = LowRankModel(u=np.zeros((4, 1)), v=np.zeros((4, 1)), rank=1)
        with pytest.raises(DimensionMismatch):
            score_users(model, foldin)


# Fold-in values beyond what ingest writes: non-binary, negative and -0.0.
_FOLDIN_VALUES = np.array([1.0, 1.0, 0.5, 3.0, 0.1, 7e5, 1e-3, -2.0, -0.0, -0.3])


def foldin_matrix(mask, values):
    """An InteractionMatrix of the nonzero positions of ``mask``, built
    directly so that any value is allowed; triples come out sorted by
    (user, item), as from_triples sorts them."""
    users, items = np.nonzero(mask)
    return InteractionMatrix(mask.shape[0], mask.shape[1], users.astype(np.int64),
                             items.astype(np.int64), values, False)


class TestScoreUsersMatchesCsr:
    """score_users sums X U in numpy; it must equal the CSR product bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        num_users=st.integers(0, 14),
        num_items=st.integers(1, 40),
        k=st.integers(1, 5),
        density=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
        heavy=st.booleans(),
        binary=st.booleans(),
        scale=st.sampled_from([1.0, 1e-8, 1e8]),
        block=st.sampled_from([1, 3, 8, evaluate._FOLD_IN_BLOCK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_csr_product(self, num_users, num_items, k, density, heavy, binary,
                                      scale, block, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((num_users, num_items)) < density  # some users have no items
        if heavy and num_users:
            mask[rng.integers(num_users)] = rng.random(num_items) < 0.9  # one heavy user
        nnz = int(mask.sum())
        values = np.ones(nnz) if binary else rng.choice(_FOLDIN_VALUES, size=nnz)
        foldin = foldin_matrix(mask, values)
        u = scale * rng.standard_normal((num_items, k))
        v = rng.standard_normal((num_items, k))
        original = evaluate._FOLD_IN_BLOCK
        evaluate._FOLD_IN_BLOCK = block  # values of X U per block: 1 to several rows
        try:
            got = score_users(LowRankModel(u=u, v=v, rank=k), foldin)
        finally:
            evaluate._FOLD_IN_BLOCK = original
        want = csr_scores(u, v, foldin)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # also the signs of zeros

    @pytest.mark.parametrize("shape", [(0, 6), (5, 6), (1, 1)])
    def test_no_fold_in_items(self, shape):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal((shape[1], 3)), rng.standard_normal((shape[1], 3))
        foldin = foldin_matrix(np.zeros(shape, dtype=bool), np.zeros(0))
        got = score_users(LowRankModel(u=u, v=v, rank=3), foldin)
        assert got.shape == shape
        assert got.tobytes() == csr_scores(u, v, foldin).tobytes()

    def test_rank_one_with_a_heavy_user(self):
        rng = np.random.default_rng(2)
        mask = rng.random((30, 200)) < 0.02
        mask[17] = True  # 200 items against about 4 for everyone else
        foldin = foldin_matrix(mask, rng.choice(_FOLDIN_VALUES, size=int(mask.sum())))
        u, v = rng.standard_normal((200, 1)), rng.standard_normal((200, 1))
        got = score_users(LowRankModel(u=u, v=v, rank=1), foldin)
        assert got.tobytes() == csr_scores(u, v, foldin).tobytes()


class TestNdcg:
    def test_single_item_at_rank_one(self):
        scores = np.array([[5.0, 1.0, 0.0]])
        holdout = interactions(1, 3, [(0, 0)])
        assert ndcg_at_k(scores, holdout, 3).mean == pytest.approx(1.0)

    def test_hand_two_item_case(self):
        # hits at ranks 1 and 3: (1 + 1/log2 4) / (1 + 1/log2 3)
        scores = np.array([[5.0, 4.0, 3.0, 2.0]])
        holdout = interactions(1, 4, [(0, 0), (0, 2)])
        expected = (1.0 + 1.0 / np.log2(4)) / (1.0 + 1.0 / np.log2(3))
        assert ndcg_at_k(scores, holdout, 100).mean == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9197, abs=5e-5)

    def test_miss_scores_zero(self):
        scores = np.array([[0.0, 1.0, 2.0, 3.0]])
        holdout = interactions(1, 4, [(0, 0)])
        assert ndcg_at_k(scores, holdout, 2).mean == 0.0

    def test_empty_holdout_rejected(self):
        scores = np.zeros((2, 3))
        holdout = interactions(2, 3, [(0, 1)])  # user 1 has nothing
        with pytest.raises(EmptyHoldout):
            ndcg_at_k(scores, holdout, 3)

    def test_nan_scores_rejected(self):
        scores = np.array([[1.0, np.nan, -np.inf]])
        holdout = interactions(1, 3, [(0, 0)])
        with pytest.raises(ValueError, match="NaN"):
            ndcg_at_k(scores, holdout, 2)
        with pytest.raises(ValueError, match="NaN"):
            recall_at_k(scores, holdout, 2)

    def test_masked_scores_allowed(self):
        scores = np.array([[1.0, -np.inf, 2.0]])
        holdout = interactions(1, 3, [(0, 0)])
        assert recall_at_k(scores, holdout, 2).mean == pytest.approx(1.0)

    def test_ties_broken_by_item_index(self):
        scores = np.array([[1.0, 1.0, 1.0]])
        holdout = interactions(1, 3, [(0, 2)])
        # all tied: item 2 lands at rank 3
        expected = (1.0 / np.log2(4)) / 1.0
        assert ndcg_at_k(scores, holdout, 3).mean == pytest.approx(expected)


class TestRecall:
    def test_all_hits(self):
        scores = np.array([[3.0, 2.0, 1.0, 0.0]])
        holdout = interactions(1, 4, [(0, 0), (0, 1)])
        assert recall_at_k(scores, holdout, 2).mean == pytest.approx(1.0)

    def test_no_hits(self):
        scores = np.array([[0.0, 0.0, 5.0, 4.0]])
        holdout = interactions(1, 4, [(0, 0), (0, 1)])
        assert recall_at_k(scores, holdout, 2).mean == pytest.approx(0.0)

    def test_half_hits(self):
        scores = np.array([[5.0, 0.0, 4.0, 1.0]])
        holdout = interactions(1, 4, [(0, 0), (0, 1)])
        assert recall_at_k(scores, holdout, 2).mean == pytest.approx(0.5)

    def test_cutoff_normalization(self):
        # 3 holdout items, cutoff 2, both top-2 hit: 2 / min(2, 3) = 1
        scores = np.array([[5.0, 4.0, 3.0, 0.0, 0.0]])
        holdout = interactions(1, 5, [(0, 0), (0, 1), (0, 3)])
        assert recall_at_k(scores, holdout, 2).mean == pytest.approx(1.0)


class TestProperties:
    def random_case(self, seed, num_users=6, num_items=10):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((num_users, num_items))
        triples = []
        for u in range(num_users):
            for i in rng.choice(num_items, size=int(rng.integers(1, 4)), replace=False):
                triples.append((u, int(i)))
        return scores, interactions(num_users, num_items, triples)

    @pytest.mark.parametrize("cutoff", [1, 3, 5, 10])
    def test_matches_brute_force(self, cutoff):
        for seed in range(5):
            scores, holdout = self.random_case(seed)
            sets = holdout_sets(holdout)
            np.testing.assert_allclose(
                ndcg_at_k(scores, holdout, cutoff).per_user, brute_ndcg(scores, sets, cutoff),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                recall_at_k(scores, holdout, cutoff).per_user, brute_recall(scores, sets, cutoff),
                atol=1e-12,
            )

    def test_scale_invariance(self):
        scores, holdout = self.random_case(7)
        base_ndcg = ndcg_at_k(scores, holdout, 5).per_user
        base_recall = recall_at_k(scores, holdout, 5).per_user
        scaled = scores * np.array([3.0, 0.5, 10.0, 1.0, 2.0, 7.0])[:, None]
        np.testing.assert_allclose(ndcg_at_k(scaled, holdout, 5).per_user, base_ndcg, atol=1e-12)
        np.testing.assert_allclose(recall_at_k(scaled, holdout, 5).per_user, base_recall, atol=1e-12)

    def test_range_and_cutoff_monotonicity(self):
        # The normalized metrics are not monotone in the cutoff (their ideal
        # normalizer grows too); the accumulated gain and hit count are.
        for seed in range(4):
            scores, holdout = self.random_case(seed + 20)
            counts = holdout.user_counts()
            prev_dcg = np.zeros(scores.shape[0])
            prev_hits = np.zeros(scores.shape[0])
            for cutoff in (1, 2, 4, 8, 10):
                res = ndcg_at_k(scores, holdout, cutoff)
                rec = recall_at_k(scores, holdout, cutoff)
                assert 0.0 <= res.mean <= 1.0 and res.stderr >= 0.0
                assert 0.0 <= rec.mean <= 1.0 and rec.stderr >= 0.0
                width = min(cutoff, scores.shape[1])
                discounts = 1.0 / np.log2(np.arange(2, width + 2))
                idcg = np.concatenate([[0.0], np.cumsum(discounts)])[np.minimum(counts, width)]
                dcg = res.per_user * idcg
                hits = rec.per_user * np.minimum(counts, cutoff)
                assert (dcg >= prev_dcg - 1e-12).all()
                assert (hits >= prev_hits - 1e-9).all()
                prev_dcg, prev_hits = dcg, hits

    def test_masked_items_never_ranked(self):
        rng = np.random.default_rng(30)
        u = rng.standard_normal((12, 2))
        v = rng.standard_normal((12, 2))
        model = LowRankModel(u=u, v=v, rank=2)
        triples = [(a, b) for a in range(4) for b in rng.choice(12, 5, replace=False)]
        foldin = interactions(4, 12, triples)
        scores = score_users(model, foldin)
        top = np.argsort(-scores, axis=1, kind="stable")[:, :6]
        fold = holdout_sets(foldin)
        for user in range(4):
            assert not (set(top[user].tolist()) & fold[user])

    def test_stderr_semantics(self):
        scores = np.array([[2.0, 1.0], [1.0, 2.0]])
        holdout = interactions(2, 2, [(0, 0), (1, 0)])
        res = ndcg_at_k(scores, holdout, 2)
        expected = res.per_user.std(ddof=1) / np.sqrt(2)
        assert res.stderr == pytest.approx(float(expected))


def stable_top(scores, cutoff):
    """The reference ranking: leading columns of a full stable sort."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :cutoff]


class TestTopLists:
    def test_ties_at_the_boundary(self):
        # candidates tied with the 2nd-best score lie on both sides of the cut
        scores = np.array([[1.0, 3.0, 1.0, 1.0, 2.0, 1.0]])
        np.testing.assert_array_equal(_top_lists(scores, 3), [[1, 4, 0]])

    def test_all_tied(self):
        scores = np.zeros((3, 7))
        np.testing.assert_array_equal(_top_lists(scores, 4), np.tile(np.arange(4), (3, 1)))

    def test_masked_rows_with_few_finite_scores(self):
        inf = np.inf
        scores = np.array([
            [-inf, 0.5, -inf, -inf, 0.2, -inf],   # 2 finite scores, cutoff 4
            [-inf, -inf, -inf, -inf, -inf, -inf],  # nothing rankable
            [0.1, -inf, 0.3, 0.2, -inf, 0.0],     # 4 finite scores
        ])
        np.testing.assert_array_equal(
            _top_lists(scores, 4), [[1, 4, 0, 2], [0, 1, 2, 3], [2, 3, 0, 5]]
        )

    def test_cutoff_one(self):
        scores = np.array([[0.0, 2.0, 2.0, 1.0], [-np.inf, -np.inf, 0.0, 0.0]])
        np.testing.assert_array_equal(_top_lists(scores, 1), [[1], [2]])

    @pytest.mark.parametrize("cutoff", [5, 6, 100])
    def test_cutoff_at_least_n(self, cutoff):
        scores = np.array([[1.0, -np.inf, 3.0, 1.0, 3.0]])
        np.testing.assert_array_equal(_top_lists(scores, cutoff), [[2, 4, 0, 3, 1]])

    def test_rejects_cutoff_below_one(self):
        with pytest.raises(ValueError, match="cutoff"):
            _top_lists(np.zeros((1, 3)), 0)

    @pytest.mark.parametrize("num_users", [1, 7, 8, 9, 23])
    def test_partial_last_block(self, monkeypatch, num_users):
        monkeypatch.setattr(evaluate, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(num_users)
        scores = rng.integers(0, 3, size=(num_users, 12)).astype(np.float64)
        scores[rng.random(scores.shape) < 0.3] = -np.inf
        for cutoff in (1, 3, 5, 12):
            np.testing.assert_array_equal(_top_lists(scores, cutoff), stable_top(scores, cutoff))

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 15)),
        levels=st.integers(1, 4),
        mask_share=st.sampled_from([0.0, 0.3, 0.9]),
        cutoff=st.integers(1, 18),
        block_rows=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_stable_sort(self, shape, levels, mask_share, cutoff, block_rows, seed):
        # scores from a few integers tie heavily at every boundary; -inf
        # masks leave some rows with fewer finite scores than the cutoff
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=shape).astype(np.float64)
        scores[rng.random(shape) < mask_share] = -np.inf
        original = evaluate._BLOCK_ROWS
        evaluate._BLOCK_ROWS = block_rows
        try:
            top = _top_lists(scores, cutoff)
        finally:
            evaluate._BLOCK_ROWS = original
        np.testing.assert_array_equal(top, stable_top(scores, cutoff))

    @pytest.mark.parametrize("cutoff", [1, 2, 4, 7, 12])
    def test_metrics_match_brute_force_on_ties(self, cutoff):
        rng = np.random.default_rng(cutoff)
        num_users, num_items = 9, 12
        scores = rng.integers(0, 3, size=(num_users, num_items)).astype(np.float64)
        scores[rng.random(scores.shape) < 0.25] = -np.inf
        triples = [(u, int(i)) for u in range(num_users)
                   for i in rng.choice(num_items, size=int(rng.integers(1, 5)), replace=False)]
        holdout = interactions(num_users, num_items, triples)
        sets = holdout_sets(holdout)
        np.testing.assert_allclose(
            ndcg_at_k(scores, holdout, cutoff).per_user, brute_ndcg(scores, sets, cutoff),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            recall_at_k(scores, holdout, cutoff).per_user, brute_recall(scores, sets, cutoff),
            atol=1e-12,
        )
