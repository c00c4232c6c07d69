"""Tests for fold-in scoring and ranking metrics."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from edlae import evaluate
from edlae.closed_form import LowRankModel
from edlae.dataset import InteractionMatrix
from edlae.errors import DimensionMismatch, EmptyHoldout
from edlae.evaluate import _top_lists, ndcg_at_k, ranking_metrics, recall_at_k, score_users

from oracles import (
    brute_ndcg,
    brute_recall,
    csr_scores,
    holdout_sets,
    per_metric_ndcg,
    per_metric_recall,
)


def interactions(num_users, num_items, triples):
    users = [t[0] for t in triples]
    items = [t[1] for t in triples]
    return InteractionMatrix.from_triples(num_users, num_items, users, items, np.ones(len(triples)))


class TestScoreUsers:
    def test_zero_model_scores_zero_except_mask(self):
        foldin = interactions(2, 4, [(0, 1), (1, 2)])
        model = LowRankModel(u=np.zeros((4, 2)), v=np.zeros((4, 2)))
        scores = score_users(model, foldin)
        assert scores[0, 1] == -np.inf and scores[1, 2] == -np.inf
        finite = np.isfinite(scores)
        assert (scores[finite] == 0).all()

    def test_unit_vector_full_rank(self):
        b = np.array([[0.0, 0.3, 0.7], [0.3, 0.0, 0.1], [0.7, 0.1, 0.0]])
        model = LowRankModel(u=b, v=np.eye(3))
        foldin = interactions(1, 3, [(0, 1)])  # user row = e_1
        scores = score_users(model, foldin)
        assert scores[0, 1] == -np.inf
        np.testing.assert_allclose(scores[0, [0, 2]], b[1, [0, 2]])

    def test_low_rank_matches_materialized_product(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((20, 3))
        v = rng.standard_normal((20, 3))
        model = LowRankModel(u=u, v=v)
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
        scores = score_users(LowRankModel(u=np.eye(3), v=np.eye(3)), foldin)
        assert scores[0, 0] == -np.inf

    def test_dimension_mismatch(self):
        foldin = interactions(1, 3, [(0, 0)])
        model = LowRankModel(u=np.zeros((4, 1)), v=np.zeros((4, 1)))
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
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_csr_product(self, num_users, num_items, k, density, heavy, binary,
                                      scale, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((num_users, num_items)) < density  # some users have no items
        if heavy and num_users:
            mask[rng.integers(num_users)] = rng.random(num_items) < 0.9  # one heavy user
        nnz = int(mask.sum())
        values = np.ones(nnz) if binary else rng.choice(_FOLDIN_VALUES, size=nnz)
        foldin = foldin_matrix(mask, values)
        u = scale * rng.standard_normal((num_items, k))
        v = rng.standard_normal((num_items, k))
        got = score_users(LowRankModel(u=u, v=v), foldin)
        want = csr_scores(u, v, foldin)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # also the signs of zeros

    @pytest.mark.parametrize("k", [129, 384])
    def test_fold_in_bit_equal_at_large_rank(self, k):
        # one heavy user among light ones, with non-unit values, at ranks
        # where a block's X U is more than 32,768 values
        rng = np.random.default_rng(k)
        users, n = evaluate._BLOCK_ROWS, 500
        mask = rng.random((users, n)) < 0.02
        mask[rng.integers(users)] = rng.random(n) < 0.9
        foldin = foldin_matrix(mask, rng.choice(_FOLDIN_VALUES, size=int(mask.sum())))
        u = rng.standard_normal((n, k))
        want = scipy.sparse.csr_matrix((foldin.values, (foldin.users, foldin.items)),
                                       shape=(users, n)) @ u
        assert evaluate._fold_in(foldin, u).tobytes() == want.tobytes()

    def test_score_blocks_hold_a_fraction_of_the_whole_x_u(self):
        users, n, k = 20_000, 300, 64
        rng = np.random.default_rng(5)
        mask = rng.random((users, n)) < 0.01
        foldin = foldin_matrix(mask, rng.choice(_FOLDIN_VALUES, size=int(mask.sum())))
        model = LowRankModel(u=rng.standard_normal((n, k)), v=rng.standard_normal((n, k)))
        tracemalloc.start()
        try:
            for _ in evaluate._score_blocks(model, foldin):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * users * k * 8  # bytes of the whole set's X U

    def test_fold_in_sees_at_most_one_scoring_block(self, monkeypatch):
        rng = np.random.default_rng(7)
        model, foldin, holdout = model_case(rng, 3 * evaluate._BLOCK_ROWS + 5, 40, 8, 2, 0.5)
        fold_in, sizes = evaluate._fold_in, []

        def spy(rows, u):
            sizes.append(rows.num_users)
            return fold_in(rows, u)

        monkeypatch.setattr(evaluate, "_fold_in", spy)
        score_users(model, foldin)
        evaluate.model_metrics(model, foldin, holdout)
        assert sizes == 2 * ([evaluate._BLOCK_ROWS] * 3 + [5])

    def test_fold_in_reuses_its_step_buffer(self):
        # 800 users of about 16 unit-valued fold-in items, as in a validation
        # fold-in: the result, the accumulator and the step buffer are three
        # result sizes; the rest is per-user index arrays, and no pass
        # allocates a temporary.
        users, n, k = 800, 600, 16
        rng = np.random.default_rng(6)
        mask = rng.random((users, n)) < 16 / n
        foldin = foldin_matrix(mask, np.ones(int(mask.sum())))
        u = rng.standard_normal((n, k))
        tracemalloc.start()
        try:
            xu = evaluate._fold_in(foldin, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = scipy.sparse.csr_matrix((foldin.values, (foldin.users, foldin.items)),
                                       shape=(users, n)) @ u
        assert xu.tobytes() == want.tobytes()
        assert peak <= 3.4 * xu.nbytes

    @pytest.mark.parametrize("shape", [(0, 6), (5, 6), (1, 1)])
    def test_no_fold_in_items(self, shape):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal((shape[1], 3)), rng.standard_normal((shape[1], 3))
        foldin = foldin_matrix(np.zeros(shape, dtype=bool), np.zeros(0))
        got = score_users(LowRankModel(u=u, v=v), foldin)
        assert got.shape == shape
        assert got.tobytes() == csr_scores(u, v, foldin).tobytes()

    def test_rank_one_with_a_heavy_user(self):
        rng = np.random.default_rng(2)
        mask = rng.random((30, 200)) < 0.02
        mask[17] = True  # 200 items against about 4 for everyone else
        foldin = foldin_matrix(mask, rng.choice(_FOLDIN_VALUES, size=int(mask.sum())))
        u, v = rng.standard_normal((200, 1)), rng.standard_normal((200, 1))
        got = score_users(LowRankModel(u=u, v=v), foldin)
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

    def test_nan_check_allocates_no_score_sized_temporary(self):
        # a users x n boolean mask of NaN entries would be scores.size bytes
        users, n = 2000, 500
        scores = np.random.default_rng(0).random((users, n))
        holdout = interactions(users, n, [(u, u % n) for u in range(users)])
        tracemalloc.start()
        try:
            evaluate._check_eval_inputs(scores, holdout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scores.size // 16

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
        model = LowRankModel(u=u, v=v)
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
        # ranking_metrics ranks 4-row blocks; the last one may be partial
        monkeypatch.setattr(evaluate, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(num_users)
        scores, holdout = tied_case(rng, num_users, 12, 3, 0.3, 0)
        sets = holdout_sets(holdout)
        for cutoff in (1, 3, 5, 12):
            ndcg, recall = ranking_metrics(scores, holdout, (("ndcg", cutoff), ("recall", cutoff)))
            np.testing.assert_allclose(ndcg.per_user, brute_ndcg(scores, sets, cutoff), atol=1e-12)
            np.testing.assert_allclose(recall.per_user, brute_recall(scores, sets, cutoff),
                                       atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 15)),
        levels=st.integers(1, 4),
        mask_share=st.sampled_from([0.0, 0.3, 0.9]),
        cutoff=st.integers(1, 18),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_stable_sort(self, shape, levels, mask_share, cutoff, seed):
        # scores from a few integers tie heavily at every boundary; -inf
        # masks leave some rows with fewer finite scores than the cutoff
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=shape).astype(np.float64)
        scores[rng.random(shape) < mask_share] = -np.inf
        np.testing.assert_array_equal(_top_lists(scores, cutoff), stable_top(scores, cutoff))

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


def per_metric(scores, holdout, name, cutoff):
    oracle = per_metric_ndcg if name == "ndcg" else per_metric_recall
    return oracle(scores, holdout, cutoff)


def assert_same_results(got, scores, holdout, metrics):
    assert [(r.metric, r.cutoff) for r in got] == list(metrics)
    for res, (name, cutoff) in zip(got, metrics):
        want = per_metric(scores, holdout, name, cutoff)
        assert np.array_equal(res.per_user, want.per_user)
        assert res.per_user.dtype == want.per_user.dtype
        assert res.mean == want.mean and res.stderr == want.stderr


def tied_case(rng, num_users, num_items, levels, mask_share, dead_rows):
    """Scores from a few integer levels, so that ties straddle every cutoff;
    some entries and ``dead_rows`` whole rows are -inf; each user holds 1 to 4
    holdout items."""
    scores = rng.integers(0, levels, size=(num_users, num_items)).astype(np.float64)
    scores[rng.random(scores.shape) < mask_share] = -np.inf
    scores[rng.permutation(num_users)[:dead_rows]] = -np.inf
    triples = [(u, int(i)) for u in range(num_users)
               for i in rng.choice(num_items, size=int(rng.integers(1, min(4, num_items) + 1)),
                                   replace=False)]
    return scores, interactions(num_users, num_items, triples)


_METRIC = st.tuples(st.sampled_from(["ndcg", "recall"]), st.integers(1, 20))


class TestRankingMetrics:
    """ranking_metrics ranks once for every metric; each result must equal
    the per-metric computation (its own top list, a dense relevance mask)
    exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        num_users=st.integers(1, 13),
        num_items=st.integers(1, 15),
        levels=st.integers(1, 4),
        mask_share=st.sampled_from([0.0, 0.3, 0.9]),
        dead_rows=st.integers(0, 3),
        metrics=st.lists(_METRIC, min_size=1, max_size=4),
        block_rows=st.sampled_from([1, 3, evaluate._BLOCK_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_metric_oracles(self, num_users, num_items, levels, mask_share,
                                       dead_rows, metrics, block_rows, seed):
        rng = np.random.default_rng(seed)
        scores, holdout = tied_case(rng, num_users, num_items, levels, mask_share, dead_rows)
        original = evaluate._BLOCK_ROWS
        evaluate._BLOCK_ROWS = block_rows
        try:
            got = ranking_metrics(scores, holdout, metrics)
        finally:
            evaluate._BLOCK_ROWS = original
        assert_same_results(got, scores, holdout, metrics)

    @pytest.mark.parametrize("block_rows", [1, 3, 256])
    @pytest.mark.parametrize("metrics", [
        (("ndcg", 100), ("recall", 20), ("recall", 50)),
        (("recall", 50), ("ndcg", 100), ("recall", 20)),
        (("recall", 20), ("recall", 20), ("ndcg", 7)),
    ])
    def test_many_users_in_partial_blocks(self, monkeypatch, block_rows, metrics):
        # 601 users: not a multiple of any block size; 130 items, so ties
        # straddle cutoffs 20 and 50, and n is above cutoff 100
        monkeypatch.setattr(evaluate, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows)
        scores, holdout = tied_case(rng, 601, 130, 6, 0.1, 5)
        assert_same_results(ranking_metrics(scores, holdout, metrics), scores, holdout, metrics)

    @pytest.mark.parametrize("block_rows", [1, 3, 256])
    def test_ndcg_equals_brute_force_exactly(self, monkeypatch, block_rows):
        # DCG adds each hit's discount in rank order, as brute_ndcg does, in
        # every block size; ties straddle the cutoffs, and some entries and
        # whole rows are masked.  Users hold up to 25 of the 60 items.
        monkeypatch.setattr(evaluate, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(11)
        scores, _ = tied_case(rng, 300, 60, 5, 0.2, 4)
        scores[:100] += rng.standard_normal((100, 60))  # and rows with no ties
        holdout = interactions(300, 60, [(u, int(i)) for u in range(300)
                                         for i in rng.choice(60, size=int(rng.integers(1, 26)),
                                                             replace=False)])
        sets = holdout_sets(holdout)
        cutoffs = (1, 7, 20, 60, 100)
        results = ranking_metrics(scores, holdout, [("ndcg", c) for c in cutoffs])
        for cutoff, res in zip(cutoffs, results):
            assert res.per_user.tolist() == brute_ndcg(scores, sets, cutoff)

    def test_default_metrics(self):
        rng = np.random.default_rng(5)
        scores, holdout = tied_case(rng, 40, 60, 3, 0.2, 2)
        got = ranking_metrics(scores, holdout)
        assert_same_results(got, scores, holdout,
                            (("ndcg", 100), ("recall", 20), ("recall", 50)))

    def test_wrappers_are_single_metric_calls(self):
        rng = np.random.default_rng(6)
        scores, holdout = tied_case(rng, 9, 12, 3, 0.2, 1)
        for cutoff in (1, 5, 12, 30):
            assert_same_results([ndcg_at_k(scores, holdout, cutoff)], scores, holdout,
                                [("ndcg", cutoff)])
            assert_same_results([recall_at_k(scores, holdout, cutoff)], scores, holdout,
                                [("recall", cutoff)])

    @pytest.mark.parametrize("num_items, width", [(30, 12), (9, 9)])
    def test_each_row_ranked_once_at_the_largest_cutoff(self, monkeypatch, num_items, width):
        monkeypatch.setattr(evaluate, "_BLOCK_ROWS", 3)
        calls = []
        ranked = evaluate._top_lists
        monkeypatch.setattr(evaluate, "_top_lists", lambda scores, cutoff: calls.append(
            (scores.shape[0], cutoff)) or ranked(scores, cutoff))
        rng = np.random.default_rng(7)
        scores, holdout = tied_case(rng, 8, num_items, 3, 0.0, 0)
        ranking_metrics(scores, holdout, (("recall", 5), ("ndcg", 12), ("recall", 3)))
        assert calls == [(3, width), (3, width), (2, width)]

    @pytest.mark.parametrize("metrics", [
        (("ndcg", 0),),
        (("recall", 20), ("ndcg", 0)),
        (("recall", 20), ("recall", -1)),
        (("precision", 10),),
        (("NDCG", 10),),
        (),
    ])
    def test_rejects_bad_metrics(self, metrics):
        scores, holdout = np.array([[1.0, 0.0]]), interactions(1, 2, [(0, 0)])
        with pytest.raises(ValueError):
            ranking_metrics(scores, holdout, metrics)

    def test_input_checks_kept(self):
        holdout = interactions(1, 3, [(0, 0)])
        with pytest.raises(ValueError, match="NaN"):
            ranking_metrics(np.array([[1.0, np.nan, 0.0]]), holdout)
        with pytest.raises(DimensionMismatch):
            ranking_metrics(np.zeros((2, 3)), holdout)
        with pytest.raises(EmptyHoldout):
            ranking_metrics(np.zeros((2, 3)), interactions(2, 3, [(0, 1)]))


def model_case(rng, num_users, num_items, k, levels, foldin_share):
    """A model with small integer factors, so that scores tie heavily; users
    with no fold-in items (about 1 - foldin_share of them); each user holds
    1 to 4 holdout items, which may overlap the fold-in ones."""
    u = rng.integers(-levels, levels + 1, size=(num_items, k)).astype(np.float64)
    v = rng.integers(-levels, levels + 1, size=(num_items, k)).astype(np.float64)
    mask = rng.random((num_users, num_items)) < foldin_share / 2
    mask[rng.random(num_users) >= foldin_share] = False
    foldin = foldin_matrix(mask, np.ones(int(mask.sum())))
    triples = [(user, int(i)) for user in range(num_users)
               for i in rng.choice(num_items, size=int(rng.integers(1, min(4, num_items) + 1)),
                                   replace=False)]
    return LowRankModel(u=u, v=v), foldin, interactions(num_users, num_items, triples)


def with_block_rows(block_rows, fn, *args):
    original = evaluate._BLOCK_ROWS
    evaluate._BLOCK_ROWS = block_rows
    try:
        return fn(*args)
    finally:
        evaluate._BLOCK_ROWS = original


def assert_equal_results(got, want):
    assert [(r.metric, r.cutoff) for r in got] == [(r.metric, r.cutoff) for r in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.per_user, b.per_user) and a.per_user.dtype == b.per_user.dtype
        assert a.mean == b.mean and a.stderr == b.stderr


class TestModelMetrics:
    """model_metrics scores and ranks one block of users at a time; it must
    equal ranking the whole score matrix, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        num_users=st.integers(1, 14),
        num_items=st.integers(1, 30),
        k=st.sampled_from([1, 3, 65, 80]),
        levels=st.integers(0, 2),
        foldin_share=st.sampled_from([0.0, 0.5, 1.0]),
        metrics=st.lists(_METRIC, min_size=1, max_size=4),
        block_rows=st.sampled_from([1, 3, evaluate._BLOCK_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_ranking_the_score_matrix(self, num_users, num_items, k, levels,
                                             foldin_share, metrics, block_rows, seed):
        rng = np.random.default_rng(seed)
        model, foldin, holdout = model_case(rng, num_users, num_items, k, levels, foldin_share)
        got = with_block_rows(block_rows, evaluate.model_metrics, model, foldin, holdout, metrics)
        want = ranking_metrics(score_users(model, foldin), holdout, metrics)
        assert_equal_results(got, want)

    @pytest.mark.parametrize("block_rows", [1, 3, 256])
    def test_many_users_in_partial_blocks(self, monkeypatch, block_rows):
        # 601 users and 130 items: cutoffs 20, 50 and 100 all fall inside a row
        monkeypatch.setattr(evaluate, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows)
        model, foldin, holdout = model_case(rng, 601, 130, 70, 1, 0.5)
        assert_equal_results(evaluate.model_metrics(model, foldin, holdout),
                             ranking_metrics(score_users(model, foldin), holdout))

    @settings(max_examples=100, deadline=None)
    @given(
        num_users=st.integers(0, 14),
        num_items=st.integers(1, 30),
        k=st.sampled_from([1, 3, 65, 80]),
        foldin_share=st.sampled_from([0.0, 0.5, 1.0]),
        block_rows=st.sampled_from([1, 3, evaluate._BLOCK_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_score_users_is_the_row_blocked_product(self, num_users, num_items, k,
                                                    foldin_share, block_rows, seed):
        rng = np.random.default_rng(seed)
        model, foldin, _ = model_case(rng, num_users, num_items, k, 2, foldin_share)
        model = LowRankModel(u=rng.standard_normal(model.u.shape),
                             v=rng.standard_normal(model.v.shape))
        got = with_block_rows(block_rows, score_users, model, foldin)
        xu = evaluate._fold_in(foldin, model.u)
        blocks = [xu[lo:lo + block_rows] @ model.v.T for lo in range(0, num_users, block_rows)]
        want = np.concatenate(blocks) if blocks else np.zeros((0, num_items))
        want[foldin.users, foldin.items] = -np.inf
        assert got.tobytes() == want.tobytes()

    def errors(self, model, foldin, holdout):
        """The error of model_metrics and of ranking_metrics(score_users(...))."""
        raised = []
        for call in (lambda: evaluate.model_metrics(model, foldin, holdout),
                     lambda: ranking_metrics(score_users(model, foldin), holdout)):
            with np.errstate(invalid="ignore"), pytest.raises(Exception) as info:
                call()
            raised.append((type(info.value), str(info.value)))
        return raised

    def test_same_errors_as_scoring_then_ranking(self):
        foldin = interactions(2, 3, [(0, 0)])
        holdout = interactions(2, 3, [(0, 1), (1, 2)])
        model = LowRankModel(u=np.ones((3, 2)), v=np.ones((3, 2)))
        cases = {
            DimensionMismatch: [
                (LowRankModel(u=np.ones((4, 2)), v=np.ones((4, 2))), foldin, holdout),
                (model, interactions(3, 3, [(0, 0)]), holdout),
                (model, foldin, interactions(2, 4, [(0, 1), (1, 2)])),
            ],
            EmptyHoldout: [
                (model, foldin, interactions(2, 3, [(0, 1)])),
                (model, interactions(0, 3, []), interactions(0, 3, [])),
            ],
            # inf * 0 is NaN in the product; the NaN in user 1's row is not masked
            ValueError: [(LowRankModel(u=np.full((3, 2), np.inf), v=np.zeros((3, 2))),
                          foldin, holdout)],
        }
        for error, inputs in cases.items():
            for case in inputs:
                got, want = self.errors(*case)
                assert got == want and issubclass(got[0], error)

    def test_nan_in_a_later_block_is_rejected(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_BLOCK_ROWS", 2)
        u = np.ones((4, 1))
        u[3] = np.inf
        model = LowRankModel(u=u, v=np.array([[1.0], [0.0], [1.0], [1.0]]))
        # only user 4 (the third block) folds in item 3: its row is inf * 0 = NaN at item 1
        foldin = interactions(5, 4, [(0, 0), (1, 0), (2, 2), (3, 0), (4, 3)])
        holdout = interactions(5, 4, [(u, 1) for u in range(5)])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            evaluate.model_metrics(model, foldin, holdout)

    def test_infinity_under_the_fold_in_mask_is_rejected(self):
        # user 0 folds in item 0, whose score 1e300 * 1e300 overflows to +inf;
        # masking it to -inf first would hide the overflow
        model = LowRankModel(u=np.array([[1e300], [1.0], [1.0]]),
                             v=np.array([[1e300], [1.0], [1.0]]))
        foldin = interactions(1, 3, [(0, 0)])
        holdout = interactions(1, 3, [(0, 1)])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            evaluate.model_metrics(model, foldin, holdout)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            score_users(model, foldin)

    def test_rejects_bad_metrics_before_scoring(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_fold_in", lambda *args: pytest.fail("scored"))
        model = LowRankModel(u=np.ones((2, 1)), v=np.ones((2, 1)))
        with pytest.raises(ValueError):
            evaluate.model_metrics(model, interactions(1, 2, [(0, 0)]),
                                   interactions(1, 2, [(0, 1)]), (("precision", 10),))

    @staticmethod
    def traced_peak(users, n, k):
        """tracemalloc's peak over model_metrics with the default metrics for
        ``users`` users, each with about 2% of the n items folded in and one
        holdout item."""
        rng = np.random.default_rng(0)
        model = LowRankModel(u=rng.standard_normal((n, k)), v=rng.standard_normal((n, k)))
        mask = rng.random((users, n)) < 0.02
        foldin = foldin_matrix(mask, np.ones(int(mask.sum())))
        holdout = InteractionMatrix.from_triples(users, n, np.arange(users),
                                                 7 * np.arange(users) % n, np.ones(users))
        tracemalloc.start()
        try:
            evaluate.model_metrics(model, foldin, holdout)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_holds_no_score_matrix(self):
        # a users x n float64 score matrix would be users * n * 8 bytes
        users, n = 3000, 500
        assert self.traced_peak(users, n, 8) < users * n * 8 / 4

    def test_holds_one_float_per_user_per_metric(self):
        # Blocks cost the same at any number of users, so 18,000 more users
        # may add only their per-user values: a float64 per metric, the
        # standard error's temporary and room for one more.  X U (users x k)
        # or the users x 100 gains would each exceed that.
        metrics = len(evaluate._DEFAULT_METRICS)
        growth = self.traced_peak(20_000, 200, 8) - self.traced_peak(2_000, 200, 8)
        assert growth <= 8 * (metrics + 2) * 18_000
