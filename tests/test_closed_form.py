"""Tests for the closed-form teacher-student trainer and its objective."""

import dataclasses
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

import edlae
from edlae import closed_form
from edlae.baselines import ridge_low_rank
from edlae.checks import teacher_and_student
from edlae.closed_form import (
    EdlaeConfig,
    LowRankModel,
    edlae_objective,
    full_rank_teacher,
    objective_from_gram,
    regularizer,
    student_gram,
    student_projection,
    train_closed_form,
    train_grid,
    train_regularized,
)
from edlae.errors import DimensionMismatch, InvalidDropout, NotPositiveDefinite
from edlae.linalg import sym_inverse

from oracles import (
    binary_instance,
    composed_low_rank,
    exact_gram,
    gd_min_uv,
    gd_restarts,
    gd_restarts_loop,
    truncated_svd,
)


@pytest.fixture
def inverse_calls(monkeypatch):
    """The calls the chain makes to ``sym_inverse``, one entry each."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sym_inverse(*args, **kwargs)

    monkeypatch.setattr(closed_form, "sym_inverse", counted)
    return calls


class TestRegularizer:
    def test_zero_dropout_is_uniform(self):
        np.testing.assert_array_equal(regularizer(np.array([3.0, 7.0]), 0.5, 0.0), [0.5, 0.5])

    def test_half_dropout(self):
        # p/(1-p) = 1 at p = 0.5
        np.testing.assert_array_equal(regularizer(np.array([4.0, 9.0]), 1.0, 0.5), [5.0, 10.0])

    def test_all_zero(self):
        np.testing.assert_array_equal(regularizer(np.array([1.0, 1.0]), 0.0, 0.0), [0.0, 0.0])

    def test_invalid_dropout(self):
        with pytest.raises(InvalidDropout, match="dropout_p"):
            regularizer(np.ones(2), 1.0, 1.0)
        with pytest.raises(InvalidDropout, match="dropout_p"):
            regularizer(np.ones(2), 1.0, -0.1)

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            regularizer(np.ones(2), -1.0, 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lam"):
            regularizer(np.ones(2), lam, 0.0)
        with pytest.raises(ValueError, match="lam"):
            EdlaeConfig(lam=lam, dropout_p=0.5)


class TestFullRankTeacher:
    def test_zero_gram(self):
        g, lam = np.zeros((2, 2)), np.ones(2)
        np.testing.assert_allclose(full_rank_teacher(g, lam), 0.0, atol=1e-14)
        student = student_gram(sym_inverse(g + np.diag(lam)), g, lam)
        np.testing.assert_allclose(1.0 / student.scale, 1.0, atol=1e-14)  # diag C

    def test_hand_2x2(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        teacher = full_rank_teacher(g, np.ones(2))
        expected = np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]])
        assert np.abs(teacher - expected).max() <= 1e-12
        student = student_gram(sym_inverse(g + np.eye(2)), g, np.ones(2))
        np.testing.assert_allclose(1.0 / student.scale, [3.0 / 8.0, 3.0 / 8.0], atol=1e-14)

    def test_diagonal_gram_gives_zero_teacher(self):
        teacher = full_rank_teacher(np.diag([4.0, 9.0, 1.0]), np.full(3, 0.5))
        np.testing.assert_allclose(teacher, 0.0, atol=1e-14)

    def test_diagonal_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = (rng.random((50, 12)) < 0.4).astype(float)
            g = exact_gram(x)
            teacher = full_rank_teacher(g, regularizer(np.diag(g), 1.0, 0.5))
            assert np.abs(np.diag(teacher)).max() == 0.0

    def test_zero_regularization_fails(self):
        with pytest.raises(NotPositiveDefinite):
            full_rank_teacher(np.zeros((2, 2)), np.zeros(2))

    def test_positive_c_diag(self):
        x = binary_instance(1, m=30, n=6)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 0.5, 0.25)
        student = student_gram(sym_inverse(g + np.diag(lam)), g, lam)
        assert (student.scale > 0).all()  # scale = 1 / diag C


class TestStudentGram:
    def test_zero_teacher_gives_zero(self):
        g = np.diag([3.0, 5.0, 2.0])
        lam = np.full(3, 0.5)
        m = teacher_and_student(g, lam)[1].m
        assert np.abs(m).max() <= 1e-12 * np.abs(g).max()

    def test_hand_2x2_matches_triple_product(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        lam = np.ones(2)
        teacher, student = teacher_and_student(g, lam)
        direct = teacher.T @ (g + np.diag(lam)) @ teacher
        assert np.abs(student.m - direct).max() <= 1e-12

    def test_identity_matches_direct_random(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = (rng.random((80, 20)) < 0.3).astype(float)
            g = exact_gram(x)
            lam = regularizer(np.diag(g), 2.0, 0.25)
            teacher, student = teacher_and_student(g, lam)
            direct = teacher.T @ (g + np.diag(lam)) @ teacher
            rel = np.linalg.norm(student.m - direct) / np.linalg.norm(direct)
            assert rel <= 1e-10

    def test_output_symmetric(self):
        x = binary_instance(3, m=50, n=10)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.5)
        m = teacher_and_student(g, lam)[1].m
        assert np.array_equal(m, m.T)

    def test_partial_last_block(self, monkeypatch):
        # n = 11 with blocks of 4 rows: the last block is partial
        monkeypatch.setattr(closed_form, "_BLOCK_ROWS", 4)
        x = binary_instance(17, m=60, n=11, density=0.4)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.5)
        for kind in ("edlae", "ridge"):
            teacher, student = teacher_and_student(g, lam, kind)
            fast = student.m
            direct = teacher.T @ (g + np.diag(lam)) @ teacher
            assert np.array_equal(fast, fast.T)
            assert np.linalg.norm(fast - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_dimension_mismatch(self):
        c = sym_inverse(np.eye(3) * 2.0)
        with pytest.raises(DimensionMismatch):
            student_gram(c, np.eye(4), np.ones(4))
        with pytest.raises(DimensionMismatch):
            student_gram(c, np.eye(3), np.ones(4))


    @pytest.mark.parametrize("kind", ["edlae", "ridge"])
    def test_bit_equal_to_the_dense_formula(self, kind):
        # M = G + Lambda - 2S + S C S, evaluated densely as C (s s^T) + G with
        # Lambda - 2S added to the diagonal
        g = exact_gram(binary_instance(21, m=120, n=40, density=0.3))
        lam = regularizer(np.diag(g), 2.0, 0.25)
        c = sym_inverse(g + np.diag(lam))
        scale = 1.0 / np.diag(c) if kind == "edlae" else lam
        want = c * np.outer(scale, scale) + g
        want.flat[::41] += lam - 2.0 * scale
        student = student_gram(c, g, lam, kind)
        assert np.array_equal(student.m, want)
        assert np.array_equal(student.scale, scale)

    def test_ridge_at_zero_regularizer_is_the_gram(self):
        # S = Lambda = 0 at lambda = p = 0, so M = G exactly
        g = exact_gram(binary_instance(21, m=120, n=40, density=0.3))
        lam = np.zeros(40)
        assert np.array_equal(student_gram(sym_inverse(g), g, lam, "ridge").m, g)

    @pytest.mark.parametrize("kind", ["edlae", "ridge"])
    def test_overwrite_builds_in_c(self, kind):
        # edlae builds M in C's storage and keeps no teacher; ridge keeps its
        # teacher there and builds M in a new buffer
        g = exact_gram(binary_instance(22, m=60, n=15, density=0.3))
        lam = regularizer(np.diag(g), 1.0, 0.5)
        c = sym_inverse(g + np.diag(lam))
        spare = c.copy()
        kept = student_gram(spare, g, lam, kind)
        assert np.array_equal(spare, c)  # without overwrite_c, C is left intact
        student = student_gram(c, g, lam, kind, overwrite_c=True)
        assert np.array_equal(student.m, kept.m)
        if kind == "edlae":
            assert student.teacher is None and np.shares_memory(student.m, c)
        else:
            assert np.shares_memory(student.teacher, c) and not np.shares_memory(student.m, c)
            assert np.array_equal(student.teacher, kept.teacher)


class TestStudentProjection:
    def test_full_rank_reproduces_teacher(self):
        x = binary_instance(4, m=40, n=8)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.25)
        teacher, student = teacher_and_student(g, lam)
        model = student_projection(student, 8)
        assert np.abs(model.matrix() - teacher).max() <= 1e-10

    def test_zero_teacher(self):
        g = np.diag([2.0, 3.0, 4.0])
        lam = np.ones(3)
        model = student_projection(teacher_and_student(g, lam)[1], 2)
        np.testing.assert_allclose(model.u, 0.0, atol=1e-12)

    def test_matches_truncated_svd_of_predictions(self):
        # rank-k student must equal the best rank-k fit to Z @ B
        rng = np.random.default_rng(5)
        x = (rng.random((30, 6)) < 0.5).astype(float)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.25)
        teacher, student = teacher_and_student(g, lam)
        z = np.vstack([x, np.diag(np.sqrt(lam))])
        zb = z @ teacher
        for k in (1, 2, 3):
            model = student_projection(student, k)
            diff = np.linalg.norm(z @ model.matrix() - truncated_svd(zb, k))
            assert diff <= 1e-8 * np.linalg.norm(zb)

    def test_v_columns_orthonormal(self):
        x = binary_instance(6, m=40, n=10)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.5)
        model = student_projection(teacher_and_student(g, lam)[1], 4)
        np.testing.assert_allclose(model.v.T @ model.v, np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("kind", ["edlae", "ridge"])
    @pytest.mark.parametrize("n, k", [(1, 1), (7, 1), (7, 5), (7, 7), (300, 1), (300, 5),
                                      (300, 300)])
    def test_u_matches_numpy_product(self, n, k, kind):
        # Ridge forms U = B V by one product in scipy's BLAS (linalg._matmul),
        # which matches numpy's @ to rounding.  Edlae never holds B: it forms
        # U = S^-1 (G V + Lambda V - V diag(lambda_j)) - V from one G V, whose
        # distance from B V is the eigensolver's residual scaled by S^-1.
        self.check_u(n, k, kind, lam=2.0, p=0.25, bound={"ridge": 1e-15, "edlae": 1e-12}[kind])

    @pytest.mark.parametrize("n, k", [(7, 5), (300, 5), (300, 300)])
    def test_edlae_u_at_zero_lambda(self, n, k):
        # Lambda = (p / (1 - p)) diag(G) alone, so S^-1 is as large as it gets
        self.check_u(n, k, "edlae", lam=0.0, p=0.25, bound=1e-12)

    @staticmethod
    def check_u(n, k, kind, lam, p, bound):
        g = exact_gram(binary_instance(n, m=max(3 * n, 10), n=n, density=0.3))
        teacher, student = teacher_and_student(g, regularizer(np.diag(g), lam, p), kind)
        model = student_projection(student, k)
        want = teacher @ model.v
        assert model.u.shape == want.shape and model.u.flags.c_contiguous
        np.testing.assert_allclose(model.u, want, rtol=0, atol=bound * np.abs(want).max())


class TestTrainClosedForm:
    def test_diagonal_gram_zero_model(self):
        g = np.diag([5.0, 2.0, 8.0])
        for k in (1, 2, 3):
            model = train_closed_form(g, EdlaeConfig(lam=1.0, dropout_p=0.0), k)
            np.testing.assert_allclose(model.u, 0.0, atol=1e-12)

    def test_config_attached(self):
        g = exact_gram(binary_instance(7))
        cfg = EdlaeConfig(lam=2.0, dropout_p=0.5)
        model = train_closed_form(g, cfg, 3)
        assert model.config == cfg and model.kind == "edlae" and model.rank == 3

    def test_full_rank_objective_equals_teacher(self):
        x = binary_instance(8, m=40, n=8)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.25)
        teacher = full_rank_teacher(g, lam)
        model = train_closed_form(g, EdlaeConfig(lam=1.0, dropout_p=0.25), 8)
        obj_model = edlae_objective(x, lam, model)
        obj_teacher = edlae_objective(x, lam, LowRankModel(u=teacher, v=np.eye(8)))
        assert abs(obj_model - obj_teacher) <= 1e-8 * obj_teacher

    def test_objective_monotone_in_rank(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            x = (rng.random((60, 16)) < 0.35).astype(float)
            g = exact_gram(x)
            lam = regularizer(np.diag(g), 1.0, 0.25)
            objs = [
                edlae_objective(x, lam, train_closed_form(g, EdlaeConfig(1.0, 0.25), k))
                for k in (1, 2, 4, 8)
            ]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(objs, objs[1:]))

    def test_near_optimal_versus_gradient_descent(self):
        # smoke version of the acceptance criterion (fewer restarts)
        for seed in (0, 1):
            x = binary_instance(seed, m=40, n=8, density=0.3)
            g = exact_gram(x)
            cfg = EdlaeConfig(lam=5.0, dropout_p=0.5)
            lam = regularizer(np.diag(g), cfg.lam, cfg.dropout_p)
            obj_cf = edlae_objective(x, lam, train_closed_form(g, cfg, 2))
            obj_gd = gd_min_uv(x, lam, 2, restarts=10, steps=2000, seed=seed)
            assert abs(obj_cf - obj_gd) <= 0.02 * obj_gd


    @pytest.mark.parametrize("remove_diag", [True, False])
    def test_batched_descent_oracle_equals_the_loop(self, remove_diag):
        # every restart's final objective, bit for bit
        for seed, k in ((0, 2), (3, 4)):
            x = binary_instance(seed, m=40, n=8, density=0.3)
            lam = regularizer(np.diag(exact_gram(x)), 5.0, 0.5)
            args = (x, lam, k, 6, 600, seed, remove_diag)
            assert np.array_equal(gd_restarts(*args), gd_restarts_loop(*args))


class TestTrainGrid:
    def test_sliced_models_match_per_config_training(self):
        x = binary_instance(18, m=120, n=24, density=0.3)
        g = exact_gram(x)
        kinds, ks, lambdas, ps = ["edlae", "ridge"], [2, 5, 9], [0.5, 4.0], [0.0, 0.5]
        models = train_grid(g, kinds, ks, lambdas, ps)
        # kind -> k -> lambda -> p, each grid point once
        points = [(kind, k, EdlaeConfig(lam=lam, dropout_p=p))
                  for kind in kinds for k in ks for lam in lambdas for p in ps]
        assert len(models) == len(points)
        for model, (kind, k, cfg) in zip(models, points):
            assert model.kind == kind and model.config == cfg and model.rank == k
            assert model.u.shape == model.v.shape == (24, k)
            direct = train_closed_form(g, cfg, k, kind)
            scale = np.abs(direct.matrix()).max()
            assert np.abs(model.matrix() - direct.matrix()).max() <= 1e-10 * scale
            lam = regularizer(np.diag(g), cfg.lam, cfg.dropout_p)
            a, b = objective_from_gram(g, lam, model), objective_from_gram(g, lam, direct)
            assert abs(a - b) <= 1e-10 * abs(b)

    @pytest.mark.parametrize("kind", ["edlae", "ridge"])
    def test_projection_in_student_gram_storage_is_bit_identical(self, kind):
        g = exact_gram(binary_instance(20, m=90, n=30, density=0.3))
        lam = regularizer(np.diag(g), 2.0, 0.25)
        student = teacher_and_student(g, lam, kind)[1]
        kept = student.m.copy()
        copied = student_projection(student, 6)
        assert np.array_equal(student.m, kept)
        in_place = student_projection(student, 6, overwrite_m=True)
        assert np.array_equal(copied.u, in_place.u) and np.array_equal(copied.v, in_place.v)

    @pytest.mark.parametrize("kind", ["edlae", "ridge"])
    @pytest.mark.parametrize("n", [12, 60])
    def test_train_closed_form_bit_equal_to_composed_chain_and_one_point_grid(self, kind, n):
        g = exact_gram(binary_instance(40 + n, m=3 * n, n=n, density=0.3))
        cfg = EdlaeConfig(lam=2.0, dropout_p=0.25)
        model = train_closed_form(g, cfg, n // 3, kind)
        oracle = composed_low_rank(g, regularizer(np.diag(g), 2.0, 0.25), kind, n // 3)
        (point,) = train_grid(g, [kind], [n // 3], [2.0], [0.25])
        for other in (oracle, point):
            assert np.array_equal(model.u, other.u) and np.array_equal(model.v, other.v)
        assert point.config == model.config == cfg and point.kind == model.kind == kind

    @pytest.mark.parametrize("kinds, bound", [(["edlae"], 2.0), (["edlae", "ridge"], 3.2)])
    def test_traced_peak_in_n2(self, kinds, bound):
        # Above its entry the grid holds C and one student Gram per (lambda, p)
        # (edlae's in C's storage when it is the last family), never edlae's
        # teacher, plus O(n k) factors.
        n = 600
        g = exact_gram(binary_instance(600, m=3 * n, n=n, density=0.05))
        train_grid(g, ["edlae"], [2], [8.0], [0.5])  # load scipy's LAPACK first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_grid(g, kinds, [64], [8.0], [0.5])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / (8.0 * n * n) <= bound

    def test_ridge_at_zero_lambda_and_p(self):
        # Lambda = 0 makes ridge's S = 0: its teacher is B = C G = I, so U = V
        g = exact_gram(binary_instance(23, m=60, n=12, density=0.4))
        (model,) = train_grid(g, ["ridge"], [5], [0.0], [0.0])
        assert np.isfinite(model.u).all() and np.isfinite(model.v).all()
        np.testing.assert_allclose(model.u, model.v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.v.T @ model.v, np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("kinds, ks, lambdas, ps, error, match", [
        (["edlae"], [], [1.0], [0.25], DimensionMismatch, r"\[1, 12\], got \[\]"),
        (["edlae", "ridge"], [0, 2], [1.0], [0.25], DimensionMismatch, r"got \[0, 2\]"),
        (["edlae"], [-1], [1.0], [0.25], DimensionMismatch, r"got \[-1\]"),
        (["edlae"], [13], [1.0], [0.25], DimensionMismatch, r"got \[13\]"),
        (["lasso"], [2], [1.0], [0.25], ValueError, r"got \['lasso'\]"),
        (["edlae", "lasso"], [2], [1.0], [0.25], ValueError, "'lasso'"),
        ([], [2], [1.0], [0.25], ValueError, "kinds must be one or more"),
        (["edlae"], [2], [1.0, -1.0], [0.25], ValueError, "lam must be"),
        (["edlae"], [2], [1.0], [0.25, 1.0], InvalidDropout, "dropout_p"),
        (["edlae"], [2], [], [0.25], ValueError, r"lambdas and ps .* got \[\] and \[0.25\]"),
        (["edlae"], [2], [1.0], [], ValueError, r"lambdas and ps .* got \[1.0\] and \[\]"),
    ], ids=["no-ks", "k-0", "k-negative", "k-above-n", "unknown-kind", "unknown-second-kind",
            "no-kinds", "later-bad-lambda", "later-bad-p", "no-lambdas", "no-ps"])
    def test_bad_grid_fails_before_factorizing(self, inverse_calls, kinds, ks, lambdas, ps, error,
                                               match):
        g = exact_gram(binary_instance(25, m=40, n=12))
        with pytest.raises(error, match=match):
            train_grid(g, kinds, ks, lambdas, ps)
        assert inverse_calls == []
        train_grid(g, ["edlae"], [2], [1.0], [0.25])  # the patch is in the chain
        assert inverse_calls == [1]

    def test_single_point_equals_train_closed_form(self):
        g = exact_gram(binary_instance(19, m=60, n=12))
        cfg = EdlaeConfig(lam=1.0, dropout_p=0.25)
        (model,) = train_grid(g, ["ridge"], [4], [1.0], [0.25])
        direct = train_closed_form(g, cfg, 4, "ridge")
        np.testing.assert_allclose(model.u, direct.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.v, direct.v, rtol=0, atol=1e-12)


class TestTrainRegularized:
    @pytest.mark.parametrize("n", [12, 60])
    def test_bit_equal_to_train_closed_form_and_ridge_low_rank(self, n):
        g = exact_gram(binary_instance(50 + n, m=3 * n, n=n, density=0.3))
        lam = regularizer(np.diag(g), 2.0, 0.25)
        models = train_regularized(g, lam, ["edlae", "ridge"], n // 3)
        expected = [train_closed_form(g, EdlaeConfig(lam=2.0, dropout_p=0.25), n // 3),
                    ridge_low_rank(g, lam, n // 3)]
        assert [model.kind for model in models] == ["edlae", "ridge"]
        for model, other in zip(models, expected, strict=True):
            assert np.array_equal(model.u, other.u) and np.array_equal(model.v, other.v)
            assert model.config is None

    @pytest.mark.parametrize("train, error, match", [
        (lambda g, lam: ridge_low_rank(g, lam, 0), DimensionMismatch, r"\[1, 300\], got \[0\]"),
        (lambda g, lam: ridge_low_rank(g, lam, 301), DimensionMismatch, r"got \[301\]"),
        (lambda g, lam: train_regularized(g, lam, ["edlae", "ridge"], 0), DimensionMismatch,
         r"got \[0\]"),
        (lambda g, lam: train_regularized(g, lam, ["edlae"], 301), DimensionMismatch,
         r"got \[301\]"),
        (lambda g, lam: train_regularized(g, lam, ["edlae", "lasso"], 2), ValueError, "'lasso'"),
        (lambda g, lam: train_regularized(g, lam, [], 2), ValueError, "kinds must be one or more"),
    ], ids=["ridge-k-0", "ridge-k-above-n", "k-0", "k-above-n", "unknown-kind", "no-kinds"])
    def test_bad_call_fails_before_factorizing(self, inverse_calls, train, error, match):
        g, lam = np.eye(300) * 3 + 1, np.ones(300)
        with pytest.raises(error, match=match):
            train(g, lam)
        assert inverse_calls == []
        ridge_low_rank(g, lam, 2)  # the patch is in the chain
        assert inverse_calls == [1]


class TestFamilyLookup:
    @pytest.mark.parametrize("call", [
        lambda g, lam, c, model: student_gram(c, g, lam, "lasso", overwrite_c=True),
        lambda g, lam, c, model: full_rank_teacher(g, lam, "lasso"),
        lambda g, lam, c, model: edlae_objective(np.eye(6), lam, model),
        lambda g, lam, c, model: objective_from_gram(g, lam, model),
    ], ids=["student_gram", "full_rank_teacher", "edlae_objective", "objective_from_gram"])
    def test_unknown_kind_is_a_value_error_before_any_work(self, inverse_calls, call):
        g, lam = exact_gram(binary_instance(26, m=20, n=6)), np.ones(6)
        c = sym_inverse(g + np.eye(6))
        kept = c.copy()
        model = LowRankModel(u=np.ones((6, 2)), v=np.ones((6, 2)), kind="lasso")
        with pytest.raises(ValueError, match=r"kinds must be one or more of \['edlae', 'ridge'\], "
                                             r"got \['lasso'\]"):
            call(g, lam, c, model)
        assert inverse_calls == [] and np.array_equal(c, kept)


class TestObjective:
    def test_zero_model(self):
        x = binary_instance(10, m=20, n=5)
        model = LowRankModel(u=np.zeros((5, 2)), v=np.zeros((5, 2)))
        assert edlae_objective(x, np.ones(5), model) == pytest.approx(float(np.sum(x * x)))

    def test_identity_model_fully_cancelled(self):
        # U V^T = I has only diagonal mass, all removed before scoring
        x = binary_instance(11, m=20, n=4)
        model = LowRankModel(u=np.eye(4), v=np.eye(4))
        assert edlae_objective(x, np.ones(4), model) == pytest.approx(float(np.sum(x * x)))

    def test_hand_2x2_value(self):
        # X = [[1,1],[0,1]], lambda = 1, p = 0: teacher [[0,1/2],[1/3,0]],
        # objective = ||X - X B||^2 + ||B||^2 = 65/36 + 13/36 = 13/6
        x = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([[0.0, 0.5], [1.0 / 3.0, 0.0]])
        model = LowRankModel(u=b, v=np.eye(2))
        assert edlae_objective(x, np.ones(2), model) == pytest.approx(13.0 / 6.0, abs=1e-12)

    def test_teacher_matches_hand_value(self):
        x = np.array([[1.0, 1.0], [0.0, 1.0]])
        g = exact_gram(x)
        teacher = full_rank_teacher(g, np.ones(2))
        expected = np.array([[0.0, 0.5], [1.0 / 3.0, 0.0]])
        assert np.abs(teacher - expected).max() <= 1e-12

    def test_cross_term_vanishes(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            x = (rng.random((60, 14)) < 0.3).astype(float)
            g = exact_gram(x)
            lam = regularizer(np.diag(g), 1.0, 0.25)
            teacher, student = teacher_and_student(g, lam)
            model = student_projection(student, 4)
            n = g.shape[0]
            y = np.vstack([x, np.zeros((n, n))])
            z = np.vstack([x, np.diag(np.sqrt(lam))])
            uv = model.matrix()
            d_uv = uv - np.diag(np.diag(uv))
            cross = np.trace((y - z @ teacher).T @ z @ (teacher - d_uv))
            assert abs(cross) <= 1e-8 * np.sum(y * y)

    def test_additive_decomposition(self):
        rng = np.random.default_rng(13)
        x = (rng.random((50, 12)) < 0.35).astype(float)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.25)
        teacher, student = teacher_and_student(g, lam)
        model = student_projection(student, 3)
        n = g.shape[0]
        y = np.vstack([x, np.zeros((n, n))])
        z = np.vstack([x, np.diag(np.sqrt(lam))])
        uv = model.matrix()
        d_uv = uv - np.diag(np.diag(uv))
        teacher_resid = float(np.sum((y - z @ teacher) ** 2))
        projection_resid = float(np.sum((z @ (teacher - d_uv)) ** 2))
        obj = edlae_objective(x, lam, model)
        assert abs(obj - (teacher_resid + projection_resid)) <= 1e-6 * obj

    def test_gram_form_matches_dense_form(self):
        x = binary_instance(14, m=50, n=10)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.5, 0.25)
        model = train_closed_form(g, EdlaeConfig(lam=1.5, dropout_p=0.25), 4)
        dense = edlae_objective(x, lam, model)
        from_gram = objective_from_gram(g, lam, model)
        assert abs(dense - from_gram) <= 1e-9 * dense

    def test_factor_form_matches_dense_both_families(self):
        rng = np.random.default_rng(20)
        x = (rng.random((70, 16)) < 0.3).astype(float)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 2.0, 0.5)
        u, v = rng.standard_normal((16, 5)), rng.standard_normal((16, 5))
        models = [
            train_closed_form(g, EdlaeConfig(2.0, 0.5), 5, "edlae"),
            train_closed_form(g, EdlaeConfig(2.0, 0.5), 5, "ridge"),  # non-zero diagonal
            # arbitrary factors: U V^T has a non-zero diagonal that the
            # zero-diagonal family's objective removes and ridge's keeps
            LowRankModel(u=u, v=v, kind="edlae"),
            LowRankModel(u=u, v=v, kind="ridge"),
            LowRankModel(u=full_rank_teacher(g, lam, "edlae"), v=np.eye(16), kind="edlae"),
            LowRankModel(u=full_rank_teacher(g, lam, "ridge"), v=np.eye(16), kind="ridge"),
        ]
        assert np.abs(np.diag(models[1].matrix())).min() > 0.0
        for model in models:
            dense = edlae_objective(x, lam, model)
            assert abs(objective_from_gram(g, lam, model) - dense) <= 1e-10 * dense

    def test_dimension_mismatch(self):
        model = LowRankModel(u=np.zeros((3, 1)), v=np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            edlae_objective(np.ones((2, 4)), np.ones(3), model)

    def test_factor_form_dimension_mismatch(self):
        model = LowRankModel(u=np.zeros((3, 1)), v=np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            objective_from_gram(np.eye(4), np.ones(4), model)


class TestPublicApi:
    def test_rank_is_read_off_the_factors(self):
        model = LowRankModel(u=np.zeros((5, 3)), v=np.zeros((5, 3)))
        assert model.rank == model.u.shape[1] == 3
        g = exact_gram(binary_instance(23, m=40, n=10))
        for model in train_grid(g, ["edlae", "ridge"], [2, 4], [1.0], [0.25]):
            assert model.rank == model.u.shape[1]
        with pytest.raises(TypeError):
            LowRankModel(u=np.zeros((5, 3)), v=np.zeros((5, 3)), rank=2)

    def test_config_is_lambda_and_p(self):
        assert [f.name for f in dataclasses.fields(EdlaeConfig)] == ["lam", "dropout_p"]
        with pytest.raises(TypeError):
            EdlaeConfig(lam=1.0, dropout_p=0.0, rank=3)

    def test_ridge_low_rank_takes_no_config(self):
        assert list(inspect.signature(ridge_low_rank).parameters) == ["g", "lam_diag", "k"]
        assert ridge_low_rank(np.eye(4) * 3 + 1, np.ones(4), 2).config is None

    def test_grid_models_of_one_point_share_one_config(self):
        g = exact_gram(binary_instance(24, m=40, n=10))
        kinds, ks, lambdas, ps = ["edlae", "ridge"], [2, 3, 7], [1.0, 4.0], [0.0, 0.25]
        models = train_grid(g, kinds, ks, lambdas, ps)
        points = list(itertools.product(kinds, ks, lambdas, ps))
        assert len(models) == len(points)
        configs = {}
        for model, (kind, k, lam, p) in zip(models, points):
            assert model.kind == kind and model.rank == model.u.shape[1] == k
            assert configs.setdefault((lam, p), model.config) is model.config
        assert configs == {(lam, p): EdlaeConfig(lam=lam, dropout_p=p)
                           for lam in lambdas for p in ps}

    def test_every_exported_name_resolves(self):
        for name in edlae.__all__:
            assert getattr(edlae, name) is not None, name
        assert isinstance(full_rank_teacher(np.eye(2), np.ones(2)), np.ndarray)

    @pytest.mark.parametrize("name", ["FullRankModel", "teacher_from_inverse"])
    def test_removed_teacher_types_are_gone(self, name):
        assert not hasattr(edlae, name) and not hasattr(closed_form, name)
        assert name not in edlae.__all__

    @pytest.mark.parametrize("name", ["dense_svd", "truncate_svd", "SvdResult", "_as_matrix",
                                      "SVD_ORACLE_CAP", "OracleCapExceeded"])
    def test_removed_svd_wrapper_is_gone(self, name):
        # the two SVD callers call np.linalg.svd directly
        for module in (edlae, edlae.linalg, edlae.errors):
            assert not hasattr(module, name), (module.__name__, name)
        assert name not in edlae.__all__
