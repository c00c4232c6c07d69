"""Tests for the unconstrained ridge baseline and its rank-k projection."""

import numpy as np
import pytest

from edlae.baselines import ridge_low_rank
from edlae.closed_form import (
    EdlaeConfig,
    edlae_objective,
    full_rank_teacher,
    regularizer,
    train_grid,
)
from edlae.errors import DimensionMismatch, NotPositiveDefinite

from oracles import binary_instance, composed_low_rank, exact_gram, gd_min_uv


class TestRidgeFullRank:
    """The ridge teacher, ``full_rank_teacher(g, lam_diag, "ridge")``."""

    def test_scalar_shrinkage(self):
        b = full_rank_teacher(np.eye(2), np.ones(2), "ridge")
        np.testing.assert_allclose(b, 0.5 * np.eye(2), atol=1e-14)

    def test_zero_data(self):
        b = full_rank_teacher(np.zeros((3, 3)), np.ones(3), "ridge")
        np.testing.assert_allclose(b, 0.0, atol=1e-14)

    def test_hand_2x2(self):
        # (G + I)^-1 G = (1/8) [[3,-1],[-1,3]] [[2,1],[1,2]] = (1/8) [[5,1],[1,5]]
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array([[5.0, 1.0], [1.0, 5.0]]) / 8.0
        assert np.abs(full_rank_teacher(g, np.ones(2), "ridge") - expected).max() <= 1e-12

    def test_symmetric_under_uniform_ridge(self):
        g = exact_gram(binary_instance(0, m=40, n=8))
        b = full_rank_teacher(g, np.full(8, 2.0), "ridge")
        assert np.abs(b - b.T).max() <= 1e-10

    def test_large_lambda_shrinks_to_zero(self):
        g = exact_gram(binary_instance(1, m=40, n=8))
        small = np.abs(full_rank_teacher(g, np.full(8, 1e8), "ridge")).max()
        assert small <= 1e-5

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            full_rank_teacher(np.zeros((2, 2)), np.zeros(2), "ridge")


class TestRidgeLowRank:
    def test_full_rank_projection_is_identity(self):
        g = exact_gram(binary_instance(2, m=40, n=8))
        lam = regularizer(np.diag(g), 1.0, 0.25)
        b = full_rank_teacher(g, lam, "ridge")
        model = ridge_low_rank(g, lam, 8)
        assert np.abs(model.matrix() - b).max() <= 1e-10

    def test_zero_data_zero_model(self):
        model = ridge_low_rank(np.zeros((4, 4)), np.ones(4), 2)
        np.testing.assert_allclose(model.u, 0.0, atol=1e-12)

    def test_kind_and_config(self):
        g = exact_gram(binary_instance(3))
        model = ridge_low_rank(g, regularizer(np.diag(g), 1.0, 0.0), 2)
        assert model.kind == "ridge" and model.config is None

    def test_matches_gradient_descent_optimum(self):
        # the rank-k ridge projection is exact; the oracle confirms rather
        # than assumes it
        for seed in (0, 1, 2):
            x = binary_instance(seed + 100, m=40, n=8, density=0.45)
            g = exact_gram(x)
            lam = regularizer(np.diag(g), 1.0, 0.25)
            model = ridge_low_rank(g, lam, 3)
            obj_cf = edlae_objective(x, lam, model)
            obj_gd = gd_min_uv(x, lam, 3, restarts=20, steps=2500, seed=seed, remove_diag=False)
            assert abs(obj_cf - obj_gd) <= 1e-4 * obj_gd

    def test_objective_nesting_in_rank(self):
        x = binary_instance(4, m=50, n=10)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.25)
        objs = [edlae_objective(x, lam, ridge_low_rank(g, lam, k)) for k in (1, 2, 4, 8, 10)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(objs, objs[1:]))

    def test_residual_orthogonality(self):
        # at the full-rank ridge optimum, residuals are orthogonal to the
        # predictions in the stacked problem
        x = binary_instance(5, m=40, n=8)
        g = exact_gram(x)
        lam = regularizer(np.diag(g), 1.0, 0.25)
        b = full_rank_teacher(g, lam, "ridge")
        n = g.shape[0]
        y = np.vstack([x, np.zeros((n, n))])
        z = np.vstack([x, np.diag(np.sqrt(lam))])
        cross = np.trace((y - z @ b).T @ z @ b)
        assert abs(cross) <= 1e-8 * np.sum(y * y)

    def test_rank_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            ridge_low_rank(np.eye(3), np.ones(3), 4)

    @pytest.mark.parametrize("n", [12, 60])
    def test_bit_equal_to_composed_chain_and_one_point_grid(self, n):
        g = exact_gram(binary_instance(30 + n, m=3 * n, n=n, density=0.3))
        lam = regularizer(np.diag(g), 2.0, 0.25)
        model = ridge_low_rank(g, lam, n // 3)
        oracle = composed_low_rank(g, lam, "ridge", n // 3)
        (point,) = train_grid(g, ["ridge"], [n // 3], [2.0], [0.25])
        for other in (oracle, point):
            assert np.array_equal(model.u, other.u) and np.array_equal(model.v, other.v)
        assert point.config == EdlaeConfig(lam=2.0, dropout_p=0.25) and model.config is None
        assert point.kind == model.kind == "ridge"
