"""Tests for deep AE training and the deep-vs-linear training-error bound."""

import numpy as np
import pytest

from edlae.deepae import (
    ArchSpec,
    DEFAULT_ARCHS,
    deep_ae_forward,
    init_params,
    linear_ae_optimum,
    se_and_gradients,
    squared_error,
    train_deep_ae,
    verify_linear_bound,
)
from edlae.errors import DimensionMismatch, Divergence

from oracles import fd_gradient, in_place_train_deep_ae, truncated_svd


class TestForward:
    def test_zero_weights_zero_output(self):
        params = init_params(6, 2, ArchSpec("t", (), "tanh"), seed=0)
        for w in params.weights:
            w[...] = 0.0
        x = np.random.default_rng(0).standard_normal((4, 6))
        np.testing.assert_array_equal(deep_ae_forward(params, x), np.zeros((4, 6)))

    def test_zero_output_layer_annihilates(self):
        # w_out initializes to zero, so any encoder output maps to zero
        params = init_params(6, 2, ArchSpec("t", (2,), "relu"), seed=1)
        x = np.random.default_rng(1).standard_normal((5, 6))
        np.testing.assert_array_equal(deep_ae_forward(params, x), np.zeros((5, 6)))

    def test_deterministic(self):
        params = init_params(8, 3, ArchSpec("t", (2,), "tanh"), seed=2)
        params.w_out[...] = 0.5
        x = np.random.default_rng(2).standard_normal((7, 8))
        a = deep_ae_forward(params, x)
        b = deep_ae_forward(params, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        params = init_params(6, 2, ArchSpec("t", (), "tanh"), seed=3)
        with pytest.raises(DimensionMismatch):
            deep_ae_forward(params, np.ones((3, 5)))


class TestSquaredError:
    def test_exact_reconstruction(self):
        x = np.ones((2, 3))
        assert squared_error(x, x) == 0.0

    def test_zero_prediction(self):
        x = np.array([[1.0, 2.0], [2.0, 0.0]])
        assert squared_error(x, np.zeros_like(x)) == pytest.approx(9.0)

    def test_identity_case(self):
        assert squared_error(np.eye(2), np.zeros((2, 2))) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            squared_error(np.ones((2, 2)), np.ones((2, 3)))


class TestGradients:
    @pytest.mark.parametrize("arch", DEFAULT_ARCHS, ids=lambda a: a.name)
    def test_matches_finite_differences(self, arch):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 10))
        params = init_params(10, 3, arch, seed=11)
        params.w_out[...] = rng.standard_normal(params.w_out.shape)
        _, (gw, gb, gout) = se_and_gradients(params, x)
        analytic = np.concatenate(
            [g.ravel() for g in gw] + [g.ravel() for g in gb] + [gout.ravel()]
        )
        numeric = fd_gradient(params, x)
        scale = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() / scale <= 1e-5


class TestTrainDeepAE:
    def test_zero_steps_reports_data_norm(self):
        x = np.random.default_rng(4).standard_normal((10, 6))
        _, se = train_deep_ae(x, ArchSpec("t", (), "tanh"), 2, steps=0, seed=4)
        assert se == pytest.approx(float(np.sum(x * x)))

    def test_low_rank_data_fits_to_zero(self):
        # rank(X) <= k with a linear encoder: optimum is zero error
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 12))
        _, se = train_deep_ae(x, ArchSpec("lin", (), "linear"), 3, steps=4000, lr=3e-4, seed=5)
        assert se <= 1e-4 * np.sum(x * x)

    def test_best_se_never_exceeds_initial(self):
        x = np.random.default_rng(6).standard_normal((12, 8))
        _, se = train_deep_ae(x, ArchSpec("t", (2,), "tanh"), 3, steps=200, lr=5e-4, seed=6)
        assert se <= np.sum(x * x)

    def test_divergence_raises_without_halving_budget(self):
        # the loss of this X overflows at every step, so each step spends a
        # halving and 100 steps outrun the module's budget of 60
        x = 1e200 * np.ones((4, 5))
        with pytest.raises(Divergence):
            train_deep_ae(x, ArchSpec("lin", (), "linear"), 2, steps=100, lr=1e200, seed=7)

    def test_halving_recovers_from_bad_step_size(self):
        x = np.random.default_rng(8).standard_normal((10, 6))
        _, se = train_deep_ae(x, ArchSpec("lin", (), "linear"), 2, steps=3000, lr=1e6, seed=8)
        assert np.isfinite(se) and se <= np.sum(x * x)

    def test_k_precondition(self):
        x = np.ones((5, 5))
        with pytest.raises(DimensionMismatch):
            train_deep_ae(x, ArchSpec("t", (), "tanh"), 5, steps=1)


def assert_same_training(x, arch, k, steps, lr, seed):
    """train_deep_ae gives the in-place reference's best squared error and
    parameters bit for bit, or raises its Divergence message."""
    try:
        want_params, want_se = in_place_train_deep_ae(x, arch, k, steps, lr, seed)
    except Divergence as exc:
        with pytest.raises(Divergence) as raised:
            train_deep_ae(x, arch, k, steps=steps, lr=lr, seed=seed)
        assert str(raised.value) == str(exc)
        return
    params, se = train_deep_ae(x, arch, k, steps=steps, lr=lr, seed=seed)
    assert se == want_se
    for name in ("weights", "biases"):
        got, want = getattr(params, name), getattr(want_params, name)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert params.w_out.tobytes() == want_params.w_out.tobytes()


class TestMatchesInPlaceTrainer:
    """Each step builds new arrays where the trainer once wrote into its
    own; the best parameters it keeps, and restarts from, are unchanged."""

    @pytest.mark.parametrize("arch", DEFAULT_ARCHS, ids=lambda a: a.name)
    def test_default_archs(self, arch):
        x = np.random.default_rng(14).standard_normal((30, 20))
        assert_same_training(x, arch, 5, steps=400, lr=5e-4, seed=14)

    def test_step_halvings(self):
        x = np.random.default_rng(8).standard_normal((10, 6))
        assert_same_training(x, ArchSpec("lin", (), "linear"), 2, steps=3000, lr=1e6, seed=8)

    def test_divergence(self):
        x = 1e200 * np.ones((4, 5))
        assert_same_training(x, ArchSpec("lin", (), "linear"), 2, steps=100, lr=1e200, seed=7)


class TestLinearOptimum:
    def test_padded_diagonal_case(self):
        # X = diag(3,2,1) padded with a zero row; discarding sigma=1 leaves SE 1
        x = np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros(3)])
        se = linear_ae_optimum(x, 2)
        assert se == pytest.approx(1.0, abs=1e-12)

    def test_rank_k_data_gives_zero(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 8))
        se = linear_ae_optimum(x, 2)
        assert se <= 1e-18 * np.sum(x * x) + 1e-20

    def test_matches_truncation_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((10, 8))
        se = linear_ae_optimum(x, 3)
        direct = np.linalg.norm(x - truncated_svd(x, 3)) ** 2
        assert abs(se - direct) <= 1e-10 * max(direct, 1.0)

    def test_k_precondition(self):
        with pytest.raises(DimensionMismatch):
            linear_ae_optimum(np.ones((4, 4)), 4)


class TestLinearBound:
    def test_small_suite_passes(self):
        report = verify_linear_bound(m=15, n=10, ks=(2, 4), trials=12, restarts=2,
                                     steps=150, lr=5e-4, seed=0)
        assert len(report.trials) == 12
        assert report.passed
        assert all(t.se_deep >= t.se_linear * (1 - 1e-6) for t in report.trials)

    def test_rank_deficient_data_trivially_passes(self):
        rng = np.random.default_rng(12)
        low = rng.standard_normal((15, 2)) @ rng.standard_normal((2, 10))
        se_linear = linear_ae_optimum(low, 4)
        assert se_linear <= 1e-16
        for arch in DEFAULT_ARCHS:
            _, se_deep = train_deep_ae(low, arch, 4, steps=50, lr=5e-4, seed=1)
            assert se_deep >= 0.0
            assert se_deep - se_linear >= -1e-6 * se_linear

    def test_degenerate_linear_arch_converges_to_optimum(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((12, 8))
        se_linear = linear_ae_optimum(x, 3)
        arch = ArchSpec("lin", (), "linear")
        _, se_short = train_deep_ae(x, arch, 3, steps=2000, lr=3e-4, seed=13)
        _, se_long = train_deep_ae(x, arch, 3, steps=8000, lr=3e-4, seed=13)
        gap_short = se_short - se_linear
        gap_long = se_long - se_linear
        assert gap_short >= -1e-6 * se_linear
        assert gap_long >= -1e-6 * se_linear
        assert gap_long <= gap_short
        assert gap_long <= 1e-2 * se_linear

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            verify_linear_bound(m=10, n=8, ks=(8,), trials=1, restarts=1, steps=1, lr=5e-4,
                                seed=0)

    @pytest.mark.parametrize("trials, restarts", [(0, 1), (1, 0)])
    def test_run_without_training_rejected(self, trials, restarts):
        # no trial, or no restart, would leave se_deep at inf and pass
        with pytest.raises(ValueError, match="trials" if trials < 1 else "restarts"):
            verify_linear_bound(m=10, n=8, ks=(2,), trials=trials, restarts=restarts, steps=1,
                                lr=5e-4, seed=0)

    @pytest.mark.parametrize("ks, steps, lr, name", [
        ((2,), 0, 5e-4, "steps"),
        ((2,), 5, float("nan"), "lr"),
        ((2,), 5, float("inf"), "lr"),
        ((2,), 5, 0.0, "lr"),
        ((2,), 5, -5e-4, "lr"),
        ((), 5, 5e-4, "ks"),
    ], ids=["0-0.0005-steps", "5-nan-lr", "5-inf-lr", "5-0.0-lr", "5--0.0005-lr", "no-ks"])
    def test_untrainable_steps_or_step_size_rejected(self, ks, steps, lr, name):
        # no step, or a step size that moves nothing or fails every step,
        # reports untrained models, and the bound would pass on them; with
        # no rank there is no trial to run
        with pytest.raises(ValueError, match=name):
            verify_linear_bound(m=12, n=8, ks=ks, trials=3, restarts=1, steps=steps, lr=lr,
                                seed=0)

    def test_report_jsonl(self, tmp_path):
        import json

        report = verify_linear_bound(m=12, n=8, ks=(2,), trials=3, restarts=1, steps=50,
                                     lr=5e-4, seed=2)
        path = tmp_path / "report.jsonl"
        with open(path, "w") as handle:
            report.write_jsonl(handle)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4  # 3 trials + summary
        record = json.loads(lines[0])
        assert {"seed", "arch", "generator", "k", "se_deep", "se_linear", "gap"} <= set(record)
        summary = json.loads(lines[-1])
        assert summary["passed"] is True
