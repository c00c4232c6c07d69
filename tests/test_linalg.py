"""Tests for the dense symmetric kernel: inversion, top-k eig, SVD oracle."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from edlae import linalg
from edlae.errors import DimensionMismatch, NoConvergence, NotPositiveDefinite, OracleCapExceeded
from edlae.linalg import SvdResult, dense_svd, sym_inverse, top_k_eig, truncate_svd


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestSymInverse:
    def test_identity(self):
        np.testing.assert_allclose(sym_inverse(np.eye(2)), np.eye(2), atol=1e-14)

    def test_hand_2x2(self):
        # cofactor inversion: det = 8, adjugate [[3,-1],[-1,3]]
        a = np.array([[3.0, 1.0], [1.0, 3.0]])
        expected = np.array([[3.0, -1.0], [-1.0, 3.0]]) / 8.0
        np.testing.assert_allclose(sym_inverse(a), expected, atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            sym_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14
        )

    def test_product_near_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 40))
        a = a @ a.T + np.eye(40)
        prod = a @ sym_inverse(a)
        assert np.abs(prod - np.eye(40)).max() <= 1e-8

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite, match="lambda"):
            sym_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_inverse(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            sym_inverse(np.ones((2, 3)))

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((17, 17))
        a = a @ a.T + np.eye(17)
        inv = sym_inverse(a)
        assert np.array_equal(inv, inv.T)

    def test_potri_inverse_symmetric_and_matches_numpy(self):
        # n = 2 * 256 + 37: two full blocks of the mirror and a partial one
        rng = np.random.default_rng(20)
        n = 2 * linalg._BLOCK_ROWS + 37
        a = rng.standard_normal((n, n))
        a = a @ a.T / n + np.eye(n)
        inv = sym_inverse(a)
        assert np.array_equal(inv, inv.T)
        expected = np.linalg.inv(a)
        assert np.abs(inv - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_argument_unchanged(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((30, 30))
        a = a @ a.T + np.eye(30)
        kept = a.copy()
        fortran = np.asfortranarray(a)
        sym_inverse(a)
        sym_inverse(fortran, overwrite_a=True)  # not C-ordered: copied, not reused
        assert np.array_equal(a, kept) and np.array_equal(fortran, kept)

    def test_overwrite_reuses_storage(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((30, 30))
        a = a @ a.T + np.eye(30)
        expected = sym_inverse(a)
        inv = sym_inverse(a, overwrite_a=True)
        assert np.shares_memory(inv, a)
        np.testing.assert_allclose(inv, expected, rtol=0, atol=1e-14)

    def test_odd_n_with_small_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(23)
        a = rng.standard_normal((11, 11))
        a = a @ a.T + np.eye(11)
        inv = sym_inverse(a)
        assert np.array_equal(inv, inv.T)
        np.testing.assert_allclose(inv, np.linalg.inv(a), rtol=0, atol=1e-12)
        # checks reach entries in the last, partial block
        skew = a.copy()
        skew[9, 2] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            sym_inverse(skew)
        bad = a.copy()
        bad[10, 10] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sym_inverse(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        a = np.eye(5)
        a[3, 1] = a[1, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sym_inverse(a)

    def test_symmetry_check_holds_one_row_block(self):
        n = 600
        a = random_symmetric(np.random.default_rng(24), n)
        tracemalloc.start()
        linalg._require_symmetric(a)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        row_block = min(linalg._BLOCK_ROWS, n) * n * 8
        ufunc_buffer = np.getbufsize() * 8  # subtracting a transposed view is buffered
        assert peak <= row_block + ufunc_buffer + 64 * n

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal((25, 25))
            a = a @ a.T + 0.1 * np.eye(25)  # condition number well under 1e6
            back = sym_inverse(sym_inverse(a))
            assert np.abs(back - a).max() <= 1e-7 * np.abs(a).max()


class TestTopKEig:
    def test_diagonal_matrix(self):
        res = top_k_eig(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(res.eigenvalues, [3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(res.eigenvectors), np.eye(3)[:, :2], atol=1e-12)

    def test_hand_2x2(self):
        # eigenpairs of [[2,1],[1,2]]: (3, [1,1]/sqrt 2) and (1, [1,-1]/sqrt 2)
        res = top_k_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        np.testing.assert_allclose(res.eigenvalues, [3.0], atol=1e-12)
        np.testing.assert_allclose(res.eigenvectors[:, 0], np.ones(2) / np.sqrt(2), atol=1e-12)

    def test_full_k_matches_dense(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 12)
        res = top_k_eig(a, 12)
        dense_vals = np.sort(np.linalg.eigvalsh(a))[::-1]
        scale = np.abs(dense_vals).max()
        assert np.abs(res.eigenvalues - dense_vals).max() <= 1e-8 * scale
        np.testing.assert_allclose(res.eigenvectors.T @ res.eigenvectors, np.eye(12), atol=1e-10)

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_overwrite_is_bit_identical(self, k):
        rng = np.random.default_rng(k)
        a = random_symmetric(rng, 300)
        kept = a.copy()
        copied = top_k_eig(a, k)
        assert np.array_equal(a, kept)  # not opted in: a untouched
        in_place = top_k_eig(a, k, overwrite_a=True)
        assert np.array_equal(copied.eigenvalues, in_place.eigenvalues)
        assert np.array_equal(copied.eigenvectors, in_place.eigenvectors)
        assert not np.array_equal(a, kept)  # a was the workspace

    def test_overwrite_allocates_no_n2_copy(self, monkeypatch):
        monkeypatch.setattr(linalg, "_BLOCK_ROWS", 16)  # small symmetry-check blocks
        n = 300
        a = random_symmetric(np.random.default_rng(8), n)
        peaks = {}
        for overwrite in (False, True):
            work = a.copy()
            tracemalloc.start()
            top_k_eig(work, 10, overwrite_a=overwrite)
            peaks[overwrite] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[False] >= 8 * n * n
        assert peaks[True] < 0.5 * 8 * n * n

    def test_n600_matches_dense(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 600)
        res = top_k_eig(a, 4)
        dense_vals = np.sort(np.linalg.eigvalsh(a))[::-1][:4]
        assert np.abs(res.eigenvalues - dense_vals).max() <= 1e-8 * np.abs(dense_vals).max()

    def test_residual_contract(self):
        rng = np.random.default_rng(6)
        a = random_symmetric(rng, 90)
        res = top_k_eig(a, 6)
        residuals = np.linalg.norm(a @ res.eigenvectors - res.eigenvectors * res.eigenvalues, axis=0)
        assert residuals.max() <= 1e-9 * np.linalg.norm(a)

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        for _ in range(2):
            a = random_symmetric(rng, 30)
            res = top_k_eig(a, 5)
            lead = np.argmax(np.abs(res.eigenvectors), axis=0)
            assert (res.eigenvectors[lead, np.arange(5)] >= 0).all()

    def test_degenerate_eigenvalues_projector(self):
        # two-fold degenerate top eigenvalue: test the invariant subspace
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 6)))
        a = q @ np.diag([5.0, 5.0, 1.0, 0.5, 0.2, 0.1]) @ q.T
        a = 0.5 * (a + a.T)
        res = top_k_eig(a, 2)
        expected = q[:, :2] @ q[:, :2].T
        got = res.eigenvectors @ res.eigenvectors.T
        assert np.abs(got - expected).max() <= 1e-9

    def test_zero_matrix(self):
        res = top_k_eig(np.zeros((40, 40)), 3)
        np.testing.assert_allclose(res.eigenvalues, 0.0, atol=1e-14)
        np.testing.assert_allclose(res.eigenvectors.T @ res.eigenvectors, np.eye(3), atol=1e-10)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        with pytest.raises(NoConvergence, match="did not converge"):
            top_k_eig(np.eye(4), 2)

    def test_k_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            top_k_eig(np.eye(3), 4)
        with pytest.raises(DimensionMismatch):
            top_k_eig(np.eye(3), 0)


class TestDenseSvd:
    def test_diagonal(self):
        res = dense_svd(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(res.singular, [2.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        res = dense_svd(np.zeros((3, 4)))
        np.testing.assert_allclose(res.singular, 0.0, atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((5, 4))
        res = dense_svd(m)
        rebuilt = (res.left * res.singular) @ res.right.T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((7, 5))
        res = dense_svd(m)
        np.testing.assert_allclose(res.left.T @ res.left, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(res.right.T @ res.right, np.eye(5), atol=1e-10)

    def test_cap(self):
        with pytest.raises(OracleCapExceeded):
            dense_svd(np.ones((10, 10)), cap=8)

    def test_descending_order(self):
        rng = np.random.default_rng(12)
        res = dense_svd(rng.standard_normal((8, 6)))
        assert (np.diff(res.singular) <= 0).all()
        assert (res.singular >= 0).all()


class TestTruncateSvd:
    def test_diagonal_rank1(self):
        res = dense_svd(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(truncate_svd(res, 1), np.diag([2.0, 0.0]), atol=1e-14)

    def test_full_rank_exact(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 5))
        res = dense_svd(m)
        np.testing.assert_allclose(truncate_svd(res, 5), m, atol=1e-12)

    def test_discarded_singular_values(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((6, 5))
        res = dense_svd(m)
        approx = truncate_svd(res, 2)
        err2 = np.linalg.norm(m - approx) ** 2
        expected = float(np.sum(res.singular[2:] ** 2))
        assert abs(err2 - expected) <= 1e-10 * expected

    def test_beats_random_factor_pairs(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((8, 6))
        res = dense_svd(m)
        for k in (1, 2, 3):
            best = np.linalg.norm(m - truncate_svd(res, k))
            for _ in range(20):
                a = rng.standard_normal((8, k))
                b = rng.standard_normal((6, k))
                assert best <= np.linalg.norm(m - a @ b.T) + 1e-12

    def test_right_projection_identity(self):
        # X @ V_k V_k^T reproduces the truncated SVD
        rng = np.random.default_rng(16)
        m = rng.standard_normal((9, 7))
        res = dense_svd(m)
        for k in (1, 3, 5):
            v_k = res.right[:, :k]
            diff = np.linalg.norm(m @ v_k @ v_k.T - truncate_svd(res, k))
            assert diff <= 1e-9 * np.linalg.norm(m)

    def test_k_too_large(self):
        res = dense_svd(np.eye(3))
        with pytest.raises(DimensionMismatch):
            truncate_svd(res, 4)
