"""Tests for the dense symmetric kernel (inversion, top-k eig) and for the
truncated-SVD oracle the projection tests compare against."""

import ctypes
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from edlae import linalg
from edlae.errors import DimensionMismatch, NoConvergence, NotPositiveDefinite
from edlae.linalg import sym_inverse, top_k_eig

from oracles import truncated_svd


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


# top_k_eig's smallest k on its MRRR branch, and a k above it at n = 300
MRRR_K = linalg._MRRR_MIN_K
ABOVE = linalg._MRRR_MIN_K + 22


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

    def test_rcond_estimates_the_reciprocal_condition_number(self):
        # ?pocon underestimates ||A^-1||_1, so rcond >= 1 / cond_1 up to
        # rounding; over 25,000 random SPD matrices (n <= 12, cond_1 up to
        # 1e13) rcond * cond_1 read 0.9995 to 4.6
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            a = (q * np.logspace(0, -rng.uniform(0, 12), n)) @ q.T
            a = 0.5 * (a + a.T)
            rcond = linalg._cholesky_rcond(np.array(a, order="F"))
            assert 0.99 <= rcond * np.linalg.cond(a, 1) <= 5.0

    def test_numerically_singular_rejected_whatever_the_pivot(self):
        # twin columns: the second twin's pivot is rounding noise, 0 or a tiny
        # positive value depending on the order of the columns
        x = (np.random.default_rng(4).random((30, 5)) < 0.5).astype(float)
        x[:, 4] = x[:, 0] = 1.0
        for order in ([0, 4, 1, 2, 3], [1, 2, 3, 0, 4], [1, 0, 2, 3, 4]):
            g = x[:, order].T @ x[:, order]
            with pytest.raises(NotPositiveDefinite, match="reciprocal condition number"):
                sym_inverse(g)

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

    def test_overwrite_peaks_at_one_tile_and_the_symmetry_check(self):
        n = 600
        a = random_symmetric(np.random.default_rng(25), n) + n * np.eye(n)
        sym_inverse(a.copy(), overwrite_a=True)  # LAPACK loaded before tracing
        tracemalloc.start()
        sym_inverse(a, overwrite_a=True)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tile = linalg._BLOCK_ROWS ** 2 * 8
        check_block = min(linalg._BLOCK_ROWS, n) * n * 8 + np.getbufsize() * 8
        assert peak <= tile + check_block

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal((25, 25))
            a = a @ a.T + 0.1 * np.eye(25)  # condition number well under 1e6
            back = sym_inverse(sym_inverse(a))
            assert np.abs(back - a).max() <= 1e-7 * np.abs(a).max()


class TestMirrorLower:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, block_rows", [(1, 256), (7, 256), (11, 4), (12, 4),
                                               (257, 256), (600, 256)])
    def test_copies_lower_triangle(self, monkeypatch, order, n, block_rows):
        monkeypatch.setattr(linalg, "_BLOCK_ROWS", block_rows)
        a = np.asarray(np.random.default_rng(n).standard_normal((n, n)), order=order)
        want = np.where(np.tri(n, dtype=bool), a, a.T)
        assert linalg._mirror_lower(a) is a
        assert np.array_equal(a, want)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_makes_no_temporary(self, order):
        # every copy's source and destination are disjoint, so numpy copies
        # without a buffer: no tile-sized (or strip-sized) temporary
        n = 600
        a = np.asarray(np.random.default_rng(26).standard_normal((n, n)), order=order)
        tracemalloc.start()
        linalg._mirror_lower(a)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 64 * n


class TestMatmul:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 7, 3), (300, 300, 64), (5, 9, 2)])
    @pytest.mark.parametrize("b_order", ["C", "F"])
    def test_matches_numpy_product(self, shape, b_order):
        m, n, k = shape
        rng = np.random.default_rng(m + k)
        a = rng.standard_normal((m, n))
        b = np.asarray(rng.standard_normal((n, k)), order=b_order)
        got = linalg._matmul(a, b)
        want = a @ b
        assert got.shape == want.shape and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max() * n)

    def test_operands_unchanged(self):
        rng = np.random.default_rng(27)
        a, b = rng.standard_normal((20, 20)), np.asfortranarray(rng.standard_normal((20, 4)))
        kept = a.copy(), b.copy()
        linalg._matmul(a, b)
        assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[1])


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

    @pytest.mark.parametrize("k", [1, 7, 40, ABOVE])
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

    @staticmethod
    def overwrite_peaks(monkeypatch, n, k):
        """tracemalloc peaks of top_k_eig(a, k) on a random n x n ``a``,
        copying (False) and overwriting (True)."""
        monkeypatch.setattr(linalg, "_BLOCK_ROWS", 16)  # small symmetry-check blocks
        a = random_symmetric(np.random.default_rng(8), n)
        peaks = {}
        for overwrite in (False, True):
            work = a.copy()
            tracemalloc.start()
            top_k_eig(work, k, overwrite_a=overwrite)
            peaks[overwrite] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peaks

    def test_overwrite_allocates_no_n2_copy(self, monkeypatch):
        n = 300
        peaks = self.overwrite_peaks(monkeypatch, n, 10)
        assert peaks[False] >= 8 * n * n
        assert peaks[True] < 0.5 * 8 * n * n

    def test_overwrite_allocates_no_n2_copy_on_the_mrrr_branch(self, monkeypatch):
        # scipy's f2py dstemr would allocate an n x n eigenvector array here
        n, k = 600, MRRR_K
        peaks = self.overwrite_peaks(monkeypatch, n, k)
        assert peaks[False] >= 8 * n * n
        assert peaks[True] < 0.5 * 8 * n * n
        assert peaks[True] <= 8 * n * k + 8 * 80 * n  # the n x k vectors and the workspaces

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_solver_columns_reversed_and_signed(self, k):
        n = 120
        a = random_symmetric(np.random.default_rng(30 + k), n)
        vals, vecs = scipy.linalg.eigh(a, subset_by_index=(n - k, n - 1))
        want = vecs[:, ::-1].copy()
        lead = np.argmax(np.abs(want), axis=0)
        want[:, want[lead, np.arange(k)] < 0.0] *= -1.0
        res = top_k_eig(a, k)
        assert res.eigenvalues.tobytes() == vals[::-1].tobytes()
        assert np.array_equal(res.eigenvectors, want)

    def test_eigenvectors_returned_in_solver_storage(self, monkeypatch):
        # Reversing and signing the k columns allocates nothing of size n x k.
        monkeypatch.setattr(linalg, "_BLOCK_ROWS", 16)  # small symmetry-check blocks
        n, k = 300, 150
        a = random_symmetric(np.random.default_rng(9), n)
        work = a.T.copy(order="F")  # what top_k_eig hands the solver
        tracemalloc.start()
        scipy.linalg.eigh(work, subset_by_index=(n - k, n - 1), check_finite=False,
                          overwrite_a=True)
        solver = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        work = a.copy()
        tracemalloc.start()
        top_k_eig(work, k, overwrite_a=True)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= solver + 16 * linalg._BLOCK_ROWS * n + 64 * n

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

    @pytest.mark.parametrize("k", [MRRR_K - 1, MRRR_K], ids=["syevr", "mrrr"])
    def test_branches_meet_the_contract(self, monkeypatch, k):
        # k just below and at the threshold: the same contract either side
        n = 320
        a = random_symmetric(np.random.default_rng(40 + k), n)
        branches = []
        mrrr = linalg._top_k_mrrr
        monkeypatch.setattr(linalg, "_top_k_mrrr", lambda *args: branches.append(1) or mrrr(*args))
        res = top_k_eig(a, np.int64(k))  # a numpy integer reaches LAPACK as a C int
        assert branches == ([1] if k >= MRRR_K else [])
        vals, vecs = res.eigenvalues, res.eigenvectors
        dense_vals, dense_vecs = np.linalg.eigh(a)
        scale = np.abs(dense_vals).max()
        assert vecs.shape == (n, k) and vecs.flags.f_contiguous
        assert np.linalg.norm(a @ vecs - vecs * vals, axis=0).max() <= 1e-10 * scale
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() <= 1e-10
        assert (np.diff(vals) <= 0.0).all()
        lead = np.argmax(np.abs(vecs), axis=0)
        assert (vecs[lead, np.arange(k)] >= 0.0).all()
        assert np.abs(vals - dense_vals[::-1][:k]).max() <= 1e-10 * scale
        # the same invariant subspace as numpy's: equal orthogonal projectors
        top = dense_vecs[:, n - k:]
        assert np.abs(vecs @ vecs.T - top @ top.T).max() <= 1e-9

    @staticmethod
    def after_each_call(monkeypatch, routine, after):
        """Make LAPACK's ``routine`` run ``after`` on its argument pointers
        each time it returns."""
        lapack_function = linalg._lapack_function

        def patched(name):
            call = lapack_function(name)

            def wrapped(*pointers):
                call(*pointers)
                after(pointers)

            return wrapped if name == routine else call

        monkeypatch.setattr(linalg, "_lapack_function", patched)

    @pytest.mark.parametrize("routine", ["dsytrd", "dstemr", "dormtr"])
    def test_mrrr_lapack_failure_is_no_convergence(self, monkeypatch, routine):
        def fail(pointers):
            ctypes.c_int.from_address(pointers[-1]).value = 7  # info

        self.after_each_call(monkeypatch, routine, fail)
        a = random_symmetric(np.random.default_rng(42), MRRR_K + 10)
        with pytest.raises(NoConvergence, match=f"LAPACK {routine} failed: info = 7"):
            top_k_eig(a, MRRR_K)

    def test_mrrr_missing_pairs_is_no_convergence(self, monkeypatch):
        def lose_one(pointers):
            ctypes.c_int.from_address(pointers[9]).value -= 1  # m, the pairs found

        self.after_each_call(monkeypatch, "dstemr", lose_one)
        a = random_symmetric(np.random.default_rng(43), MRRR_K + 10)
        with pytest.raises(NoConvergence,
                           match=f"LAPACK dstemr found {MRRR_K - 1} of {MRRR_K} eigenpairs: info = 0"):
            top_k_eig(a, MRRR_K)

    def test_k_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            top_k_eig(np.eye(3), 4)
        with pytest.raises(DimensionMismatch):
            top_k_eig(np.eye(3), 0)


class TestDenseSvd:
    """numpy's thin SVD as ``linear_ae_optimum`` reads it: singular values
    non-negative and descending, so ``singular[k:]`` are the discarded ones."""

    def test_diagonal(self):
        singular = np.linalg.svd(np.diag([2.0, 1.0]), full_matrices=False)[1]
        np.testing.assert_allclose(singular, [2.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        singular = np.linalg.svd(np.zeros((3, 4)), full_matrices=False)[1]
        np.testing.assert_allclose(singular, 0.0, atol=1e-14)

    def test_descending_order(self):
        rng = np.random.default_rng(12)
        singular = np.linalg.svd(rng.standard_normal((8, 6)), full_matrices=False)[1]
        assert (np.diff(singular) <= 0).all()
        assert (singular >= 0).all()


class TestTruncateSvd:
    """The Eckart-Young oracle the projection tests compare against."""

    def test_diagonal_rank1(self):
        np.testing.assert_allclose(truncated_svd(np.diag([2.0, 1.0]), 1), np.diag([2.0, 0.0]),
                                   atol=1e-14)

    def test_full_rank_exact(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 5))
        np.testing.assert_allclose(truncated_svd(m, 5), m, atol=1e-12)

    def test_discarded_singular_values(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((6, 5))
        approx = truncated_svd(m, 2)
        err2 = np.linalg.norm(m - approx) ** 2
        expected = float(np.sum(np.linalg.svd(m, full_matrices=False)[1][2:] ** 2))
        assert abs(err2 - expected) <= 1e-10 * expected

    def test_beats_random_factor_pairs(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((8, 6))
        for k in (1, 2, 3):
            best = np.linalg.norm(m - truncated_svd(m, k))
            for _ in range(20):
                a = rng.standard_normal((8, k))
                b = rng.standard_normal((6, k))
                assert best <= np.linalg.norm(m - a @ b.T) + 1e-12

    def test_right_projection_identity(self):
        # X @ V_k V_k^T reproduces the truncated SVD
        rng = np.random.default_rng(16)
        m = rng.standard_normal((9, 7))
        right_t = np.linalg.svd(m, full_matrices=False)[2]
        for k in (1, 3, 5):
            v_k = right_t[:k].T
            diff = np.linalg.norm(m @ v_k @ v_k.T - truncated_svd(m, k))
            assert diff <= 1e-9 * np.linalg.norm(m)
