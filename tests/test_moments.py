"""Moment estimation tests: frequencies, thresholds, tetrachoric matrix."""

import numpy as np
import pytest

from binfactor import moments
from binfactor.gaussian import RHO_CLAMP, bvn_upper_tail, std_normal_cdf
from binfactor.moments import (
    BinaryMatrix,
    estimate_tetrachoric,
    joint_frequency_matrix,
    marginal_frequencies,
    tetrachoric_from_probabilities,
    thresholds,
)


def bm(rows):
    return BinaryMatrix(np.array(rows, dtype=np.uint8))


class TestBinaryMatrix:
    def test_shape_properties(self):
        y = bm([[0, 1], [1, 1], [0, 0]])
        assert (y.n, y.p) == (3, 2)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryMatrix(np.array([[0, 2], [1, 0]]))

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            BinaryMatrix(np.array([[0], [1]]))

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError):
            BinaryMatrix(np.array([[0, 1]]), column_names=("a",))


class TestMarginalFrequencies:
    def test_direct_count(self):
        y = bm([[1, 0], [0, 0], [1, 1], [1, 0]])
        np.testing.assert_array_equal(marginal_frequencies(y), [0.75, 0.25])

    def test_degenerate_columns(self):
        y = bm([[0, 1], [0, 1], [0, 1]])
        np.testing.assert_array_equal(marginal_frequencies(y), [0.0, 1.0])


class TestThresholds:
    def test_half_is_zero(self):
        ms = thresholds(np.array([0.5, 0.5]), n=100)
        np.testing.assert_array_equal(ms.c_hat, [0.0, 0.0])
        assert ms.clamp_count == 0

    def test_phi_of_one(self):
        # Phi(1) from mpmath.ncdf(1)
        ms = thresholds(np.array([0.84134474606854295, 0.5]), n=10**9)
        assert ms.c_hat[0] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_frequency_clamps(self):
        ms = thresholds(np.array([0.0, 0.5]), n=100)
        # -Phi^{-1}(1/200) from mpmath
        assert ms.c_hat[0] == pytest.approx(2.5758293035489008, abs=1e-12)
        assert ms.clamp_count == 1

    def test_keeps_original_frequencies(self):
        ms = thresholds(np.array([0.0, 1.0]), n=50)
        np.testing.assert_array_equal(ms.p_hat, [0.0, 1.0])
        assert ms.clamp_count == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            thresholds(np.array([1.2]), n=10)


class TestPairwiseJointFrequency:
    def test_direct_count(self):
        y = bm([[1, 1], [1, 0], [0, 0]])
        assert joint_frequency_matrix(y)[0, 1] == pytest.approx(1.0 / 3.0)

    def test_symmetric(self):
        y = bm([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
        joint = joint_frequency_matrix(y)
        np.testing.assert_array_equal(joint, joint.T)

    def test_identical_columns_give_marginal(self):
        y = bm([[1, 1], [0, 0], [1, 1], [1, 1]])
        assert joint_frequency_matrix(y)[0, 1] == marginal_frequencies(y)[0]

    def test_disjoint_supports(self):
        y = bm([[1, 0], [0, 1], [1, 0]])
        assert joint_frequency_matrix(y)[0, 1] == 0.0

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(3)
        y = BinaryMatrix(rng.integers(0, 2, size=(40, 5)).astype(np.uint8))
        joint = joint_frequency_matrix(y)
        for j1 in range(5):
            for j2 in range(5):
                both = y.data[:, j1] & y.data[:, j2]
                assert joint[j1, j2] == pytest.approx(both.mean(dtype=np.float64))

    @pytest.mark.parametrize("block_rows", [2**24, 2**16, 64, 7])
    def test_bitwise_the_float64_product(self, monkeypatch, block_rows):
        # 7 and 64 rows put block boundaries inside the 300 rows, with a
        # short last block for 7.
        monkeypatch.setattr(moments, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(11)
        data = (rng.random((300, 40)) < rng.uniform(0.02, 0.98, 40)).astype(np.uint8)
        x = data.astype(np.float64)
        np.testing.assert_array_equal(joint_frequency_matrix(BinaryMatrix(data)), (x.T @ x) / 300)


class TestEstimateTetrachoric:
    @pytest.mark.parametrize("block_rows", [2**24, 2**16, 64, 7])
    def test_marginals_bitwise_the_column_means(self, monkeypatch, block_rows):
        # The marginals come from the diagonal of the joint counts, one
        # pass over Y; they are the same counts over n as the column means.
        monkeypatch.setattr(moments, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(11)
        data = (rng.random((300, 40)) < rng.uniform(0.02, 0.98, 40)).astype(np.uint8)
        y = BinaryMatrix(data)
        ms, _ = estimate_tetrachoric(y)
        np.testing.assert_array_equal(ms.p_hat, marginal_frequencies(y))

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(11)
        y = BinaryMatrix(rng.integers(0, 2, size=(200, 6)).astype(np.uint8))
        _, tetra = estimate_tetrachoric(y)
        np.testing.assert_array_equal(tetra.sigma, tetra.sigma.T)
        np.testing.assert_array_equal(np.diag(tetra.sigma), np.ones(6))
        assert np.all(np.abs(tetra.sigma - np.eye(6) * 0.0) <= 1.0)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(42)
        y = BinaryMatrix((rng.random((10000, 5)) < 0.4).astype(np.uint8))
        _, tetra = estimate_tetrachoric(y)
        off = tetra.sigma[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_duplicated_column_clamps(self):
        rng = np.random.default_rng(7)
        col = (rng.random(500) < 0.5).astype(np.uint8)
        other = (rng.random(500) < 0.5).astype(np.uint8)
        y = BinaryMatrix(np.column_stack([col, col, other]))
        _, tetra = estimate_tetrachoric(y)
        assert tetra.sigma[0, 1] == 1.0 - RHO_CLAMP
        assert (0, 1) in tetra.clamp_flags

    @pytest.mark.parametrize("n", [20000, 333333])
    def test_duplicated_rare_column_clamps(self, n):
        # Three ones give p_hat = 1.5e-4 and 9e-6.  The joint frequency
        # falls inside the relative clamp margin only if the +1 boundary is
        # accurate to relative precision; 1 - Phi(c) carries ~1e-16 absolute
        # error, enough for the n = 333333 pair to escape the clamp.
        col = np.zeros(n, dtype=np.uint8)
        col[[0, n // 2, n - 1]] = 1
        _, tetra = estimate_tetrachoric(BinaryMatrix(np.column_stack([col, col])))
        assert tetra.sigma[0, 1] == 1.0 - RHO_CLAMP
        assert (0, 1) in tetra.clamp_flags

    @pytest.mark.parametrize("n", [20000, 333333])
    def test_rare_column_and_near_complement_clamp(self, n):
        # The second column is the complement of the first except for one
        # shared one, so no row has both at zero and the joint frequency is
        # exactly p1 + p2 - 1, the -1 boundary.  p2 = (n - 2) / n carries
        # ~1e-16 of absolute rounding, ~1e-11 of that boundary at n = 333333.
        rare = np.zeros(n, dtype=np.uint8)
        rare[[0, n // 2, n - 1]] = 1
        other = 1 - rare
        other[0] = 1
        _, tetra = estimate_tetrachoric(BinaryMatrix(np.column_stack([rare, other])))
        assert tetra.sigma[0, 1] == -(1.0 - RHO_CLAMP)
        assert (0, 1) in tetra.clamp_flags

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, size=(80, 4)).astype(np.uint8)
        ms1, t1 = estimate_tetrachoric(BinaryMatrix(data))
        perm = rng.permutation(80)
        ms2, t2 = estimate_tetrachoric(BinaryMatrix(data[perm]))
        np.testing.assert_array_equal(t1.sigma, t2.sigma)
        np.testing.assert_array_equal(ms1.c_hat, ms2.c_hat)

    def test_column_permutation_consistent(self):
        rng = np.random.default_rng(6)
        data = rng.integers(0, 2, size=(120, 4)).astype(np.uint8)
        _, t1 = estimate_tetrachoric(BinaryMatrix(data))
        perm = np.array([2, 0, 3, 1])
        _, t2 = estimate_tetrachoric(BinaryMatrix(data[:, perm]))
        np.testing.assert_array_equal(t2.sigma, t1.sigma[np.ix_(perm, perm)])


class TestNoiseFreeInjection:
    def test_exact_probabilities_recover_sigma(self):
        # Small hand-built factor structure with unit-variance rows.
        b = np.array([[0.6, 0.2], [-0.5, 0.4], [0.3, -0.6], [0.1, 0.7], [-0.4, -0.3]])
        tau2 = 1.0 - np.sum(b * b, axis=1)
        c = np.array([-0.8, 0.3, 0.0, 0.5, -0.2])
        sigma = b @ b.T + np.diag(tau2)
        p = len(c)
        p_marg = np.asarray(std_normal_cdf(-c))
        p_joint = np.empty((p, p))
        for j1 in range(p):
            p_joint[j1, j1] = p_marg[j1]
            for j2 in range(j1 + 1, p):
                val = bvn_upper_tail(c[j1], c[j2], sigma[j1, j2])
                p_joint[j1, j2] = p_joint[j2, j1] = val
        ms, tetra = tetrachoric_from_probabilities(p_marg, p_joint)
        np.testing.assert_allclose(ms.c_hat, c, atol=1e-12)
        off = ~np.eye(p, dtype=bool)
        np.testing.assert_allclose(tetra.sigma[off], sigma[off], atol=1e-8)
        assert not tetra.clamp_flags

    def test_rejects_degenerate_marginals_without_n(self):
        with pytest.raises(ValueError):
            tetrachoric_from_probabilities(np.array([0.0, 0.5]), np.eye(2) * 0.25)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tetrachoric_from_probabilities(np.array([0.4, 0.5]), np.eye(3))
