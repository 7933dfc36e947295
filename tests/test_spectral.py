"""Spectral tests: eigendecomposition, subspaces, discrepancy, variances."""

import numpy as np
import pytest

from binfactor.moments import BinaryMatrix, estimate_tetrachoric
from binfactor.spectral import (
    EigengapWarning,
    fit_from_tetrachoric,
    fit_model,
    leading_subspace,
    noise_variances,
    sign_normalize,
    subspace_discrepancy,
    sym_eigen,
)
from binfactor.spectral import _general_projection


def random_orthonormal(p, d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, d)))
    return q


class TestSymEigen:
    def test_identity(self):
        e = sym_eigen(np.eye(3))
        np.testing.assert_array_equal(e.values, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        e = sym_eigen(np.diag([1.0, 3.0]))
        np.testing.assert_array_equal(e.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(e.vectors), np.eye(2)[:, ::-1], atol=1e-15)

    def test_rank_one(self):
        u = np.array([0.5, -0.5, 0.5, 0.25, np.sqrt(1 - 0.8125)])
        a = np.outer(u, u)
        e = sym_eigen(a)
        np.testing.assert_allclose(e.values, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)
        lead = e.vectors[:, 0]
        assert min(np.linalg.norm(lead - u), np.linalg.norm(lead + u)) < 1e-10

    def test_invariants_random(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((20, 20))
        a = 0.5 * (m + m.T)
        e = sym_eigen(a)
        assert np.all(np.diff(e.values) <= 0.0)
        gram = e.vectors.T @ e.vectors
        assert np.max(np.abs(gram - np.eye(20))) <= 1e-10
        scale = np.linalg.norm(a, 2)
        for k in range(20):
            res = np.linalg.norm(a @ e.vectors[:, k] - e.values[k] * e.vectors[:, k])
            assert res <= 1e-8 * scale
        recon = e.vectors @ np.diag(e.values) @ e.vectors.T
        np.testing.assert_allclose(recon, a, atol=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((12, 12))
        a = 0.5 * (m + m.T)
        e1, e2 = sym_eigen(a), sym_eigen(a)
        np.testing.assert_array_equal(e1.values, e2.values)
        np.testing.assert_array_equal(e1.vectors, e2.vectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_eigen(np.ones((2, 3)))


class TestSignNormalize:
    def test_flips_negative_lead(self):
        out = sign_normalize(np.array([[-0.8], [0.6]]))
        np.testing.assert_array_equal(out, [[0.8], [-0.6]])

    def test_keeps_positive_lead(self):
        col = np.array([[0.6], [0.8]])
        np.testing.assert_array_equal(sign_normalize(col), col)

    def test_idempotent(self):
        basis = random_orthonormal(7, 3, seed=2)
        once = sign_normalize(basis)
        np.testing.assert_array_equal(sign_normalize(once), once)

    def test_tie_breaks_to_lowest_index(self):
        out = sign_normalize(np.array([[-0.5], [0.5]]))
        np.testing.assert_array_equal(out, [[0.5], [-0.5]])

    def test_is_the_column_loop(self):
        # The loop that one np.where replaced, on columns with ties in
        # magnitude, zeros and signed zeros.
        rng = np.random.default_rng(8)
        basis = rng.choice([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5], size=(6, 40))
        basis[:, :10] = rng.standard_normal((6, 10))
        expected = basis.copy()
        for k in range(basis.shape[1]):
            col = basis[:, k]
            if col[np.argmax(np.abs(col))] < 0.0:
                expected[:, k] = -col
        out = sign_normalize(basis)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))


class TestLeadingSubspace:
    def test_full_dimension_gives_identity_projection(self):
        e = sym_eigen(np.diag([3.0, 2.0, 1.0]))
        basis = leading_subspace(e, 3)
        np.testing.assert_allclose(_general_projection(basis), np.eye(3), atol=1e-12)

    def test_top_two_of_diagonal(self):
        e = sym_eigen(np.diag([3.0, 2.0, 1.0]))
        basis = leading_subspace(e, 2)
        h = _general_projection(basis)
        np.testing.assert_allclose(h, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_gap_warning_on_identity(self):
        e = sym_eigen(np.eye(3))
        with pytest.warns(EigengapWarning):
            leading_subspace(e, 1)

    def test_rejects_bad_d(self):
        e = sym_eigen(np.eye(3))
        for d in (0, 4):
            with pytest.raises(ValueError):
                leading_subspace(e, d)


class TestProjection:
    def test_single_axis(self):
        h = _general_projection(np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(h, [[1.0, 0.0], [0.0, 0.0]])

    def test_idempotent_and_traced(self):
        basis = random_orthonormal(9, 4, seed=8)
        h = _general_projection(basis)
        np.testing.assert_allclose(h @ h, h, atol=1e-10)
        assert np.trace(h) == pytest.approx(4.0, abs=1e-10)
        np.testing.assert_array_equal(h, h.T)


class TestSubspaceDiscrepancy:
    def test_identical_spans(self):
        basis = random_orthonormal(8, 3, seed=4)
        mixed = basis @ np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]])
        assert subspace_discrepancy(basis, mixed) <= 1e-10

    def test_orthogonal_spans(self):
        a = np.eye(6)[:, :2]
        b = np.eye(6)[:, 2:4]
        assert subspace_discrepancy(a, b) == pytest.approx(4.0, abs=1e-12)

    def test_half_turn_value(self):
        # projections onto e1 and (e1+e2)/sqrt(2): tr(Ha - Hb)^2 = 1
        a = np.array([[1.0], [0.0]])
        b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert subspace_discrepancy(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_in_arguments(self):
        a = random_orthonormal(10, 2, seed=5)
        b = random_orthonormal(10, 2, seed=6)
        assert subspace_discrepancy(a, b) == pytest.approx(
            subspace_discrepancy(b, a), abs=1e-12
        )

    def test_trace_identity_equal_dims(self):
        a = random_orthonormal(12, 3, seed=9)
        b = random_orthonormal(12, 3, seed=10)
        ha, hb = a @ a.T, b @ b.T
        identity_form = 2.0 * (3.0 - np.trace(ha @ hb))
        assert subspace_discrepancy(a, b) == pytest.approx(identity_form, abs=1e-10)

    def test_bounds(self):
        for seed in range(5):
            a = random_orthonormal(9, 2, seed=seed)
            b = random_orthonormal(9, 2, seed=seed + 100)
            val = subspace_discrepancy(a, b)
            assert 0.0 <= val <= 4.0 + 1e-12

    def test_rejects_rank_deficient(self):
        x = np.ones((5, 2))
        with pytest.raises(ValueError):
            subspace_discrepancy(x, random_orthonormal(5, 2, seed=1))


class TestNoiseVariances:
    def test_empty_basis_returns_diagonal(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        tau2, clamped = noise_variances(sigma, np.zeros((3, 0)))
        np.testing.assert_allclose(tau2, [1.0, 2.0, 3.0])
        assert not clamped.any()

    def test_exact_factor_model_brute_force(self):
        b = np.array([[0.6], [0.6], [0.6], [0.6]]) * np.sqrt(0.9) / 0.6
        b = b * np.array([[0.5], [0.4], [0.6], [0.3]])  # uneven loadings
        tau2_true = np.array([0.4, 0.55, 0.35, 0.7])
        sigma = b @ b.T + np.diag(tau2_true)
        basis = b / np.linalg.norm(b)
        q = np.eye(4) - basis @ basis.T
        oracle = np.diag(q @ sigma @ q.T)
        tau2, _ = noise_variances(sigma, basis)
        np.testing.assert_allclose(tau2, oracle, atol=1e-12)

    def test_floor_applies(self):
        b = random_orthonormal(4, 1, seed=3)
        sigma = 2.0 * (b @ b.T)  # no noise at all: projected diagonal is 0
        tau2, clamped = noise_variances(sigma, b)
        assert np.all(tau2 == 1e-10)
        assert clamped.all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            noise_variances(np.eye(3), np.zeros((4, 1)))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            noise_variances(np.eye(2), np.array([[1.0], [1.0]]))


class TestFitModel:
    def _data(self, n=300, p=6, seed=21):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, 1))
        b = np.full((p, 1), 0.7)
        e = z @ b.T + rng.standard_normal((n, p)) * np.sqrt(1 - 0.49)
        return BinaryMatrix((e > 0.2).astype(np.uint8))

    def test_smoke_and_shapes(self):
        y = self._data()
        model = fit_model(y, 2)
        assert model.b_hat.shape == (6, 2)
        assert model.tau2_hat.shape == (6,)
        assert np.all(model.tau2_hat >= 1e-10)
        assert model.meta["n"] == 300
        # loading columns are scaled orthonormal eigenvectors
        gram = model.b_hat.T @ model.b_hat
        assert abs(gram[0, 1]) <= 1e-10

    def test_near_full_dimension_runs(self):
        y = self._data(n=60, p=4, seed=33)
        model = fit_model(y, 3)
        assert model.d == 3

    def test_deterministic(self):
        y = self._data()
        m1, m2 = fit_model(y, 2), fit_model(y, 2)
        np.testing.assert_array_equal(m1.b_hat, m2.b_hat)
        np.testing.assert_array_equal(m1.tau2_hat, m2.tau2_hat)
        np.testing.assert_array_equal(m1.c_hat, m2.c_hat)

    def test_matches_staged_pipeline(self):
        y = self._data()
        ms, tetra = estimate_tetrachoric(y)
        staged = fit_from_tetrachoric(ms, tetra, 2, meta={"n": y.n})
        direct = fit_model(y, 2)
        np.testing.assert_array_equal(staged.b_hat, direct.b_hat)
        np.testing.assert_array_equal(staged.tau2_hat, direct.tau2_hat)

    def test_rejects_bad_d(self):
        y = self._data()
        with pytest.raises(ValueError):
            fit_model(y, 7)
