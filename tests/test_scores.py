"""Factor scoring tests: threshold rule, likelihood calculus, Newton ascent."""

import math

import mpmath as mp
import numpy as np
import pytest

from binfactor.gaussian import std_normal_cdf
from binfactor.moments import BinaryMatrix
from binfactor.scores import (
    _BLOCK_ROWS,
    _solve_steps,
    LatentScores,
    ScoreConfig,
    estimate_scores,
    fisher_information,
    loglik_gradient,
    reconstruct,
    restricted_loglik,
    select_tau_threshold,
)
from binfactor.spectral import FactorModel


def make_model(p, d, seed, tau2=None, c=None):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-0.8, 0.8, size=(p, d))
    tau2 = rng.uniform(0.2, 0.8, size=p) if tau2 is None else np.asarray(tau2, float)
    c = rng.uniform(-1.0, 1.0, size=p) if c is None else np.asarray(c, float)
    return FactorModel(
        d=d, p=p, c_hat=c, b_hat=b, tau2_hat=tau2, eigvals=np.ones(d), meta={}
    )


def loglik_oracle(z, model, tau, y_row):
    """Independent scalar re-implementation of the restricted sum."""
    total = 0.0
    for j in range(model.p):
        if math.sqrt(model.tau2_hat[j]) <= tau:
            continue
        x = (float(model.b_hat[j] @ z) - model.c_hat[j]) / math.sqrt(model.tau2_hat[j])
        lo = max(float(std_normal_cdf(x)), 1e-15)
        hi = max(float(std_normal_cdf(-x)), 1e-15)  # 1 - Phi(x), full precision
        total += y_row[j] * math.log(lo) + (1 - y_row[j]) * math.log(hi)
    return total / model.p


class TestSelectTauThreshold:
    def test_ninety_percent_of_ten(self):
        tau_sd = np.arange(0.1, 1.01, 0.1)
        tau = select_tau_threshold(tau_sd**2, 90.0)
        assert 0.1 < tau < 0.2
        assert int(np.sum(tau_sd > tau)) == 9

    def test_all_included_at_hundred(self):
        tau_sd = np.arange(0.1, 1.01, 0.1)
        tau = select_tau_threshold(tau_sd**2, 100.0)
        assert np.all(tau_sd > tau)

    def test_ties_include_more(self):
        tau = select_tau_threshold(np.full(8, 0.25), 50.0)
        assert np.all(np.sqrt(np.full(8, 0.25)) > tau)

    def test_rejects_bad_m(self):
        for m in (0.0, 120.0):
            with pytest.raises(ValueError):
                select_tau_threshold(np.ones(4), m)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            select_tau_threshold(np.array([0.5, -0.1]), 90.0)


class TestRestrictedLoglik:
    def test_symmetric_case(self):
        model = make_model(6, 2, seed=1, c=np.zeros(6))
        val = restricted_loglik(np.zeros(2), model, 0.0, np.ones(6))
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_empty_inclusion_is_zero(self):
        model = make_model(5, 2, seed=2)
        tau_above_all = float(np.sqrt(model.tau2_hat).max()) + 1.0
        assert restricted_loglik(np.zeros(2), model, tau_above_all, np.zeros(5)) == 0.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(9)
        model = make_model(5, 2, seed=3)
        tau = select_tau_threshold(model.tau2_hat, 80.0)
        for _ in range(10):
            z = rng.standard_normal(2)
            y_row = rng.integers(0, 2, size=5)
            mine = restricted_loglik(z, model, tau, y_row)
            assert mine == pytest.approx(loglik_oracle(z, model, tau, y_row), abs=1e-12)

    def test_never_positive(self):
        rng = np.random.default_rng(4)
        model = make_model(8, 2, seed=5)
        for _ in range(20):
            z = rng.standard_normal(2) * 2
            y_row = rng.integers(0, 2, size=8)
            assert restricted_loglik(z, model, 0.0, y_row) <= 0.0

    def test_exclusion_leaves_included_terms(self):
        model = make_model(6, 2, seed=6)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2)
        y_row = rng.integers(0, 2, size=6)
        tau_sd = np.sqrt(model.tau2_hat)
        tau_lo = select_tau_threshold(model.tau2_hat, 100.0)
        tau_hi = select_tau_threshold(model.tau2_hat, 50.0)
        dropped = (tau_sd > tau_lo) & ~(tau_sd > tau_hi)
        diff = restricted_loglik(z, model, tau_lo, y_row) - restricted_loglik(
            z, model, tau_hi, y_row
        )
        per_term = 0.0
        for j in np.flatnonzero(dropped):
            x = (float(model.b_hat[j] @ z) - model.c_hat[j]) / tau_sd[j]
            lo = max(float(std_normal_cdf(x)), 1e-15)
            hi = max(float(std_normal_cdf(-x)), 1e-15)
            per_term += y_row[j] * math.log(lo) + (1 - y_row[j]) * math.log(hi)
        assert diff == pytest.approx(per_term / model.p, abs=1e-12)

    def test_dimension_mismatch(self):
        model = make_model(5, 2, seed=8)
        with pytest.raises(ValueError):
            restricted_loglik(np.zeros(3), model, 0.0, np.zeros(5))
        with pytest.raises(ValueError):
            restricted_loglik(np.zeros(2), model, 0.0, np.zeros(4))


class TestLoglikGradient:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        model = make_model(10, 2, seed=13)
        tau = select_tau_threshold(model.tau2_hat, 90.0)
        h = 1e-6
        for _ in range(10):
            z = rng.standard_normal(2)
            y_row = rng.integers(0, 2, size=10)
            grad = loglik_gradient(z, model, tau, y_row)
            for k in range(2):
                dz = np.zeros(2)
                dz[k] = h
                fd = (
                    restricted_loglik(z + dz, model, tau, y_row)
                    - restricted_loglik(z - dz, model, tau, y_row)
                ) / (2 * h)
                assert fd == pytest.approx(grad[k], rel=1e-5, abs=1e-10)

    def test_empty_inclusion_zero_vector(self):
        model = make_model(5, 3, seed=14)
        tau_above_all = float(np.sqrt(model.tau2_hat).max()) + 1.0
        np.testing.assert_array_equal(
            loglik_gradient(np.ones(3), model, tau_above_all, np.zeros(5)), np.zeros(3)
        )


def unit_probit_model():
    """One component with x = z: the likelihood is log Phi(z) for y = 1."""
    return FactorModel(
        d=1,
        p=1,
        c_hat=np.array([0.0]),
        b_hat=np.array([[1.0]]),
        tau2_hat=np.array([1.0]),
        eigvals=np.array([1.0]),
    )


TAIL_POINTS = [(x, y) for x in (8.0, 12.0, 20.0, 30.0, 40.0) for y in (0, 1)] + [
    (-x, y) for x in (8.0, 12.0, 20.0, 30.0, 40.0) for y in (0, 1)
]


class TestTails:
    """Likelihood and gradient far past any probability floor."""

    @pytest.mark.parametrize("x, y", TAIL_POINTS)
    def test_loglik_matches_mpmath(self, x, y):
        # log Phi(t) at 30 digits; for t > 0 through the small tail, since
        # Phi(t) itself rounds to 1 at that precision past t ~ 11.
        t = x if y == 1 else -x
        with mp.workdps(30):
            if t > 0:
                oracle = float(mp.log1p(-mp.ncdf(-mp.mpf(t))))
            else:
                oracle = float(mp.log(mp.ncdf(mp.mpf(t))))
        val = restricted_loglik(np.array([x]), unit_probit_model(), 0.0, np.array([y]))
        assert val == pytest.approx(oracle, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("x, y", TAIL_POINTS)
    def test_gradient_matches_finite_difference(self, x, y):
        model = unit_probit_model()
        row = np.array([y])
        h = 1e-6
        fd = (
            restricted_loglik(np.array([x + h]), model, 0.0, row)
            - restricted_loglik(np.array([x - h]), model, 0.0, row)
        ) / (2 * h)
        grad = loglik_gradient(np.array([x]), model, 0.0, row)[0]
        assert grad == pytest.approx(fd, rel=1e-6, abs=1e-300)


class TestFisherInformation:
    def test_single_component_value(self):
        model = FactorModel(
            d=1,
            p=1,
            c_hat=np.array([0.0]),
            b_hat=np.array([[1.0]]),
            tau2_hat=np.array([1.0]),
            eigvals=np.array([1.0]),
        )
        # pdf(0)^2 / (Phi(0) * (1 - Phi(0))) = 4 pdf(0)^2
        info = fisher_information(np.zeros(1), model, 0.0)
        assert info[0, 0] == pytest.approx(0.6366197723675814, abs=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(15)
        model = make_model(12, 3, seed=16)
        for _ in range(10):
            info = fisher_information(rng.standard_normal(3), model, 0.0)
            np.testing.assert_allclose(info, info.T, atol=1e-14)
            assert np.linalg.eigvalsh(info).min() >= -1e-12

    def test_matches_expected_numeric_hessian(self):
        # The log-likelihood is linear in y, so the Monte Carlo average of
        # numeric Hessians equals the numeric Hessian at the averaged y.
        model = make_model(4, 1, seed=17)
        z = np.array([0.3])
        tau = 0.0
        rng = np.random.default_rng(18)
        probs = std_normal_cdf(
            (model.b_hat @ z - model.c_hat) / np.sqrt(model.tau2_hat)
        )
        draws = (rng.random((20000, 4)) < probs[None, :]).astype(float)
        y_bar = draws.mean(axis=0)
        h = 1e-4
        num_hess = -(
            restricted_loglik(z + h, model, tau, y_bar)
            - 2 * restricted_loglik(z, model, tau, y_bar)
            + restricted_loglik(z - h, model, tau, y_bar)
        ) / h**2
        info = fisher_information(z, model, tau)[0, 0]
        assert num_hess == pytest.approx(info, rel=0.02)


class TestEstimateScores:
    def _simulated(self, n=150, p=10, d=2, seed=19):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-1, 1, size=(p, d))
        tau2 = rng.uniform(0.2, 0.8, size=p)
        b *= (np.sqrt(1 - tau2) / np.linalg.norm(b, axis=1))[:, None]
        c = rng.uniform(-1, 1, size=p)
        z = rng.standard_normal((n, d))
        e = z @ b.T + rng.standard_normal((n, p)) * np.sqrt(tau2)
        y = BinaryMatrix((e > c).astype(np.uint8))
        model = FactorModel(
            d=d, p=p, c_hat=c, b_hat=b, tau2_hat=tau2, eigvals=np.ones(d)
        )
        return y, model

    def test_converges_and_is_stationary(self):
        y, model = self._simulated()
        scores = estimate_scores(y, model)
        assert scores.converged.all()
        assert np.all(scores.grad_norms <= 1e-8)
        assert scores.z_hat.shape == (150, 2)

    def test_likelihood_path_non_decreasing(self):
        y, model = self._simulated(seed=20)
        scores = estimate_scores(y, model, record_path=True)
        path = np.stack(scores.ll_path)
        assert np.all(np.diff(path, axis=0) >= -1e-12)

    def test_start_point_invariance(self):
        # Two stationary points with gradient norm <= tol can differ by up
        # to 2 tol / lambda_min(Fisher), so the comparison is meaningful
        # only where the information matrix is solidly positive definite
        # (separable rows have a flat ridge and a divergent maximizer).
        y, model = self._simulated(seed=21)
        rng = np.random.default_rng(22)
        z0 = rng.standard_normal((y.n, model.d))
        norms = np.linalg.norm(z0, axis=1, keepdims=True)
        z0 = np.where(norms > 3.0, z0 * (3.0 / norms), z0)
        cfg = ScoreConfig(grad_tol=1e-11)
        a = estimate_scores(y, model, cfg)
        b = estimate_scores(y, model, cfg, z0=z0)
        from binfactor.scores import select_tau_threshold

        tau = select_tau_threshold(model.tau2_hat, cfg.m_percent)
        lam_min = np.array(
            [
                np.linalg.eigvalsh(fisher_information(a.z_hat[i], model, tau)).min()
                for i in range(y.n)
            ]
        )
        usable = a.converged & b.converged & (lam_min >= 1e-4)
        assert usable.mean() > 0.4
        np.testing.assert_allclose(a.z_hat[usable], b.z_hat[usable], atol=1e-6)

    def test_strong_signal_converges_quickly(self):
        y, model = self._simulated(seed=23)
        scores = estimate_scores(y, model)
        assert int(np.median(scores.iterations)) <= 20

    def test_all_excluded_returns_origin(self):
        # Zero noise scales make every probit degenerate; the inclusion set
        # comes out empty and the start point is returned as stationary.
        y, model = self._simulated(seed=24)
        degenerate = FactorModel(
            d=model.d,
            p=model.p,
            c_hat=model.c_hat,
            b_hat=model.b_hat,
            tau2_hat=np.zeros(model.p),
            eigvals=model.eigvals,
        )
        scores = estimate_scores(y, degenerate, ScoreConfig(m_percent=90.0))
        np.testing.assert_array_equal(scores.z_hat, np.zeros((y.n, model.d)))
        assert scores.converged.all()
        np.testing.assert_array_equal(scores.grad_norms, np.zeros(y.n))
        np.testing.assert_array_equal(scores.iterations, np.zeros(y.n, dtype=int))

    def test_z_box_bounds_norms(self):
        y, model = self._simulated(seed=25)
        scores = estimate_scores(y, model, ScoreConfig(z_max=1.5))
        assert np.all(np.linalg.norm(scores.z_hat, axis=1) <= 1.5 + 1e-12)

    def test_p_mismatch_rejected(self):
        y, model = self._simulated(seed=26)
        bad = FactorModel(
            d=model.d,
            p=model.p + 1,
            c_hat=np.append(model.c_hat, 0.0),
            b_hat=np.vstack([model.b_hat, np.zeros(model.d)]),
            tau2_hat=np.append(model.tau2_hat, 0.5),
            eigvals=model.eigvals,
        )
        with pytest.raises(ValueError):
            estimate_scores(y, bad)

    def test_row_order_independence(self):
        # More rows than one kernel block, so rows change blocks as well as
        # places; a row's arithmetic does not depend on either.
        y, model = self._simulated(n=2 * _BLOCK_ROWS + 77, seed=27)
        perm = np.random.default_rng(28).permutation(y.n)
        a = estimate_scores(y, model)
        b = estimate_scores(BinaryMatrix(y.data[perm]), model)
        np.testing.assert_array_equal(a.z_hat[perm], b.z_hat)
        np.testing.assert_array_equal(a.iterations[perm], b.iterations)

    def test_stalled_rows_retire(self):
        # Below the rounding of the likelihood most rows cannot meet the
        # tolerance.  Such a row stops once a step leaves it in place, with
        # the steps it took, so a larger max_iter changes nothing.
        y, model = self._simulated()
        a = estimate_scores(y, model, ScoreConfig(grad_tol=1e-15, max_iter=100))
        b = estimate_scores(y, model, ScoreConfig(grad_tol=1e-15, max_iter=200))
        assert (~a.converged).sum() > 10
        assert np.all(a.iterations[~a.converged] < 100)
        np.testing.assert_array_equal(a.z_hat, b.z_hat)
        np.testing.assert_array_equal(a.iterations, b.iterations)
        np.testing.assert_array_equal(a.grad_norms, b.grad_norms)


def solve_steps_by_row(fisher, g):
    """Row-by-row reference: ridge a singular matrix, zero step if empty."""
    d = g.shape[1]
    step = np.empty_like(g)
    for i in range(g.shape[0]):
        try:
            step[i] = np.linalg.solve(fisher[i], g[i])
        except np.linalg.LinAlgError:
            trace = float(np.trace(fisher[i]))
            if trace <= 0.0:
                step[i] = 0.0
            else:
                ridge = 1e-8 * trace / d
                step[i] = np.linalg.solve(fisher[i] + ridge * np.eye(d), g[i])
    return step


class TestSolveSteps:
    def test_singular_rows_ridged_together(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((3, 2, 2))
        regular = a @ a.transpose(0, 2, 1) + np.eye(2)
        rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])  # exact zero pivot
        fisher = np.stack(
            [regular[0], rank_one, regular[1], np.zeros((2, 2)), 3.0 * rank_one, regular[2]]
        )
        g = rng.standard_normal((6, 2))
        step = _solve_steps(fisher, g)
        np.testing.assert_array_equal(step, solve_steps_by_row(fisher, g))
        np.testing.assert_array_equal(step[3], np.zeros(2))


class TestReconstruct:
    def _scores(self, z):
        n = z.shape[0]
        return LatentScores(
            z_hat=z,
            iterations=np.zeros(n, dtype=int),
            grad_norms=np.zeros(n),
            converged=np.ones(n, dtype=bool),
        )

    def test_zero_scores(self):
        model = make_model(6, 2, seed=29)
        out = reconstruct(model, self._scores(np.zeros((4, 2))))
        np.testing.assert_array_equal(out, np.zeros((4, 6)))

    def test_linear_in_scores(self):
        model = make_model(6, 1, seed=30)
        z = np.random.default_rng(31).standard_normal((5, 1))
        np.testing.assert_allclose(
            reconstruct(model, self._scores(2.0 * z)),
            2.0 * reconstruct(model, self._scores(z)),
            atol=1e-14,
        )

    def test_matches_dense_product(self):
        model = make_model(7, 3, seed=32)
        z = np.random.default_rng(33).standard_normal((4, 3))
        out = reconstruct(model, self._scores(z))
        oracle = np.array(
            [[float(model.b_hat[j] @ z[i]) for j in range(7)] for i in range(4)]
        )
        np.testing.assert_allclose(out, oracle, atol=1e-14)
