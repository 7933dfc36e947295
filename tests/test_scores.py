"""Factor scoring tests: threshold rule, likelihood calculus, Newton ascent."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binfactor.gaussian import RHO_CLAMP, std_normal_cdf
from binfactor import scores as scores_module
from binfactor.moments import BinaryMatrix, estimate_tetrachoric
from binfactor.scores import (
    _certify,
    _evaluate,
    _inclusion,
    _solve_steps,
    LatentScores,
    ScoreConfig,
    estimate_scores,
    inclusion_mask,
    reconstruct,
    select_tau_threshold,
)
from binfactor.spectral import TAU2_FLOOR, FactorModel, fit_from_tetrachoric


def make_model(p, d, seed, tau2=None, c=None):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-0.8, 0.8, size=(p, d))
    tau2 = rng.uniform(0.2, 0.8, size=p) if tau2 is None else np.asarray(tau2, float)
    c = rng.uniform(-1.0, 1.0, size=p) if c is None else np.asarray(c, float)
    return FactorModel(
        d=d, p=p, c_hat=c, b_hat=b, tau2_hat=tau2, eigvals=np.ones(d), meta={}
    )


def evaluate_rows(z, model, m_percent, y):
    """Log-likelihood, gradient and information of each point ``z[i]``
    against data row ``y[i]``, through the scoring kernel, with the
    components that ``inclusion_mask`` keeps at ``m_percent``."""
    incl = _inclusion(model, m_percent)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)[:, incl.mask]
    return _evaluate(z, y, np.arange(len(z)), incl, model.p)


def evaluate_row(z, model, m_percent, y_row):
    """(log-likelihood, gradient, information) of one sample."""
    ll, g, info = evaluate_rows(np.reshape(z, (1, -1)), model, m_percent, np.reshape(y_row, (1, -1)))
    return ll[0], g[0], info[0]


def loglik(z, model, m_percent, y_row):
    return evaluate_row(z, model, m_percent, y_row)[0]


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


def likelihood_path(y, model):
    """Each row's log-likelihood after 0, 1, ... steps of the default ascent.

    The ascent is deterministic and rows are independent, so a run capped
    at k steps stops where the uncapped run is after k steps.
    """
    cfg = ScoreConfig()
    steps = int(estimate_scores(y, model, cfg).iterations.max())
    states = [np.zeros((y.n, model.d))] + [
        estimate_scores(y, model, ScoreConfig(max_iter=k)).z_hat for k in range(1, steps + 1)
    ]
    return np.stack([evaluate_rows(z, model, cfg.m_percent, y.data)[0] for z in states])


@pytest.fixture
def blocks_of_1024(monkeypatch):
    """Kernel blocks of 1024 rows, and shards of ``_SHARD_BLOCKS`` of them,
    for the 9 included columns of ``TestEstimateScores._simulated``."""
    monkeypatch.setattr(scores_module, "_CELL_BUDGET", 1024 * 9)
    return 1024, 1024 * scores_module._SHARD_BLOCKS


class TestScoreConfig:
    @pytest.mark.parametrize("kw", [
        dict(m_percent=0.0), dict(m_percent=120.0), dict(max_iter=0),
        dict(grad_tol=0.0), dict(grad_tol=-1e-8), dict(grad_tol=math.nan), dict(grad_tol=math.inf),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            ScoreConfig(**kw)


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
        val = loglik(np.zeros(2), model, 100.0, np.ones(6))
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_empty_inclusion_is_zero(self):
        model = make_model(5, 2, seed=2, tau2=np.full(5, TAU2_FLOOR))
        assert not inclusion_mask(model, 100.0).any()
        assert loglik(np.zeros(2), model, 100.0, np.zeros(5)) == 0.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(9)
        model = make_model(5, 2, seed=3)
        tau = select_tau_threshold(model.tau2_hat, 80.0)
        for _ in range(10):
            z = rng.standard_normal(2)
            y_row = rng.integers(0, 2, size=5)
            mine = loglik(z, model, 80.0, y_row)
            assert mine == pytest.approx(loglik_oracle(z, model, tau, y_row), abs=1e-12)

    def test_never_positive(self):
        rng = np.random.default_rng(4)
        model = make_model(8, 2, seed=5)
        for _ in range(20):
            z = rng.standard_normal(2) * 2
            y_row = rng.integers(0, 2, size=8)
            assert loglik(z, model, 100.0, y_row) <= 0.0

    def test_exclusion_leaves_included_terms(self):
        model = make_model(6, 2, seed=6)
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2)
        y_row = rng.integers(0, 2, size=6)
        tau_sd = np.sqrt(model.tau2_hat)
        tau_lo = select_tau_threshold(model.tau2_hat, 100.0)
        tau_hi = select_tau_threshold(model.tau2_hat, 50.0)
        dropped = (tau_sd > tau_lo) & ~(tau_sd > tau_hi)
        diff = loglik(z, model, 100.0, y_row) - loglik(z, model, 50.0, y_row)
        per_term = 0.0
        for j in np.flatnonzero(dropped):
            x = (float(model.b_hat[j] @ z) - model.c_hat[j]) / tau_sd[j]
            lo = max(float(std_normal_cdf(x)), 1e-15)
            hi = max(float(std_normal_cdf(-x)), 1e-15)
            per_term += y_row[j] * math.log(lo) + (1 - y_row[j]) * math.log(hi)
        assert diff == pytest.approx(per_term / model.p, abs=1e-12)


class TestLoglikGradient:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        model = make_model(10, 2, seed=13)
        h = 1e-6
        for _ in range(10):
            z = rng.standard_normal(2)
            y_row = rng.integers(0, 2, size=10)
            grad = evaluate_row(z, model, 90.0, y_row)[1]
            for k in range(2):
                dz = np.zeros(2)
                dz[k] = h
                fd = (
                    loglik(z + dz, model, 90.0, y_row)
                    - loglik(z - dz, model, 90.0, y_row)
                ) / (2 * h)
                assert fd == pytest.approx(grad[k], rel=1e-5, abs=1e-10)

    def test_empty_inclusion_zero_vector(self):
        model = make_model(5, 3, seed=14, tau2=np.full(5, TAU2_FLOOR))
        np.testing.assert_array_equal(
            evaluate_row(np.ones(3), model, 100.0, np.zeros(5))[1], np.zeros(3)
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


# |x| past any probability floor; in s = |x| / sqrt 2, 0 and the seam of
# erfcx's two rationals at 3.5, with its float neighbours, and 8 and 50,
# where erfcx's branches used to meet; and s = 0.91 and s = 1, with its
# float neighbours, and |x| = 5, where Phi's branches and the kernel's
# used to meet.
ROOT2 = math.sqrt(2.0)
TAIL_MAGNITUDES = (
    0.0, 0.5, 0.91 * ROOT2, np.nextafter(ROOT2, 0.0), ROOT2, np.nextafter(ROOT2, 2.0),
    3.0, 5.0, 8.0 * ROOT2, 50.0 * ROOT2, 8.0, 12.0, 20.0, 30.0, 40.0,
    np.nextafter(3.5 * ROOT2, 0.0), 3.5 * ROOT2, np.nextafter(3.5 * ROOT2, 9.0),
)


def signed_points(magnitudes):
    """(x, y) at each magnitude, on both signs and at both y."""
    return [(x, y) for x in magnitudes for y in (0, 1)] + [
        (-x, y) for x in magnitudes if x > 0.0 for y in (0, 1)
    ]


TAIL_POINTS = signed_points(TAIL_MAGNITUDES)
# The curvature also past |x| = 40, where the small side's m (m - |x|) comes
# from erfcx's far rational, up to where x^2 / 2 and then |x| near overflow.
CURVATURE_POINTS = signed_points(TAIL_MAGNITUDES + (41.0, 1e3, 1e6, 1e154, 1e300))


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
        val = loglik(np.array([x]), unit_probit_model(), 100.0, np.array([y]))
        assert val == pytest.approx(oracle, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("x, y", TAIL_POINTS)
    def test_gradient_matches_finite_difference(self, x, y):
        model = unit_probit_model()
        row = np.array([y])
        h = 1e-6
        fd = (
            loglik(np.array([x + h]), model, 100.0, row)
            - loglik(np.array([x - h]), model, 100.0, row)
        ) / (2 * h)
        grad = evaluate_row(np.array([x]), model, 100.0, row)[1][0]
        assert grad == pytest.approx(fd, rel=1e-6, abs=1e-300)


class TestCurvature:
    """The observed curvature -d^2 ll / dz^2 that the Newton steps solve."""

    def test_single_component_value(self):
        model = FactorModel(
            d=1,
            p=1,
            c_hat=np.array([0.0]),
            b_hat=np.array([[1.0]]),
            tau2_hat=np.array([1.0]),
            eigvals=np.array([1.0]),
        )
        # (pdf(0) / Phi(0))^2 = 4 pdf(0)^2, where the observed curvature
        # equals the Fisher information.
        info = evaluate_row(np.zeros(1), model, 100.0, np.zeros(1))[2]
        assert info[0, 0] == pytest.approx(0.6366197723675814, abs=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(15)
        model = make_model(12, 3, seed=16)
        for _ in range(10):
            info = evaluate_row(rng.standard_normal(3), model, 100.0, np.zeros(12))[2]
            np.testing.assert_allclose(info, info.T, atol=1e-14)
            assert np.linalg.eigvalsh(info).min() >= -1e-12

    def test_matches_expected_numeric_hessian(self):
        # The log-likelihood is linear in y, so the Monte Carlo average of
        # numeric Hessians equals the numeric Hessian at the averaged y.
        model = make_model(4, 1, seed=17)
        z = np.array([0.3])
        m_percent = 100.0
        rng = np.random.default_rng(18)
        probs = std_normal_cdf(
            (model.b_hat @ z - model.c_hat) / np.sqrt(model.tau2_hat)
        )
        draws = (rng.random((20000, 4)) < probs[None, :]).astype(float)
        y_bar = draws.mean(axis=0)
        h = 1e-4
        num_hess = -(
            loglik(z + h, model, m_percent, y_bar)
            - 2 * loglik(z, model, m_percent, y_bar)
            + loglik(z - h, model, m_percent, y_bar)
        ) / h**2
        info = evaluate_row(z, model, m_percent, y_bar)[2][0, 0]
        assert num_hess == pytest.approx(info, rel=0.02)

    @pytest.mark.parametrize("x, y", CURVATURE_POINTS)
    def test_matches_mpmath(self, x, y):
        # -d^2/dt^2 log Phi(t) = lam(t) (lam(t) + t), lam = phi / Phi, at 40
        # digits.  For t < -1e3 that product cancels in about t^2, and
        # mpmath's ncdf itself loses accuracy far out, so there it
        # comes from erfcx's asymptotic series S = sum_k (-1)^k (2k - 1)!!
        # u^k, u = 1 / t^2: lam = |t| / S and lam (lam + t) = T / S^2 with
        # T = (1 - S) / u, which cancels nowhere.  Past about 1e-290 the
        # reference underflows in float64.
        t = x if y == 1 else -x
        with mp.workdps(40):
            if t < -1e3:
                u = 1 / mp.mpf(t) ** 2
                total, scaled, term = mp.mpf(1), mp.mpf(0), mp.mpf(1)
                for k in range(1, 30):
                    term *= -(2 * k - 1) * u
                    total += term
                    scaled -= term / u
                oracle = scaled / total**2
            else:
                lam = mp.npdf(t) / mp.ncdf(t)
                oracle = lam * (lam + t)
        # Past |x| = 1.9e154, x^2 / 2 overflows, and with it the cell's ll,
        # but not its curvature.
        with np.errstate(over="ignore", invalid="ignore"):
            val = evaluate_row(np.array([x]), unit_probit_model(), 100.0, np.array([y]))[2][0, 0]
        # The large side past s = 3.5 takes Phi(-a) as exp(log(E / 2) - s^2),
        # which carries the rounding of s^2: up to 2.5e-13 relative at
        # |x| = 37.3, but below 1e-5 in value and 4e-20 in absolute error.
        rel = 1e-12 if t > 3.5 * ROOT2 else 5e-14
        if oracle > 1e-290:
            assert val == pytest.approx(float(oracle), rel=rel, abs=0.0)
        else:
            assert np.isfinite(val) and val >= 0.0

    def test_fractional_y_matches_closed_form(self):
        # The numeric-Hessian tests take the likelihood and the curvature
        # from the same kernel, so a kernel that rounded the side weights to
        # 0 or 1 would pass them.  At fractional y the weight of a cell's
        # large side is w = y where x >= 0 and 1 - y where x < 0, and, with
        # a = |x| and the Mills ratios m_L = phi(a) / Phi(a) and
        # m_S = phi(a) / Phi(-a), worked out here in 40 digits:
        #   ll = w log Phi(a) + (1 - w) log Phi(-a)
        #   dll/dx = sign(x) (w m_L - (1 - w) m_S)
        #   -d2ll/dx2 = w m_L (m_L + a) + (1 - w) m_S (m_S - a)
        model = make_model(6, 2, seed=44)
        rng = np.random.default_rng(45)
        sd = np.sqrt(model.tau2_hat)
        for z in (np.array([0.4, -1.1]), np.array([-2.5, 3.0]), np.array([6.0, 5.0])):
            y_row = rng.uniform(0.05, 0.95, size=6)
            ll, g, curv = 0.0, np.zeros(2), np.zeros((2, 2))
            with mp.workdps(40):
                for j in range(6):
                    x = (float(model.b_hat[j] @ z) - model.c_hat[j]) / sd[j]
                    a = mp.mpf(abs(x))
                    w = y_row[j] if x >= 0 else 1.0 - y_row[j]
                    m_l, m_s = mp.npdf(a) / mp.ncdf(a), mp.npdf(a) / mp.ncdf(-a)
                    bt = model.b_hat[j] / sd[j]
                    ll += float(w * mp.log(mp.ncdf(a)) + (1 - w) * mp.log(mp.ncdf(-a)))
                    g += float(math.copysign(1.0, x) * (w * m_l - (1 - w) * m_s)) * bt
                    info = w * m_l * (m_l + a) + (1 - w) * m_s * (m_s - a)
                    curv += float(info) * np.outer(bt, bt)
            got = evaluate_row(z, model, 100.0, y_row)
            assert got[0] == pytest.approx(ll / 6, rel=1e-13)
            np.testing.assert_allclose(got[1], g / 6, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(got[2], curv / 6, rtol=1e-12, atol=1e-15)

    def test_matches_numeric_hessian_on_binary_row(self):
        model = make_model(8, 1, seed=42)
        y_row = np.random.default_rng(43).integers(0, 2, size=8)
        h = 1e-4
        for z in (-3.0, -0.7, 0.0, 0.4, 2.5):
            z = np.array([z])
            num_hess = -(
                loglik(z + h, model, 90.0, y_row)
                - 2 * loglik(z, model, 90.0, y_row)
                + loglik(z - h, model, 90.0, y_row)
            ) / h**2
            info = evaluate_row(z, model, 90.0, y_row)[2][0, 0]
            assert num_hess == pytest.approx(info, rel=1e-5)


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
        path = likelihood_path(y, model)
        assert np.all(np.diff(path, axis=0) >= -1e-12)

    def test_start_point_invariance(self):
        # Two stationary points with gradient norm <= tol can differ by up
        # to 2 tol / lambda_min(curvature), so the comparison is meaningful
        # only where the curvature matrix is solidly positive definite
        # (separable rows have a flat ridge and a divergent maximizer).
        y, model = self._simulated(seed=21)
        rng = np.random.default_rng(22)
        z0 = rng.standard_normal((y.n, model.d))
        norms = np.linalg.norm(z0, axis=1, keepdims=True)
        z0 = np.where(norms > 3.0, z0 * (3.0 / norms), z0)
        cfg = ScoreConfig(grad_tol=1e-11)
        a = estimate_scores(y, model, cfg)
        b = estimate_scores(y, model, cfg, z0=z0)
        lam_min = np.linalg.eigvalsh(evaluate_rows(a.z_hat, model, cfg.m_percent, y.data)[2]).min(axis=1)
        usable = a.converged & b.converged & (lam_min >= 1e-4)
        assert usable.mean() > 0.4
        np.testing.assert_allclose(a.z_hat[usable], b.z_hat[usable], atol=1e-6)

    def test_every_row_converges_in_few_steps(self):
        # Newton on the observed curvature converges quadratically near the
        # maximizer, so no row creeps toward the tolerance until max_iter;
        # row 179 of this sample converges only linearly under Fisher scoring.
        y, model = self._simulated(n=400, seed=27)
        scores = estimate_scores(y, model)
        assert scores.converged.all()
        assert scores.iterations.max() < 30

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

    def test_floored_noise_left_out(self):
        # Noise variances on spectral.TAU2_FLOOR never enter the likelihood,
        # even at m = 100%, where the threshold rule alone would include
        # them: their columns' data move no score.
        y, model = self._simulated(seed=25)
        tau2 = model.tau2_hat.copy()
        tau2[[0, 3]] = TAU2_FLOOR
        floored = FactorModel(
            d=model.d, p=model.p, c_hat=model.c_hat, b_hat=model.b_hat, tau2_hat=tau2,
            eigvals=model.eigvals,
        )
        incl = _inclusion(floored, 100.0)
        np.testing.assert_array_equal(incl.mask, tau2 > TAU2_FLOOR)
        flipped = y.data.copy()
        flipped[:, [0, 3]] ^= 1
        cfg = ScoreConfig(m_percent=100.0)
        a = estimate_scores(y, floored, cfg)
        b = estimate_scores(BinaryMatrix(flipped), floored, cfg)
        for field in ("z_hat", "iterations", "grad_norms", "converged"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_start_rejected(self, bad):
        y, model = self._simulated(seed=26)
        z0 = np.zeros((y.n, model.d))
        z0[3, 1] = bad
        z0[4, 0] = bad
        with pytest.raises(ValueError, match="row 3 "):
            estimate_scores(y, model, z0=z0)

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

    def test_row_order_independence(self, blocks_of_1024):
        # More rows than one kernel block, so rows change blocks as well as
        # places; a row's arithmetic does not depend on either.
        block, _ = blocks_of_1024
        y, model = self._simulated(n=2 * block + 77, seed=27)
        perm = np.random.default_rng(28).permutation(y.n)
        a = estimate_scores(y, model)
        b = estimate_scores(BinaryMatrix(y.data[perm]), model)
        np.testing.assert_array_equal(a.z_hat[perm], b.z_hat)
        np.testing.assert_array_equal(a.iterations[perm], b.iterations)

    @pytest.mark.parametrize("start", ["origin", "z0"])
    def test_bitwise_across_threads(self, start, blocks_of_1024):
        # Two full shards and a remainder; a shard's rows take their own
        # number of steps whichever thread runs it.
        _, shard = blocks_of_1024
        y, model = self._simulated(n=2 * shard + 77, seed=30)
        z0 = None
        if start == "z0":
            z0 = np.random.default_rng(31).uniform(-2.0, 2.0, (y.n, model.d))
        a = estimate_scores(y, model, z0=z0, threads=1)
        b = estimate_scores(y, model, z0=z0, threads=2)
        assert a.iterations.min() < a.iterations.max()
        for field in ("z_hat", "iterations", "grad_norms", "converged"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("d", [1, 3])
    def test_origin_table_matches_general_path(self, d, threads, blocks_of_1024):
        # With no z0 the first evaluation is a table lookup; an explicit
        # zero start takes the kernel's general path.  Two shards and a
        # remainder, each of several blocks.
        _, shard = blocks_of_1024
        y, model = self._simulated(n=2 * shard + 77, d=d, seed=32)
        a = estimate_scores(y, model, threads=threads)
        b = estimate_scores(y, model, z0=np.zeros((y.n, d)), threads=threads)
        assert a.iterations.min() < a.iterations.max()
        for field in ("z_hat", "iterations", "grad_norms", "converged"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_origin_table_built_once_per_call(self, threads, monkeypatch, blocks_of_1024):
        # Rows that stop at their start take no step, so the only kernel
        # pass is the one that builds the origin table: once per call, not
        # once per shard of the two and a remainder.
        _, shard = blocks_of_1024
        y, model = self._simulated(n=2 * shard + 77, seed=32)
        rows = []
        kernel = scores_module._kernel

        def counted(z1, *rest):
            rows.append(len(z1))
            return kernel(z1, *rest)

        monkeypatch.setattr(scores_module, "_kernel", counted)
        s = estimate_scores(y, model, ScoreConfig(grad_tol=1e300), threads=threads)
        assert s.converged.all() and not s.iterations.any()
        assert rows == [2]

    @pytest.mark.parametrize("start", ["origin", "z0"])
    def test_row_sums_see_c_ordered_cells(self, monkeypatch, start, blocks_of_1024):
        # numpy sums a row pairwise only along contiguous memory, and einsum
        # follows its operands' layout, so every cell block reaching the
        # row sums must be C-ordered, gathered from the table or not.
        orders = []

        def checked(ll_cells, dx, info, *rest):
            orders.append(all(c.flags.c_contiguous for c in (ll_cells, dx, info)))
            return row_sums(ll_cells, dx, info, *rest)

        row_sums = scores_module._row_sums
        monkeypatch.setattr(scores_module, "_row_sums", checked)
        block, _ = blocks_of_1024
        y, model = self._simulated(n=block + 77, seed=33)
        z0 = None if start == "origin" else np.zeros((y.n, model.d))
        estimate_scores(y, model, z0=z0)
        assert len(orders) > 2 and all(orders)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_scored_alone_matches_block(self, d, monkeypatch):
        # A block of one row sums that row's components as a full block
        # does, whether the row is scored alone or every block holds one
        # row.  The farthest row ends with a cell in erfcx's far rational,
        # which it takes by index, at s = |x| / sqrt 2 >= 8.
        y, model = self._simulated(d=d, seed=29)
        block = estimate_scores(y, model)
        incl = _inclusion(model, 90.0)
        assert incl.block_rows >= y.n
        x_max = np.abs(block.z_hat @ incl.bt - incl.ct).max(axis=1)
        far = int(np.argmax(x_max))
        assert x_max[far] > 8.0 * math.sqrt(2.0)
        for i in [0, 1, far, y.n - 1]:
            alone = estimate_scores(BinaryMatrix(y.data[i : i + 1]), model)
            np.testing.assert_array_equal(alone.z_hat[0], block.z_hat[i])
            np.testing.assert_array_equal(alone.iterations[0], block.iterations[i])
            np.testing.assert_array_equal(alone.grad_norms[0], block.grad_norms[i])
        monkeypatch.setattr(scores_module, "_CELL_BUDGET", 1)
        for start in (None, np.zeros((y.n, d))):
            single = estimate_scores(y, model, z0=start)
            for field in ("z_hat", "iterations", "grad_norms", "converged"):
                np.testing.assert_array_equal(getattr(single, field), getattr(block, field))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wide_rows_span_shards(self, threads, monkeypatch):
        # At m >= 600 the cell budget leaves a block about a hundred rows,
        # and a budget of 3 m leaves it three; n spans several shards under
        # both.  The layout and the thread count leave every bit alone.
        y, model = self._simulated(n=2000, p=700, d=3, seed=34)
        incl = _inclusion(model, 90.0)
        m = incl.ct.size
        assert m >= 600 and incl.block_rows == scores_module._CELL_BUDGET // m
        assert y.n > 2 * scores_module._SHARD_BLOCKS * incl.block_rows
        default = estimate_scores(y, model, threads=threads)
        monkeypatch.setattr(scores_module, "_CELL_BUDGET", 3 * m)
        few = estimate_scores(y, model, threads=threads)
        reference = estimate_scores(y, model, threads=1)
        assert default.converged.all() and default.iterations.min() < default.iterations.max()
        for field in ("z_hat", "iterations", "grad_norms", "converged"):
            np.testing.assert_array_equal(getattr(default, field), getattr(few, field))
            np.testing.assert_array_equal(getattr(few, field), getattr(reference, field))

    @pytest.mark.parametrize("p", [1, 2, 9, 20, 50, 1000])
    def test_shards_hold_at_most_8192_rows_of_narrow_data(self, p):
        # Narrow data has blocks of thousands of rows; its shards still cut
        # n at least as finely as 8,192-row shards, in whole blocks.
        incl = _inclusion(make_model(p, 1, seed=38), 100.0)
        m = incl.ct.size
        assert m == p
        assert incl.block_rows == max(1, min(scores_module._CELL_BUDGET // m, 8192))
        assert incl.shard_rows % incl.block_rows == 0
        assert incl.shard_rows <= 8192
        assert incl.shard_rows <= scores_module._SHARD_BLOCKS * incl.block_rows
        assert incl.shard_rows > 8192 - incl.block_rows or (
            incl.shard_rows == scores_module._SHARD_BLOCKS * incl.block_rows
        )

    def test_stalled_rows_retire(self):
        # Below the rounding of the likelihood most rows cannot meet the
        # tolerance.  Such a row stops once a step leaves it in place, with
        # the steps it took, so a larger max_iter changes nothing.
        y, model = self._simulated(n=1000)
        a = estimate_scores(y, model, ScoreConfig(grad_tol=1e-15, max_iter=100))
        b = estimate_scores(y, model, ScoreConfig(grad_tol=1e-15, max_iter=200))
        assert (~a.converged).sum() > 10
        assert np.all(a.iterations[~a.converged] < 100)
        np.testing.assert_array_equal(a.z_hat, b.z_hat)
        np.testing.assert_array_equal(a.iterations, b.iterations)
        np.testing.assert_array_equal(a.grad_norms, b.grad_norms)


class TestSparseColumns:
    """Rare columns: many pairs never co-occur, and Sigma-hat floors some
    noise variances, which scoring must leave out."""

    @pytest.fixture(scope="class", params=[(1.5, 2.5, 100, 2000), (2.0, 3.0, 150, 3000)],
                    ids=["c~U(1.5,2.5)", "c~U(2,3)"])
    def fitted(self, request, sparse_data):
        y = sparse_data(*request.param)
        assert 0.007 <= y.data.mean() <= 0.03
        ms, tetra = estimate_tetrachoric(y)
        return y, tetra, fit_from_tetrachoric(ms, tetra, 2)

    def test_zero_joint_counts_clamped_at_minus_one(self, fitted):
        y, tetra, _ = fitted
        counts = y.data.T.astype(np.int64) @ y.data.astype(np.int64)
        j1, j2 = np.triu_indices(y.p, 1)
        zero = counts[j1, j2] == 0
        assert zero.sum() > 1000
        assert set(zip(j1[zero].tolist(), j2[zero].tolist())) <= tetra.clamp_flags
        assert np.all(tetra.sigma[j1[zero], j2[zero]] == -(1.0 - RHO_CLAMP))

    def test_floored_noise_left_out(self, fitted):
        _, _, model = fitted
        floored = model.tau2_hat <= TAU2_FLOOR
        assert floored.any()
        incl = _inclusion(model, ScoreConfig().m_percent)
        assert not (incl.mask & floored).any()

    def test_every_row_converges_in_few_steps(self, fitted):
        y, _, model = fitted
        scores = estimate_scores(y, model)
        assert scores.converged.all()
        assert scores.iterations.max() < 30


class TestCertifiedStep:
    """The last Newton step taken without the evaluation that confirms it."""

    def test_psi3_max_against_mpmath(self):
        # psi = log Phi has psi' = lam = phi / Phi, psi'' = -lam (lam + x)
        # and psi''' = lam (lam + x) (2 lam + x) - lam; its largest size is
        # near x = 1.  A cell weighted w and 1 - w is bounded by the same.
        worst = 0.0
        with mp.workdps(30):
            for k in range(801):
                x = mp.mpf(-20) + mp.mpf(k) / 20
                lam = mp.npdf(x) / mp.ncdf(x)
                worst = max(worst, abs(float(lam * (lam + x) * (2 * lam + x) - lam)))
        assert worst <= scores_module._PSI3_MAX
        assert worst > scores_module._PSI3_MAX - 1e-4

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.integers(2, 40),
        d=st.integers(1, 3),
        n=st.integers(1, 12),
        scale=st.floats(-14.0, -1.0),
    )
    def test_bound_covers_measured_gradient(self, seed, p, d, n, scale):
        # Points near each row's maximizer, where the rule certifies most
        # rows at a loose tolerance: on every certified row the bound is at
        # least the gradient norm an evaluation at z + s measures, and the
        # likelihood there does not fall.
        d = min(d, p)
        model = make_model(p, d, seed)
        rng = np.random.default_rng(seed)
        y = BinaryMatrix(rng.integers(0, 2, size=(n, p)).astype(np.uint8))
        tight = estimate_scores(y, model, ScoreConfig(grad_tol=1e-12))
        z = tight.z_hat + rng.standard_normal((n, d)) * 10.0**scale
        incl = _inclusion(model, 90.0)
        y_incl = y.data[:, incl.mask]
        rows = np.arange(n)
        ll, g, curv = _evaluate(z, y_incl, rows, incl, p)
        step = _solve_steps(curv, g)
        sure, bound = _certify(ll, g, curv, step, z, incl, 1e-4)
        ll_new, g_new, _ = _evaluate(z + step, y_incl, rows, incl, p)
        assert np.all(np.linalg.norm(g_new, axis=1)[sure] <= bound[sure])
        assert np.all(ll_new[sure] >= ll[sure])

    @pytest.mark.parametrize("start", ["origin", "z0"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_uncertified_run(self, monkeypatch, d, start):
        # With the curvature's Lipschitz bound infinite no row is certified
        # and every row confirms its last step by an evaluation.  Both runs
        # take the same steps to the same points; a certified row reports
        # its bound, which is at least the measured norm and within the
        # tolerance.
        y, model = TestEstimateScores()._simulated(n=1500, p=30, d=d, seed=35)
        z0 = None if start == "origin" else np.random.default_rng(36).uniform(-1, 1, (y.n, d))
        certified = estimate_scores(y, model, z0=z0)
        monkeypatch.setattr(scores_module, "_PSI3_MAX", math.inf)
        evaluated = estimate_scores(y, model, z0=z0)
        for field in ("z_hat", "iterations", "converged"):
            np.testing.assert_array_equal(getattr(certified, field), getattr(evaluated, field))
        moved = certified.grad_norms != evaluated.grad_norms
        assert moved.mean() > 0.5
        assert np.all(certified.grad_norms[moved] >= evaluated.grad_norms[moved])
        assert np.all(certified.grad_norms[certified.converged] <= ScoreConfig().grad_tol)

    def test_cells_past_forty_certified_where_bound_holds(self, monkeypatch):
        # A threshold of 45 noise units puts a cell past |x| = 40 at every
        # point near the origin.  Its curvature comes from erfcx's far
        # rational and is as accurate there as anywhere, so most rows are
        # certified; each certified row's bound is at least the gradient
        # norm that the uncertified run measures at the same z + s, and
        # both runs take the same steps to the same points.
        y, model = TestEstimateScores()._simulated(n=400, p=12, d=2, seed=39)
        far_c = model.c_hat.copy()
        far_c[0] = 45.0 * math.sqrt(model.tau2_hat[0])
        far = FactorModel(
            d=2, p=12, c_hat=far_c, b_hat=model.b_hat, tau2_hat=model.tau2_hat,
            eigvals=model.eigvals,
        )
        cfg = ScoreConfig(m_percent=100.0)
        certified = estimate_scores(y, far, cfg)
        monkeypatch.setattr(scores_module, "_PSI3_MAX", math.inf)
        evaluated = estimate_scores(y, far, cfg)
        for field in ("z_hat", "iterations", "converged"):
            np.testing.assert_array_equal(getattr(certified, field), getattr(evaluated, field))
        moved = certified.grad_norms != evaluated.grad_norms
        assert moved.mean() > 0.5
        assert np.all(certified.grad_norms[moved] >= evaluated.grad_norms[moved])

    def test_floored_noise_never_certified(self, monkeypatch):
        # Noise variances of 4e-10, just above the 1e-10 floor that would
        # leave them out, put the loadings over tau near 5e4 and L above
        # 1e12: no step is short enough to certify, so the scores are those
        # of the uncertified run in every field.
        y, model = TestEstimateScores()._simulated(n=300, p=6, d=2, seed=37)
        floored = FactorModel(
            d=2, p=6, c_hat=model.c_hat, b_hat=model.b_hat, tau2_hat=np.full(6, 4e-10),
            eigvals=model.eigvals,
        )
        cfg = ScoreConfig(m_percent=100.0)
        assert _inclusion(floored, 100.0).lipschitz > 1e12
        a = estimate_scores(y, floored, cfg)
        monkeypatch.setattr(scores_module, "_PSI3_MAX", math.inf)
        b = estimate_scores(y, floored, cfg)
        assert a.iterations.max() > 5
        for field in ("z_hat", "iterations", "grad_norms", "converged"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def closed_form_by_row(h, g):
    """adj(h) g and det(h) of one symmetric d x d matrix, d <= 3, in Python
    floats: each entry's products and sums in the order of ``_solve_steps``."""
    if len(g) == 1:
        return [g[0]], h[0][0]
    if len(g) == 2:
        (a, b), (_, c) = h
        return [c * g[0] - b * g[1], a * g[1] - b * g[0]], a * c - b * b
    (a, b, c), (_, e, f), (_, _, k) = h
    cof = [
        [e * k - f * f, c * f - b * k, b * f - c * e],
        [c * f - b * k, a * k - c * c, b * c - a * f],
        [b * f - c * e, b * c - a * f, a * e - b * b],
    ]
    adj_g = [cof[r][0] * g[0] + cof[r][1] * g[1] + cof[r][2] * g[2] for r in range(3)]
    return adj_g, a * cof[0][0] + b * cof[0][1] + c * cof[0][2]


def solve_steps_by_row(curv, g):
    """Row-by-row reference: for d <= 3 the closed form adj(H) g / det(H),
    unless det(H) is at most 1e-8 of the product of H's diagonal; those
    rows, and every row for d >= 4, by a LAPACK solve, ridged when it
    meets a zero pivot, with a zero step when the trace is zero."""
    d = g.shape[1]
    step = np.empty_like(g)
    for i in range(g.shape[0]):
        h, gi = curv[i].tolist(), g[i].tolist()
        if d <= 3:
            adj_g, det = closed_form_by_row(h, gi)
            if det > 1e-8 * math.prod(h[k][k] for k in range(d)):
                step[i] = [v / det for v in adj_g]
                continue
        try:
            step[i] = np.linalg.solve(curv[i], g[i])
        except np.linalg.LinAlgError:
            trace = float(np.trace(curv[i]))
            if trace <= 0.0:
                step[i] = 0.0
            else:
                ridge = 1e-8 * trace / d
                step[i] = np.linalg.solve(curv[i] + ridge * np.eye(d), g[i])
    return step


def spd_stack(rng, n, d):
    a = rng.standard_normal((n, d, d))
    return a @ a.transpose(0, 2, 1) + np.eye(d)


class TestSolveSteps:
    def test_singular_rows_ridged_together(self):
        rng = np.random.default_rng(41)
        regular = spd_stack(rng, 3, 2)
        rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])  # exact zero pivot
        curv = np.stack(
            [regular[0], rank_one, regular[1], np.zeros((2, 2)), 3.0 * rank_one, regular[2]]
        )
        g = rng.standard_normal((6, 2))
        step = _solve_steps(curv, g)
        np.testing.assert_array_equal(step, solve_steps_by_row(curv, g))
        np.testing.assert_array_equal(step[3], np.zeros(2))

    def test_singular_rows_one_factor(self):
        curv = np.array([[[2.0]], [[0.0]], [[0.25]], [[0.0]]])
        g = np.array([[1.0], [3.0], [-1.0], [0.0]])
        step = _solve_steps(curv, g)
        np.testing.assert_array_equal(step, solve_steps_by_row(curv, g))
        np.testing.assert_array_equal(step[:, 0], [0.5, 0.0, -4.0, 0.0])

    def test_singular_rows_three_factors(self):
        # Rank one and rank two with integer entries (det exactly 0 in
        # floats), and the zero matrix, among regular rows: the singular ones
        # are ridged by 1e-8 trace / 3 and the zero one gets a zero step.
        rng = np.random.default_rng(42)
        regular = spd_stack(rng, 3, 3)
        v, u = np.array([1.0, 2.0, 3.0]), np.array([2.0, -1.0, 1.0])
        rank_one, rank_two = np.outer(v, v), np.outer(v, v) + np.outer(u, u)
        curv = np.stack(
            [regular[0], rank_one, regular[1], np.zeros((3, 3)), rank_two, regular[2]]
        )
        g = rng.standard_normal((6, 3))
        step = _solve_steps(curv, g)
        np.testing.assert_array_equal(step, solve_steps_by_row(curv, g))
        np.testing.assert_array_equal(step[3], np.zeros(3))
        for row in (1, 4):
            ridge = 1e-8 * np.trace(curv[row]) / 3
            ridged = np.linalg.solve(curv[row] + ridge * np.eye(3), g[row])
            np.testing.assert_array_equal(step[row], ridged)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        d=st.integers(1, 3),
        log_cond=st.floats(0.0, 3.0),
        log_scale=st.floats(-6.0, 6.0),
    )
    def test_closed_form_matches_lapack(self, seed, d, log_cond, log_scale):
        # Well-conditioned SPD stacks, exactly symmetric as the curvature
        # is: each row is within 16 eps cond of LAPACK's solve, relative.
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((8, d, d)))[0]
        eig = 10.0 ** (log_scale + rng.uniform(0.0, log_cond, (8, d)))
        curv = (q * eig[:, None, :]) @ q.transpose(0, 2, 1)
        curv = 0.5 * (curv + curv.transpose(0, 2, 1))
        g = rng.standard_normal((8, d)) * 10.0 ** rng.uniform(-6.0, 6.0, (8, 1))
        step = _solve_steps(curv, g)
        np.testing.assert_array_equal(step, solve_steps_by_row(curv, g))
        ref = np.linalg.solve(curv, g[..., None])[..., 0]
        bound = 16 * np.finfo(float).eps * np.linalg.cond(curv) * np.linalg.norm(ref, axis=1)
        assert np.all(np.linalg.norm(step - ref, axis=1) <= bound)


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
