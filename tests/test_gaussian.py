"""Kernel tests: normal primitives, bivariate tails, and the inversion.

Expected values tagged with a comment were computed from an independent
oracle (mpmath at 30 digits, the quadrant closed form, or 2-D adaptive
quadrature of the defining double integral) and frozen here.
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from binfactor import gaussian
from binfactor.gaussian import (
    RHO_CLAMP,
    _drho,
    bvn_boundary_value,
    bvn_upper_tail,
    bvn_upper_tail_batch,
    bvn_upper_tail_drho,
    erfcx,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_tail,
    tetrachoric_invert,
    tetrachoric_invert_batch,
)
from binfactor.moments import (
    BinaryMatrix,
    estimate_tetrachoric,
    joint_frequency_matrix,
    marginal_frequencies,
    thresholds,
)
from binfactor.simulate import SimScenario, generate_dataset, generate_true_model

mp.mp.dps = 30

ORACLE_TABLE = Path(__file__).with_name("data") / "bvn_negative_rho.txt"


def ell_by_double_quadrature(c1, c2, rho):
    """Independent oracle: adaptive 2-D quadrature of the defining integral."""

    def f(y, x):
        return math.exp(-(x * x + y * y - 2.0 * rho * x * y) / (2.0 * (1.0 - rho * rho)))

    val, _ = integrate.dblquad(
        f, c1, np.inf, lambda _: c2, np.inf, epsabs=1e-13, epsrel=1e-13
    )
    return val / (2.0 * math.pi * math.sqrt(1.0 - rho * rho))


class TestStdNormalPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_at_one(self):
        # mpmath: npdf(1)
        assert std_normal_pdf(1.0) == pytest.approx(0.24197072451914335, abs=1e-16)

    def test_even(self):
        x = np.linspace(0.0, 6.0, 61)
        np.testing.assert_array_equal(std_normal_pdf(x), std_normal_pdf(-x))

    def test_positive(self):
        assert np.all(std_normal_pdf(np.linspace(-30, 30, 101)) > 0.0)


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_upper_975(self):
        assert std_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-14)

    def test_symmetry_identity(self):
        x = np.linspace(-8.0, 8.0, 401)
        np.testing.assert_allclose(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, atol=1e-15)

    def test_against_high_precision_oracle(self):
        for x in np.linspace(-8.0, 8.0, 81):
            exact = float(mp.ncdf(mp.mpf(float(x))))
            assert abs(float(std_normal_cdf(float(x))) - exact) <= 1e-14

    def test_strictly_increasing(self):
        x = np.linspace(-8.0, 8.0, 401)
        assert np.all(np.diff(std_normal_cdf(x)) > 0.0)

    def test_within_ndtr_ulps_of_mpmath(self):
        # In ulps of the 30-digit value, on each range the worst error is at
        # most scipy.special.ndtr's worst there plus 4.  ndtr errs by up to
        # 2.4e-13 relative on [-37.5, -1]; Phi stays within 1e-15 there.
        x = np.random.default_rng(20261019).uniform(-40.0, 40.0, 20000)
        x = np.concatenate((x, [0.0, -0.0, 1.0, -1.0, 8.0 * math.sqrt(2.0), -37.5, -38.5, 5e-324]))
        exact = [mp.ncdf(mp.mpf(v)) for v in x]

        def ulps(got):
            return np.array([float(abs(mp.mpf(g) - e) / np.spacing(float(e)))
                             for g, e in zip(got, exact)])

        got = std_normal_cdf(x)
        ours, ndtr = ulps(got), ulps(special.ndtr(x))
        edges = [-40.0, -10.0, -3.0, -1.0, 0.0, 1.0, 3.0, np.nextafter(40.0, 41.0)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            in_range = (x >= lo) & (x < hi)
            assert in_range.any()
            assert ours[in_range].max() <= ndtr[in_range].max() + 4.0, (lo, hi)
        deep = np.flatnonzero((x >= -37.5) & (x <= -1.0))
        assert max(abs(float(mp.mpf(got[k]) / exact[k] - 1)) for k in deep) <= 1e-15

    def test_infinities_and_nan(self):
        out = std_normal_cdf(np.array([-np.inf, np.inf, np.nan]))
        assert out[0] == 0.0 and out[1] == 1.0 and np.isnan(out[2])
        assert std_normal_cdf(-np.inf) == 0.0 and std_normal_cdf(np.inf) == 1.0

    def test_tail_is_each_value_alone(self):
        # A value does not depend on the others, on either side of |s| = 8.
        x = np.random.default_rng(3).uniform(-15.0, 15.0, (40, 25))
        tail = std_normal_tail(x)
        alone = np.array([std_normal_tail(v) for v in x.ravel()]).reshape(x.shape)
        assert np.array_equal(tail, alone)
        assert np.array_equal(tail, std_normal_cdf(-x))


class TestErfcx:
    def test_against_mpmath(self):
        with mp.workdps(40):

            def exact(t):
                t = mp.mpf(t)
                if t < 1e4:
                    return mp.erfc(t) * mp.exp(t * t)
                # The alternating asymptotic series errs by less than its
                # first omitted term, far below 1e-40 here.
                u, term, total = 1 / (2 * t * t), mp.mpf(1), mp.mpf(0)
                for k in range(30):
                    total += term
                    term *= -(2 * k + 1) * u
                return total / (t * mp.sqrt(mp.pi))

            def worst(t):
                exacts = map(exact, t)
                return max(abs(float(mp.mpf(g) / e - 1)) for g, e in zip(erfcx(t), exacts))

            rng = np.random.default_rng(11)
            t_high = np.concatenate((
                np.exp(rng.uniform(math.log(3.5), math.log(1e300), 2000)),
                np.linspace(3.5, 60.0, 2000),
                [3.5, 8.0, 50.0, 1e6, 1e51, 1e300],
                np.nextafter([3.5, 8.0, 50.0], 0.0)[1:],
                np.nextafter([3.5, 8.0, 50.0], 99.0),
            ))
            # Below 3.5, where the one rational errs by at most 8e-16 (see
            # tests/data/make_erfcx_rational.py).
            rng = np.random.default_rng(12)
            t_low = np.concatenate((
                np.linspace(0.0, 3.5, 4000, endpoint=False),
                rng.uniform(0.8, 1.1, 4000),
                [5e-324, 1e-8, 0.91, np.nextafter(0.91, 0.0), np.nextafter(0.91, 1.0)],
                [np.nextafter(3.5, 0.0)],
            ))
            # Dense on both sides of the seam at 3.5: the near rational's
            # rounding reaches 7.5e-16 at t = 2.56, the far one's 2.2e-16 at
            # t = 34.6 in the sample above.
            t_mid = np.concatenate((np.linspace(1.0, 8.0, 20000, endpoint=False), [7.84]))
            assert worst(t_low) <= 1e-15
            assert worst(t_high) <= 3e-16
            assert worst(t_mid) <= 8e-16

    def test_non_increasing(self):
        # erfcx falls on [0, inf), by 2.6e-6 relative per step of this grid
        # at its flattest; across the seam at 3.5, and at 8 and 50, the
        # float neighbours from both sides keep that order too.
        grid = erfcx(np.linspace(0.0, 3.5, 350001)[:-1])
        assert np.all(np.diff(grid) < 0.0)
        for edge in (3.5, 8.0, 50.0):
            seam = erfcx(np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 99.0)]))
            assert np.all(np.diff(seam) <= 0.0)

    def test_below_zero_is_nan(self):
        got = erfcx(np.array([-1e-300, -0.5, -10.0, -np.inf, 0.0, -0.0]))
        assert np.isnan(got[:4]).all() and np.array_equal(got[4:], [1.0, 1.0])
        assert np.isnan(erfcx(-0.5))

    def test_in_place_is_each_value_alone(self):
        # The kernel's form: result in ``out``, temporaries in ``work``.  A
        # value does not depend on the others, on either side of each
        # branch edge.
        rng = np.random.default_rng(3)
        t = rng.permutation(np.concatenate((
            rng.uniform(0.0, 4.0, 400), rng.uniform(4.0, 12.0, 300), rng.uniform(12.0, 80.0, 300)
        ))).reshape(40, 25)
        out, work = np.empty(t.shape), np.empty(t.shape)
        assert erfcx(t, out=out, work=work) is out
        alone = np.array([erfcx(v) for v in t.ravel()]).reshape(t.shape)
        assert np.array_equal(out, alone)
        assert np.array_equal(out, erfcx(t))


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_upper_975(self):
        # mpmath: sqrt(2) * erfinv(0.95)
        assert std_normal_quantile(0.975) == pytest.approx(1.9599639845400542, abs=1e-12)

    def test_round_trip(self):
        x = np.linspace(-5.0, 5.0, 101)
        back = std_normal_quantile(std_normal_cdf(x))
        np.testing.assert_allclose(back, x, atol=1e-10)

    def test_round_trip_relative_in_both_tails(self):
        # A relative error e in x moves Phi(x) by about x^2 e relative.
        p = np.geomspace(1e-300, 0.5, 4001)
        x = std_normal_quantile(p)
        rel = np.abs(std_normal_cdf(x) - p) / p
        assert np.all(rel <= 4.0 * np.spacing(1.0) * (1.0 + x * x))
        q = 1.0 - np.geomspace(1e-16, 0.5, 2001)
        assert np.all(np.abs(std_normal_cdf(std_normal_quantile(q)) - q) <= 4.0 * np.spacing(q))

    def test_cdf_residual(self):
        p = np.linspace(1e-10, 1.0 - 1e-10, 501)
        np.testing.assert_allclose(std_normal_cdf(std_normal_quantile(p)), p, atol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


class TestBvnUpperTail:
    def test_independent_origin(self):
        assert bvn_upper_tail(0.0, 0.0, 0.0) == 0.25

    def test_quadrant_value_half(self):
        # quadrant closed form: 1/4 + arcsin(0.5) / (2 pi) = 1/3
        assert bvn_upper_tail(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_quadrant_closed_form_grid(self):
        for rho in np.concatenate([[-0.99], np.arange(-0.9, 0.91, 0.1), [0.99]]):
            exact = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert bvn_upper_tail(0.0, 0.0, float(rho)) == pytest.approx(exact, abs=1e-12)

    def test_zero_correlation_factorizes(self):
        for c1 in (-2.0, -0.3, 0.0, 1.1, 2.5):
            for c2 in (-1.7, 0.0, 0.6, 2.0):
                exact = float(std_normal_cdf(-c1)) * float(std_normal_cdf(-c2))
                assert bvn_upper_tail(c1, c2, 0.0) == exact

    def test_against_double_quadrature(self):
        for c1, c2, rho in [
            (0.3, -0.7, 0.85),
            (-1.2, 0.4, -0.6),
            (1.5, 1.0, 0.3),
            (-0.5, -0.5, -0.9),
            (2.0, -1.0, 0.95),
            (0.0, 1.0, -0.35),
        ]:
            oracle = ell_by_double_quadrature(c1, c2, rho)
            assert bvn_upper_tail(c1, c2, rho) == pytest.approx(oracle, abs=1e-9)

    def test_symmetric_exactly(self):
        for c1, c2, rho in [(0.3, -1.2, 0.77), (1.5, -0.5, -0.9), (2.0, 0.1, 0.5)]:
            assert bvn_upper_tail(c1, c2, rho) == bvn_upper_tail(c2, c1, rho)

    def test_probability_bounds(self):
        for c1 in (-2.0, 0.0, 1.5):
            for c2 in (-1.0, 0.5, 2.5):
                cap = min(float(std_normal_cdf(-c1)), float(std_normal_cdf(-c2)))
                for rho in (-0.999, -0.5, 0.0, 0.5, 0.999):
                    val = bvn_upper_tail(c1, c2, rho)
                    assert 0.0 <= val <= cap + 1e-15

    def test_monotone_in_rho(self):
        # Strict increase is representable in float64 only while the local
        # increment exceeds one ulp of the value; separated thresholds go
        # flat beyond |rho| ~ 0.97, so those pairs use the narrower grid.
        for c1, c2, hi in ((-1.0, 0.5, 0.95), (0.0, 0.0, 0.999), (1.2, -0.4, 0.95)):
            grid = np.linspace(-hi, hi, 399)
            vals = [bvn_upper_tail(c1, c2, float(r)) for r in grid]
            assert np.all(np.diff(vals) > 0.0)

    def test_weakly_monotone_to_the_edges(self):
        grid = np.linspace(-0.9999, 0.9999, 401)
        for c1, c2 in ((-1.0, 0.5), (1.2, -0.4)):
            vals = [bvn_upper_tail(c1, c2, float(r)) for r in grid]
            assert np.all(np.diff(vals) >= 0.0)

    def test_boundary_consistency(self):
        # The limit is approached at rate sqrt(1 - rho^2) when thresholds
        # coincide (~1.4e-3 at rho = 0.999999), so the 1e-6 agreement is
        # checked at rho = +-(1 - 1e-12) where every case has converged.
        rho_near = 1.0 - 1e-12
        for c1 in (-1.2, 0.0, 0.8):
            for c2 in (-0.9, 0.0, 1.4):
                for sign in (1, -1):
                    limit = bvn_boundary_value(c1, c2, sign)
                    near = bvn_upper_tail(c1, c2, sign * rho_near)
                    assert near == pytest.approx(limit, abs=1e-6)

    def test_boundary_consistency_separated_thresholds(self):
        for c1, c2 in ((-1.2, 0.0), (0.8, -0.9), (0.0, 1.4)):
            for sign in (1, -1):
                limit = bvn_boundary_value(c1, c2, sign)
                near = bvn_upper_tail(c1, c2, sign * 0.999999)
                assert near == pytest.approx(limit, abs=1e-6)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_domain_rho(self, rho):
        with pytest.raises(ValueError):
            bvn_upper_tail(0.0, 0.0, rho)

    def test_domain_nonfinite_threshold(self):
        with pytest.raises(ValueError):
            bvn_upper_tail(math.inf, 0.0, 0.3)


class TestBvnUpperTailDrho:
    def test_origin(self):
        assert bvn_upper_tail_drho(0.0, 0.0, 0.0) == pytest.approx(
            0.15915494309189534, abs=1e-16
        )

    def test_one_zero(self):
        # pdf(1) * pdf(0)
        assert bvn_upper_tail_drho(1.0, 0.0, 0.0) == pytest.approx(
            0.09653235263005391, abs=1e-15
        )

    def test_strictly_positive(self):
        for c1 in (-2.0, 0.0, 2.0):
            for c2 in (-1.0, 1.0):
                for rho in (-0.95, 0.0, 0.95):
                    assert bvn_upper_tail_drho(c1, c2, rho) > 0.0

    def test_matches_finite_difference(self):
        # The finite difference carries rounding noise ~ ulp(ell)/(2h), so
        # 1e-5 relative agreement is only measurable where the derivative
        # clears ~1e-5; below that the comparison tests float rounding,
        # not the formula.
        step = 1e-5
        for c1 in (-1.5, -0.5, 0.0, 1.0):
            for c2 in (-1.0, 0.0, 0.5, 1.5):
                for rho in (-0.9, -0.5, 0.0, 0.4, 0.8):
                    exact = bvn_upper_tail_drho(c1, c2, rho)
                    if exact <= 1e-5:
                        continue
                    fd = (
                        bvn_upper_tail(c1, c2, rho + step)
                        - bvn_upper_tail(c1, c2, rho - step)
                    ) / (2.0 * step)
                    assert fd == pytest.approx(exact, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            bvn_upper_tail_drho(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("args", [(0.0, 0.0, -1.0), (0.0, 0.0, 1.5), (0.0, 0.0, math.nan),
                                      (math.inf, 0.0, 0.3), (0.0, math.nan, 0.3)])
    def test_rejects_rho_and_thresholds(self, args):
        with pytest.raises(ValueError):
            bvn_upper_tail_drho(*args)

    def test_bitwise_symmetric_and_the_solver_derivative(self):
        rng = np.random.default_rng(12)
        c1, c2 = rng.normal(size=(2, 2000))
        rho = rng.uniform(-0.999, 0.999, 2000)
        solver = _drho(np.minimum(c1, c2), np.maximum(c1, c2), rho)
        for k in range(2000):
            forward = bvn_upper_tail_drho(c1[k], c2[k], rho[k])
            assert forward == bvn_upper_tail_drho(c2[k], c1[k], rho[k])
            assert forward == solver[k]


class TestBvnBoundaryValue:
    def test_plus_one_origin(self):
        assert bvn_boundary_value(0.0, 0.0, 1) == 0.5

    def test_minus_one_origin(self):
        assert bvn_boundary_value(0.0, 0.0, -1) == 0.0

    def test_plus_one_asymmetric(self):
        # 1 - Phi(0.5)
        assert bvn_boundary_value(0.5, -0.2, 1) == pytest.approx(
            0.3085375387259869, abs=1e-15
        )

    def test_minus_one_positive_sum(self):
        assert bvn_boundary_value(0.5, 0.2, -1) == 0.0

    def test_minus_one_negative_sum(self):
        exact = 1.0 - float(std_normal_cdf(-1.0)) - float(std_normal_cdf(0.3))
        assert bvn_boundary_value(-1.0, 0.3, -1) == pytest.approx(exact, abs=1e-15)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            bvn_boundary_value(0.0, 0.0, 0)

    def test_bitwise_symmetric(self):
        c = np.random.default_rng(11).normal(size=(2000, 2))
        for c1, c2 in c:
            for sign in (1, -1):
                assert bvn_boundary_value(c1, c2, sign) == bvn_boundary_value(c2, c1, sign)

    @pytest.mark.parametrize("c1, c2", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
    def test_nonfinite_threshold(self, c1, c2):
        for sign in (1, -1):
            with pytest.raises(ValueError, match="finite"):
                bvn_boundary_value(c1, c2, sign)


def drho_one_point(c1, c2, rho):
    """``bvn_upper_tail_drho`` as it was when it took scalars only."""
    lo, hi, rho, _ = gaussian._flat_pairs(c1, c2, rho)
    if not abs(rho[0]) < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {float(rho[0])!r}")
    return _drho(lo, hi, rho).item()


def boundary_one_point(c1, c2, sign):
    """``bvn_boundary_value`` as it was when it took scalars only."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    lo, hi, _, _ = gaussian._flat_pairs(c1, c2, 0.0)
    _, up_hi, _, diff = gaussian._pair_terms(lo, hi)
    return up_hi.item() if sign == 1 else max(0.0, diff.item())


class TestBroadcastPrimitives:
    """``bvn_upper_tail_drho`` and ``bvn_boundary_value`` on arrays are their
    scalar calls, and those are the one-point functions they replaced."""

    # Both signs of each threshold, out to where Phi(-c) underflows, so the
    # -1 limit meets its zero, tiny and near-one differences.
    C = np.array([-40.0, -8.0, -3.0, -1.0, -0.2, 0.0, 0.3, 1.0, 3.0, 8.0, 38.0])
    RHO = np.array([-0.999999, -0.9, -0.3, 0.0, 0.5, 0.99])

    @staticmethod
    def bits(values):
        return [float(v).hex() for v in np.ravel(values)]

    def test_arrays_are_the_scalar_calls(self):
        c1, c2 = self.C[:, None, None], self.C[None, :, None]
        grid = np.broadcast_arrays(c1, c2, self.RHO[None, None, :])
        drho = bvn_upper_tail_drho(c1, c2, self.RHO)
        assert drho.shape == grid[0].shape
        points = zip(*map(np.ravel, grid))
        alone = [bvn_upper_tail_drho(float(a), float(b), float(r)) for a, b, r in points]
        assert self.bits(drho) == self.bits(alone)
        signs = np.array([1, -1])
        grid = np.broadcast_arrays(c1, c2, signs)
        limits = bvn_boundary_value(c1, c2, signs)
        assert limits.shape == grid[0].shape
        points = zip(*map(np.ravel, grid))
        alone = [bvn_boundary_value(float(a), float(b), int(s)) for a, b, s in points]
        assert self.bits(limits) == self.bits(alone)

    def test_scalars_are_the_one_point_floats(self):
        for c1 in self.C:
            for c2 in self.C:
                for rho in self.RHO:
                    got = bvn_upper_tail_drho(float(c1), float(c2), float(rho))
                    assert type(got) is float
                    assert got.hex() == drho_one_point(c1, c2, rho).hex()
                for sign in (1, -1):
                    got = bvn_boundary_value(float(c1), float(c2), sign)
                    assert type(got) is float
                    assert got.hex() == boundary_one_point(c1, c2, sign).hex()

    @pytest.mark.parametrize("args, message", [
        ((0.0, 0.0, 1.0), "rho must satisfy |rho| < 1, got 1.0"),
        ((0.5, 0.0, -1), "rho must satisfy |rho| < 1, got -1.0"),
        ((0.0, 0.0, math.nan), "rho must satisfy |rho| < 1, got nan"),
        ((math.inf, 0.0, 0.3), "thresholds must be finite, got (inf, 0.0)"),
    ])
    def test_bad_rho_raises_the_one_point_error(self, args, message):
        for f in (bvn_upper_tail_drho, drho_one_point):
            with pytest.raises(ValueError) as err:
                f(*args)
            assert str(err.value) == message

    @pytest.mark.parametrize("args, message", [
        ((0.0, 0.0, 0), "sign must be +1 or -1, got 0"),
        ((0.0, 0.0, 2), "sign must be +1 or -1, got 2"),
        ((0.0, 0.0, 0.5), "sign must be +1 or -1, got 0.5"),
        ((0.0, 0.0, math.nan), "sign must be +1 or -1, got nan"),
        ((0.0, math.nan, 1), "thresholds must be finite, got (0.0, nan)"),
    ])
    def test_bad_sign_raises_the_one_point_error(self, args, message):
        for f in (bvn_boundary_value, boundary_one_point):
            with pytest.raises(ValueError) as err:
                f(*args)
            assert str(err.value) == message

    def test_an_array_names_its_first_bad_value(self):
        with pytest.raises(ValueError, match=r"got 1\.5$"):
            bvn_upper_tail_drho(0.0, [0.1, 0.2, 0.3], [0.5, 1.5, -2.0])
        with pytest.raises(ValueError, match="got 0$"):
            bvn_boundary_value([0.1, 0.2], 0.0, [[1, -1], [0, 3]])


class TestTetrachoricInvert:
    def test_independence(self):
        res = tetrachoric_invert(0.0, 0.0, 0.25)
        assert abs(res.rho_hat) <= 1e-10
        assert not res.clamped

    def test_third(self):
        # inverse of the quadrant closed form at rho = 0.5
        res = tetrachoric_invert(0.0, 0.0, 1.0 / 3.0)
        assert res.rho_hat == pytest.approx(0.5, abs=1e-9)

    def test_round_trip_grid(self):
        for c1 in (-1.0, 0.0, 1.0):
            for c2 in (-1.0, 0.0, 1.0):
                for rho in np.arange(-0.9, 0.91, 0.1):
                    p = bvn_upper_tail(c1, c2, float(rho))
                    res = tetrachoric_invert(c1, c2, p)
                    assert abs(res.rho_hat - rho) <= 1e-8
                    assert not res.clamped

    def test_clamp_high(self):
        hi = bvn_boundary_value(0.4, -0.3, 1)
        res = tetrachoric_invert(0.4, -0.3, hi)
        assert res.clamped
        assert res.rho_hat == 1.0 - RHO_CLAMP

    def test_clamp_low(self):
        lo = bvn_boundary_value(-0.4, 0.1, -1)
        res = tetrachoric_invert(-0.4, 0.1, lo)
        assert res.clamped
        assert res.rho_hat == -(1.0 - RHO_CLAMP)

    def test_clamp_extremes(self):
        assert tetrachoric_invert(0.0, 0.0, 1.0).clamped
        assert tetrachoric_invert(0.0, 0.0, 0.0).clamped

    def test_tiny_target_above_zero_boundary_is_inverted(self):
        # ell = 1.57e-23 lies 1e16 of its own ulps above the zero lower
        # boundary (c1 + c2 > 0), so rho is recoverable and must not clamp.
        res = tetrachoric_invert(1.5, 1.5, bvn_upper_tail(1.5, 1.5, -0.95))
        assert not res.clamped
        assert abs(res.rho_hat + 0.95) <= 1e-8
        # At (20, 33) the slope pdf(c1) pdf(c2) of the rho = 0 start
        # underflows, so its Newton step is infinite and must stop at the
        # edge without a warning.  The roots were frozen from a solve with a
        # different start, which may move a root only within 2e-12.
        for p, rho in ((1e-240, 0.5560114684328589), (1e-300, 0.1050890058705664)):
            res = tetrachoric_invert(20.0, 33.0, p)
            assert not res.clamped
            assert abs(res.rho_hat - rho) <= 2e-12

    def test_tiny_target_at_zero_boundary_is_clamped(self):
        # At c = 0 the -1 boundary is 0 and ell(-1 + 1e-12) is 2.3e-7, so
        # the root of a 1e-13 target lies beyond the solver edge.
        for p in (1e-13, 1e-7):
            res = tetrachoric_invert(0.0, 0.0, p)
            assert res.clamped
            assert res.rho_hat == -(1.0 - RHO_CLAMP)
        res = tetrachoric_invert(0.0, 0.0, 1.0 - 1e-13)
        assert res.clamped
        assert res.rho_hat == 1.0 - RHO_CLAMP

    def test_residual_at_solution(self):
        res = tetrachoric_invert(0.7, -0.4, 0.2)
        assert abs(bvn_upper_tail(0.7, -0.4, res.rho_hat) - 0.2) <= 1e-9
        assert res.iterations >= 1
        assert not res.clamped

    def test_monotone_in_target(self):
        lo = bvn_boundary_value(0.3, 0.3, -1)
        hi = bvn_boundary_value(0.3, 0.3, 1)
        targets = np.linspace(lo + 1e-6, hi - 1e-6, 40)
        roots = [tetrachoric_invert(0.3, 0.3, float(t)).rho_hat for t in targets]
        assert np.all(np.diff(roots) >= 0.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            tetrachoric_invert(0.0, 0.0, bad)


# Thresholds cover marginals from about 1e-3 to 1 - 1e-3.
thresholds_st = st.floats(-3.0, 3.0, allow_nan=False)


class TestBatchedKernel:
    """The batch functions and their 1-element wrappers are one kernel."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(thresholds_st, thresholds_st,
                              st.floats(-0.999999, 0.999999)), min_size=1, max_size=12))
    def test_tail_batch_matches_scalar_bitwise(self, cells):
        c1, c2, rho = map(np.array, zip(*cells))
        batch = bvn_upper_tail_batch(c1, c2, rho)
        scalar = [bvn_upper_tail(*cell) for cell in cells]
        np.testing.assert_array_equal(batch, scalar)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(thresholds_st, thresholds_st, st.floats(0.0, 1.0)),
                    min_size=1, max_size=12))
    def test_inversion_batch_matches_scalar_bitwise(self, cells):
        # Raw targets in [0, 1] reach both clamp margins and the solver edge.
        c1, c2, p = map(np.array, zip(*cells))
        rho, iterations, clamped = tetrachoric_invert_batch(c1, c2, p)
        for k, cell in enumerate(cells):
            res = tetrachoric_invert(*cell)
            assert (res.rho_hat, res.iterations, res.clamped) == (
                rho[k], iterations[k], clamped[k]
            )

    @settings(max_examples=60, deadline=None)
    @given(thresholds_st, thresholds_st,
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
    @example(0.0, 0.0, [1e-7, 3e-7, 1e-5])
    def test_inversion_monotone_and_bounded(self, c1, c2, raw):
        # Raw targets reach both clamp zones.  Targets at least 0.1% apart
        # cannot trade places through the root finder's tolerance, one ulp
        # of the target or 2e-12 in rho, outside the clamp zones.  Every
        # root lies within the clamp values, and a clamped one on them.
        targets = [min(raw)]
        for t in sorted(raw):
            if t > targets[-1] * 1.001:
                targets.append(t)
        rho_hat, _, clamped = tetrachoric_invert_batch(c1, c2, np.array(targets))
        assert np.all(np.diff(rho_hat) >= 0.0)
        assert np.all(np.abs(rho_hat) <= 1.0 - RHO_CLAMP)
        assert np.all(np.abs(rho_hat[clamped]) == 1.0 - RHO_CLAMP)

    def test_pair_result_independent_of_position(self, monkeypatch):
        # p = 50 gives 1225 pairs; with 256-pair chunks the matrix path spans
        # five of them, so pairs sit on both sides of chunk boundaries.
        monkeypatch.setattr(gaussian, "_CHUNK_PAIRS", 256)
        rng = np.random.default_rng(2024)
        n, p = 4000, 50
        assert p * (p - 1) // 2 > 4 * gaussian._CHUNK_PAIRS
        z = rng.standard_normal((n, 2))
        e = z @ rng.uniform(-0.8, 0.8, (2, p)) + 0.6 * rng.standard_normal((n, p))
        data = (e > rng.uniform(-2.0, 2.0, p)).astype(np.uint8)
        data[:, 1] = data[:, 0]  # one duplicated column: a clamped pair
        ms, tetra = estimate_tetrachoric(BinaryMatrix(data))
        c, joint = ms.c_hat, joint_frequency_matrix(BinaryMatrix(data))
        j1, j2 = np.triu_indices(p, 1)
        assert tetra.clamp_flags
        for a, b in zip(j1.tolist(), j2.tolist()):
            res = tetrachoric_invert(c[a], c[b], joint[a, b])
            assert res.rho_hat == tetra.sigma[a, b]
            assert res.clamped == ((a, b) in tetra.clamp_flags)
        perm = rng.permutation(j1.size)
        a, b = j2[perm], j1[perm]  # shuffled, and each pair's columns swapped
        rho, _, clamped = tetrachoric_invert_batch(c[a], c[b], joint[a, b])
        np.testing.assert_array_equal(rho, tetra.sigma[a, b])
        assert {(int(x), int(y)) for x, y in zip(b[clamped], a[clamped])} == tetra.clamp_flags

    def test_inversion_bitwise_across_threads(self):
        # Three full chunks and a remainder, with targets on both boundaries.
        rng = np.random.default_rng(2025)
        n = 3 * gaussian._CHUNK_PAIRS + 123
        c1, c2 = rng.uniform(-2.5, 2.5, (2, n))
        p = bvn_upper_tail_batch(c1, c2, rng.uniform(-0.999, 0.999, n))
        p[:40] = 0.0
        p[40:80] = std_normal_cdf(-np.maximum(c1[40:80], c2[40:80]))
        serial = tetrachoric_invert_batch(c1, c2, p, threads=1)
        threaded = tetrachoric_invert_batch(c1, c2, p, threads=2)
        assert serial[2][:80].all() and not serial[2][80:].all()
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("pairs, chunks", [
        (4096, [4096]),  # up to the split threshold: one chunk, run inline
        (4097, [2049, 2048]),
        (11175, [5588, 5587]),  # p = 150: one chunk per worker of two
        (33000, [16384, 16384, 232]),  # past two full chunks: full chunks
    ])
    def test_inversion_chunks_follow_the_pair_count_alone(self, monkeypatch, pairs, chunks):
        real, seen = gaussian.map_slices, []

        def recording(fn, n, size, threads=1):
            seen.append([len(range(n)[i : i + size]) for i in range(0, n, size)])
            return real(fn, n, size, threads)

        monkeypatch.setattr(gaussian, "map_slices", recording)
        for threads in (1, 3):
            tetrachoric_invert_batch(np.zeros(pairs), np.zeros(pairs), np.full(pairs, 0.3),
                                     threads=threads)
        assert seen == [chunks, chunks]

    def test_panel_groups_ascending_without_empty_pairs(self):
        # The smallest count is kept when no pair has 0 panels.
        groups = gaussian._panel_groups(np.array([3, 1, 3, 2, 1]))
        assert [(int(k), idx.tolist()) for k, idx in groups] == [
            (1, [1, 4]), (2, [3]), (3, [0, 2]),
        ]
        groups = gaussian._panel_groups(np.array([0, 2, 0, 2]))
        assert [(int(k), idx.tolist()) for k, idx in groups] == [(2, [1, 3])]
        assert list(gaussian._panel_groups(np.array([0, 0]))) == []

    def test_gauss_legendre_literals_match_leggauss(self):
        # The rule is held as literals so that no command imports
        # numpy.polynomial; another numpy may round leggauss by an ulp.
        nodes, weights = np.polynomial.legendre.leggauss(gaussian._GL_ORDER)
        for held, ref in ((gaussian._GL_NODES, nodes), (gaussian._GL_WEIGHTS, weights)):
            assert held.shape == ref.shape
            assert np.all(np.abs(held - ref) <= np.spacing(np.abs(ref)))

    def test_node_budget_keeps_each_pair_bitwise(self, monkeypatch):
        # Tail cells with c2 near -c1 and rho near -1 integrate up to the
        # singular point pi/2 and need up to twenty panels.  Under a budget
        # of 100 nodes every pass holds one to five pairs, and each still
        # evaluates and inverts bit for bit as in its own 1-element call.
        c1 = np.repeat(np.linspace(-2.5, 2.5, 11), 4)
        c2 = -c1 + np.tile([0.0, 0.01, -0.02, 0.3], 11)
        rho = np.repeat([-0.999, -0.9999, -0.99999, -0.97], 11)
        ell = bvn_upper_tail_batch(c1, c2, rho)
        alone = [tetrachoric_invert(a, b, t) for a, b, t in zip(c1, c2, ell)]

        real_groups, seen = gaussian._panel_groups, []

        def recording(panels):
            for k, idx in real_groups(panels):
                seen.append((int(k), idx.size))
                yield k, idx

        monkeypatch.setattr(gaussian, "_panel_groups", recording)
        monkeypatch.setattr(gaussian, "_NODE_BUDGET", 100)
        np.testing.assert_array_equal(bvn_upper_tail_batch(c1, c2, rho), ell)
        rho_hat, iterations, clamped = tetrachoric_invert_batch(c1, c2, ell)
        assert max(k for k, _ in seen) >= 15
        assert all(rows * k * 20 <= 100 or rows == 1 for k, rows in seen)
        np.testing.assert_array_equal(rho_hat, [r.rho_hat for r in alone])
        np.testing.assert_array_equal(iterations, [r.iterations for r in alone])
        np.testing.assert_array_equal(clamped, [r.clamped for r in alone])

    def test_panel_counts_exact_at_halving_edges(self, monkeypatch):
        # With a >= pi/2 - 0.4 an interval has no uniform panels: it takes the
        # least m >= 0 with rem / 2^m <= floor halvings and one last panel,
        # where rem = b - a and floor = max(1e-7, (pi/2 - b) / 2).  Each cell
        # puts rem at floor * 2^k, exactly where the floats hold that
        # difference, and moves a by one ulp either side.  The floor is at
        # its minimum for b >= pi/2, so those cells reach k = 30 with b up
        # to 4 floor 2^k; a floor above it needs b < pi/2 - 2e-7 and so
        # leaves rem below 0.4.
        start, half_pi = gaussian._REFINE_START, gaussian.HALF_PI
        a, b = [], []
        for top in (half_pi, half_pi - 2.0**-20, half_pi - 3e-7):
            floor = max(1e-7, 0.5 * (half_pi - top))
            for k in range(31):
                rem = np.ldexp(floor, k)
                end = max(top, 4.0 * rem) if floor == 1e-7 else top
                mid = end - rem
                if mid >= start:
                    a += [np.nextafter(mid, -np.inf), mid, np.nextafter(mid, np.inf)]
                    b += [end] * 3
        a += [1.5, 0.0]  # a = b, and an interval with no halved part
        b += [1.5, 1.0]
        a, b = np.array(a), np.array(b)

        real_groups, seen = gaussian._panel_groups, []

        def recording(panels):
            seen.append(panels)
            return real_groups(panels)

        monkeypatch.setattr(gaussian, "_panel_groups", recording)
        out = gaussian._panel_integrals(np.zeros(a.size), np.zeros(a.size), a, b)
        assert np.all(np.isfinite(out))

        rem = np.where(a < start, 0.0, b - a)
        floor = np.maximum(1e-7, 0.5 * (half_pi - b))
        m = np.zeros(a.size, dtype=int)
        while (over := np.ldexp(rem, -m) > floor).any():
            m += over
        expected = np.where(rem > 0.0, m + 1, 0)
        expected[-1] = 3  # [0, 1] in uniform panels of at most 0.4
        np.testing.assert_array_equal(seen[0], expected)
        assert set(m[:-2]) == set(range(32))
        # Exact hits: k = 21..30 at the minimum floor, where 1e-7 * 2^k has
        # no bit below 2^-52, and every k up to 0.4 of the other two floors.
        exact = (rem > 0.0) & (rem == np.ldexp(floor, m))
        assert exact.sum() == 10 + 20 + 22

    def test_iterations_bounded_on_round_trip_grid(self):
        # The 500 cells of acceptance criterion 2, where ell is exponentially
        # flat near -1 for some threshold pairs.
        grid = [(c1, c2, round(-0.95 + 0.1 * k, 2))
                for c1 in (-1.5, -0.5, 0.0, 0.5, 1.5)
                for c2 in (-1.5, -0.5, 0.0, 0.5, 1.5)
                for k in range(20)]
        c1, c2, rho = map(np.array, zip(*grid))
        _, iterations, _ = tetrachoric_invert_batch(c1, c2, bvn_upper_tail_batch(c1, c2, rho))
        assert iterations.max() <= 30

    def test_few_evaluations_on_model_data(self):
        # The rho = 0 anchor start needs 3.83 evaluations of ell per pair
        # here; the Bonett-Price (2005) closed form needed 3.98.
        scn = SimScenario(d=3, p=100, n=2000, reps=1, seed=3)
        tm = generate_true_model(scn, np.random.default_rng([3, 0]))
        y = generate_dataset(tm, scn.n, np.random.default_rng([3, 1, 0]))[0]
        c = thresholds(marginal_frequencies(y), y.n).c_hat
        j1, j2 = np.triu_indices(scn.p, 1)
        _, iterations, _ = tetrachoric_invert_batch(
            c[j1], c[j2], joint_frequency_matrix(y)[j1, j2]
        )
        assert iterations.mean() <= 3.9

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_batch_target_domain(self, bad):
        with pytest.raises(ValueError):
            tetrachoric_invert_batch([0.0, 0.0], [0.0, 0.0], [0.3, bad])

    @pytest.mark.parametrize("bad", [-1.0, 1.0, math.nan])
    def test_batch_rho_domain(self, bad):
        with pytest.raises(ValueError):
            bvn_upper_tail_batch([0.0, 0.0], [0.0, 0.0], [0.3, bad])

    def test_batch_nonfinite_threshold(self):
        with pytest.raises(ValueError):
            tetrachoric_invert_batch([0.0, math.inf], 0.0, 0.3)


class TestNegativeRhoTailRule:
    """rho < 0 runs from the rho = 0 anchor unless the value falls to the tail."""

    def test_against_mpmath(self):
        # 1,000 seeded rho < 0 cells, half of them with c2 near -c1, and their
        # 30-digit references; tests/data/make_bvn_negative_rho.py writes them.
        rows = [line.split() for line in ORACLE_TABLE.read_text().splitlines()
                if not line.startswith("#")]
        c1, c2, rho, ref = (np.array([float(row[k]) for row in rows]) for k in range(4))
        assert rho.size >= 1000 and np.all(rho < 0.0) and np.all(ref > 0.0)
        value = bvn_upper_tail_batch(c1, c2, rho)
        rel = np.abs(value - ref) / ref
        tail = value <= 0.25 * std_normal_cdf(-c1) * std_normal_cdf(-c2)
        assert tail.sum() >= 300 and (~tail).sum() >= 500
        # From the rho = 0 anchor the error stays at rounding level.
        assert rel[~tail].max() <= 1e-14
        # Tail cells keep the rho = -1 branch's accuracy: 3e-14 down to
        # 1e-20 and 1.1e-13 down to 1e-40.  Deeper still, its panels do not
        # resolve the integrand's steep fall right after theta, and the
        # error reaches 6e-5 at 7e-170.
        assert rel[tail & (ref >= 1e-20)].max() <= 5e-14
        assert rel[tail & (ref >= 1e-40)].max() <= 2e-13
        assert rel.max() <= 1e-4

    @pytest.mark.parametrize("c1, c2", [
        (0.0, 0.0), (1.0, -0.5), (-1.5, 2.0), (2.5, 2.5), (-0.3, 0.31), (1.8, 0.2), (-2.9, 3.0),
    ])
    def test_branches_agree_either_side_of_the_switch(self, monkeypatch, c1, c2):
        anchor = float(std_normal_cdf(-c1) * std_normal_cdf(-c2))
        switch = 0.25 * anchor  # the documented fraction
        assert bvn_boundary_value(c1, c2, -1) < switch
        rho_switch = tetrachoric_invert(c1, c2, switch).rho_hat
        rho = np.array([rho_switch - 1e-9, rho_switch + 1e-9])
        value = bvn_upper_tail_batch(c1, c2, rho)
        assert value[0] < switch < value[1]
        # A fraction of 1 sends every rho < 0 cell to rho = -1; 0 keeps
        # every cell with a positive value on the rho = 0 anchor.
        monkeypatch.setattr(gaussian, "_TAIL_FRACTION", 1.0)
        from_minus_one = bvn_upper_tail_batch(c1, c2, rho)
        monkeypatch.setattr(gaussian, "_TAIL_FRACTION", 0.0)
        from_zero = bvn_upper_tail_batch(c1, c2, rho)
        # Below the switch the tail branch ran, above it the reflection.
        assert value[0] == from_minus_one[0] and value[1] == from_zero[1]
        np.testing.assert_allclose(from_zero, from_minus_one, rtol=1e-14, atol=0.0)
