"""Kernel tests: normal primitives, bivariate tails, and the inversion.

Expected values tagged with a comment were computed from an independent
oracle (mpmath at 30 digits, the quadrant closed form, or 2-D adaptive
quadrature of the defining double integral) and frozen here.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from binfactor.gaussian import (
    _CHUNK_PAIRS,
    RHO_CLAMP,
    bvn_boundary_value,
    bvn_upper_tail,
    bvn_upper_tail_batch,
    bvn_upper_tail_drho,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    tetrachoric_invert,
    tetrachoric_invert_batch,
)
from binfactor.moments import BinaryMatrix, estimate_tetrachoric, joint_frequency_matrix

mp.mp.dps = 30


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
        assert abs(res.ell_at_rho - 0.2) <= 1e-9
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

    def test_pair_result_independent_of_position(self):
        # p = 50 gives 1225 pairs, more than one chunk of the matrix path.
        rng = np.random.default_rng(2024)
        n, p = 4000, 50
        assert p * (p - 1) // 2 > _CHUNK_PAIRS
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
