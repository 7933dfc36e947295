"""Embedded numerical verification battery for the normal-tail kernel.

Each check compares the kernel against an independent fact: a closed form,
a symmetry, a finite difference, or a round trip.  The battery backs the
``selfcheck`` CLI command and can be rerun programmatically; a perfect
build passes all checks with generous margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    bvn_boundary_value,
    bvn_upper_tail,
    bvn_upper_tail_drho,
    std_normal_cdf,
    std_normal_quantile,
    tetrachoric_invert,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool


def run_selfcheck() -> list[CheckResult]:
    """Run every check against its tolerance."""
    results = []
    for name, func, tol in _CHECKS:
        err = func()
        results.append(CheckResult(name, err, tol, err <= tol))
    return results


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check':<{width}}  {'max error':>12}  {'tolerance':>12}  status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{width}}  {r.max_error:>12.3e}  {r.tolerance:>12.3e}  {status}"
        )
    return "\n".join(lines)


def _check_cdf_symmetry() -> float:
    x = np.linspace(-8.0, 8.0, 321)
    return float(np.max(np.abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0)))


def _check_quantile_round_trip() -> float:
    x = np.linspace(-5.0, 5.0, 201)
    return float(np.max(np.abs(std_normal_quantile(std_normal_cdf(x)) - x)))


def _check_quadrant_closed_form() -> float:
    worst = 0.0
    for rho in np.concatenate([[-0.99], np.arange(-0.9, 0.91, 0.1), [0.99]]):
        exact = 0.25 + math.asin(rho) / (2.0 * math.pi)
        worst = max(worst, abs(bvn_upper_tail(0.0, 0.0, float(rho)) - exact))
    return worst


def _check_independence_product() -> float:
    worst = 0.0
    for c1 in (-2.0, -0.7, 0.0, 0.4, 1.8):
        for c2 in (-1.3, 0.0, 0.9, 2.2):
            exact = float(std_normal_cdf(-c1)) * float(std_normal_cdf(-c2))
            worst = max(worst, abs(bvn_upper_tail(c1, c2, 0.0) - exact))
    return worst


def _check_derivative_fd() -> float:
    # The centered difference carries rounding noise ~ ulp(ell)/(2*step),
    # so agreement is only checkable where the derivative clears ~1e-5.
    step = 1e-5
    worst = 0.0
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
                worst = max(worst, abs(fd - exact) / exact)
    return worst


def _check_reflection_identity() -> float:
    # ell(c1, c2; rho) + ell(c1, -c2; -rho) = Phi(-c1): one side of each pair
    # has rho < 0, and the grid takes it both from the rho = 0 anchor and,
    # at c1 = c2 = 3 and rho near -1, down the tail branch from rho = -1.
    worst = 0.0
    for c1 in (-2.2, 0.4, 3.0):
        for c2 in (-1.3, 0.9, 3.0):
            for rho in np.linspace(-0.999, 0.999, 9):
                total = bvn_upper_tail(c1, c2, rho) + bvn_upper_tail(c1, -c2, -rho)
                worst = max(worst, abs(total - float(std_normal_cdf(-c1))))
    return worst


def _check_boundary_consistency() -> float:
    # Coincident thresholds approach their limit at rate sqrt(1 - rho^2),
    # so the probe sits at +-(1 - 1e-12) where every case has converged.
    rho_near = 1.0 - 1e-12
    worst = 0.0
    for c1 in (-1.2, -0.3, 0.0, 0.8):
        for c2 in (-0.9, 0.0, 0.5, 1.4):
            for sign in (1, -1):
                limit = bvn_boundary_value(c1, c2, sign)
                near = bvn_upper_tail(c1, c2, sign * rho_near)
                worst = max(worst, abs(near - limit))
    return worst


def _check_inversion_round_trip() -> float:
    worst = 0.0
    for c1 in (-1.0, 0.0, 1.0):
        for c2 in (-1.0, 0.0, 1.0):
            for rho in np.arange(-0.9, 0.91, 0.1):
                p = bvn_upper_tail(c1, c2, float(rho))
                res = tetrachoric_invert(c1, c2, p)
                worst = max(worst, abs(res.rho_hat - rho))
    return worst


def _check_monotone_in_rho() -> float:
    # Strict increase is representable only while the local increment
    # exceeds one ulp; separated-threshold pairs go flat near |rho| = 1,
    # so they are probed on the narrower grid.
    worst = 0.0
    for c1, c2, hi in (
        (-1.0, 0.5, 0.95),
        (0.0, 0.0, 0.999),
        (1.2, -0.4, 0.95),
        (0.7, 0.7, 0.999),
    ):
        grid = np.linspace(-hi, hi, 401)
        vals = np.array([bvn_upper_tail(c1, c2, float(r)) for r in grid])
        worst = max(worst, float(np.max(-np.diff(vals))))
    return max(0.0, worst)


_CHECKS = [
    ("cdf symmetry", _check_cdf_symmetry, 1e-15),
    ("quantile round trip", _check_quantile_round_trip, 1e-10),
    ("quadrant closed form", _check_quadrant_closed_form, 1e-9),
    ("independence product", _check_independence_product, 1e-14),
    ("correlation derivative vs finite difference", _check_derivative_fd, 1e-5),
    ("reflection identity", _check_reflection_identity, 1e-15),
    ("boundary consistency", _check_boundary_consistency, 1e-6),
    ("inversion round trip", _check_inversion_round_trip, 1e-8),
    ("monotone in correlation", _check_monotone_in_rho, 0.0),
]
