"""Embedded numerical verification battery for the normal-tail kernel.

Each check compares the kernel against an independent fact: a closed form,
a symmetry, a finite difference, or a round trip.  A check evaluates its
whole grid in one call to each kernel function it compares and reports
the largest error.  The battery backs the ``selfcheck`` CLI command and
can be rerun programmatically; a perfect build passes all checks with
generous margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    bvn_boundary_value,
    bvn_upper_tail_batch,
    bvn_upper_tail_drho,
    std_normal_cdf,
    std_normal_quantile,
    tetrachoric_invert_batch,
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
    return _worst(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0)


def _check_quantile_round_trip() -> float:
    x = np.linspace(-5.0, 5.0, 201)
    return _worst(std_normal_quantile(std_normal_cdf(x)) - x)


def _check_quadrant_closed_form() -> float:
    rho = np.concatenate([[-0.99], np.arange(-0.9, 0.91, 0.1), [0.99]])
    exact = 0.25 + np.arcsin(rho) / (2.0 * math.pi)
    return _worst(bvn_upper_tail_batch(0.0, 0.0, rho) - exact)


def _check_independence_product() -> float:
    c1, c2 = _grid((-2.0, -0.7, 0.0, 0.4, 1.8), (-1.3, 0.0, 0.9, 2.2))
    exact = std_normal_cdf(-c1) * std_normal_cdf(-c2)
    return _worst(bvn_upper_tail_batch(c1, c2, 0.0) - exact)


def _check_derivative_fd() -> float:
    # The centered difference carries rounding noise ~ ulp(ell)/(2*step),
    # so agreement is only checkable where the derivative clears ~1e-5.
    step = 1e-5
    c1, c2, rho = _grid((-1.5, -0.5, 0.0, 1.0), (-1.0, 0.0, 0.5, 1.5), (-0.9, -0.5, 0.0, 0.4, 0.8))
    exact = bvn_upper_tail_drho(c1, c2, rho)
    fd = (
        bvn_upper_tail_batch(c1, c2, rho + step) - bvn_upper_tail_batch(c1, c2, rho - step)
    ) / (2.0 * step)
    live = exact > 1e-5
    return _worst((fd[live] - exact[live]) / exact[live])


def _check_reflection_identity() -> float:
    # ell(c1, c2; rho) + ell(c1, -c2; -rho) = Phi(-c1): one side of each pair
    # has rho < 0, and the grid takes it both from the rho = 0 anchor and,
    # at c1 = c2 = 3 and rho near -1, down the tail branch from rho = -1.
    c1, c2, rho = _grid((-2.2, 0.4, 3.0), (-1.3, 0.9, 3.0), np.linspace(-0.999, 0.999, 9))
    total = bvn_upper_tail_batch(c1, c2, rho) + bvn_upper_tail_batch(c1, -c2, -rho)
    return _worst(total - std_normal_cdf(-c1))


def _check_boundary_consistency() -> float:
    # Coincident thresholds approach their limit at rate sqrt(1 - rho^2),
    # so the probe sits at +-(1 - 1e-12) where every case has converged.
    c1, c2, sign = _grid((-1.2, -0.3, 0.0, 0.8), (-0.9, 0.0, 0.5, 1.4), (1, -1))
    limit = bvn_boundary_value(c1, c2, sign)
    return _worst(bvn_upper_tail_batch(c1, c2, sign * (1.0 - 1e-12)) - limit)


def _check_inversion_round_trip() -> float:
    c1, c2, rho = _grid((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), np.arange(-0.9, 0.91, 0.1))
    rho_hat, _, _ = tetrachoric_invert_batch(c1, c2, bvn_upper_tail_batch(c1, c2, rho))
    return _worst(rho_hat - rho)


def _check_monotone_in_rho() -> float:
    # Strict increase is representable only while the local increment
    # exceeds one ulp; separated-threshold pairs go flat near |rho| = 1,
    # so they are probed on the narrower grid.
    c1, c2, hi = np.array([
        (-1.0, 0.5, 0.95),
        (0.0, 0.0, 0.999),
        (1.2, -0.4, 0.95),
        (0.7, 0.7, 0.999),
    ]).T
    vals = bvn_upper_tail_batch(c1[:, None], c2[:, None], np.linspace(-hi, hi, 401, axis=1))
    return max(0.0, float(np.max(-np.diff(vals, axis=1))))


def _grid(*axes):
    """Flat arrays of every combination of the axes' values."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _worst(errors) -> float:
    return float(np.max(np.abs(errors)))


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
