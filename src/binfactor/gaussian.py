"""Standard-normal and bivariate-normal tail primitives.

The central object is the upper tail probability of a standard bivariate
normal pair with correlation ``rho``,

    ell(c1, c2; rho) = P(X > c1, Y > c2),

together with its derivative in ``rho``, its closed-form values at
``rho = +-1``, and the monotone inverse ``rho = ell^{-1}(c1, c2; p)`` that
turns a joint success frequency into a tetrachoric correlation.

``ell`` is evaluated by integrating the closed-form correlation derivative

    d ell / d rho = pdf((c1 - rho*c2) / sqrt(1 - rho^2)) * pdf(c2)
                    / sqrt(1 - rho^2)

from an anchor point with a known exact value.  Substituting
``rho = sin(theta)`` absorbs the ``1/sqrt(1 - rho^2)`` factor, so the
integrand becomes the bounded, smooth function

    h(theta) = pdf((c1 - c2*sin(theta)) / cos(theta)) * pdf(c2)

and composite Gauss-Legendre panels resolve it to machine precision (the
arcsine layout of Genz 2004, Stat. Comput. 14:251).  For ``rho >= 0`` the
anchor is ``rho = 0`` (an exact product of univariate tails); for
``rho < 0`` it is ``rho = -1`` (closed form), which keeps the result a sum
of non-negative terms and preserves relative accuracy when ``ell`` sits
close to its lower boundary value.  Thresholds are put in the canonical
order c1 <= c2 first, so every result is exactly symmetric in (c1, c2).

All bivariate work runs in one batched kernel: ``bvn_upper_tail_batch``
evaluates ``ell`` and ``tetrachoric_invert_batch`` inverts it for arrays of
pairs, and the scalar ``bvn_upper_tail`` and ``tetrachoric_invert`` are
1-element calls to them.  Pairs that need the same number of panels are
stacked into one dense array.  Both batch functions work through their
pairs in chunks of ``_CHUNK_PAIRS``, so their working memory is bounded
whatever the number of pairs.  Each pair is computed from its own values
only, so its result is bitwise the same alone, in any batch, in any order
and on either side of a chunk boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

SQRT_2PI = math.sqrt(2.0 * math.pi)
HALF_PI = 0.5 * math.pi

# Offset from +-1 returned when an inversion target falls on or outside the
# attainable probability bracket.
RHO_CLAMP = 1e-6

# The root finder never evaluates ell closer to +-1 than this; a root that
# lies closer is reported as clamped.
_RHO_EDGE = 1e-12

# The root finder stops once both ends of its bracket are evaluated points
# at most twice this far apart, and never steps by less than this.
_RHO_TOL = 1e-12

# Targets within this fraction of a boundary value are treated as on it.
# The margin is relative, not absolute: a tail probability far below 1e-12
# can still lie many of its own ulps above a zero boundary and resolve a
# correlation, while a target that rounds onto a nonzero boundary carries
# no information about rho.
_BRACKET_MARGIN = 1e-12

# A nonzero rho = -1 boundary is p1 + p2 - 1 in the marginals p_j =
# Phi(-c_j), so it inherits their absolute rounding, about 1e-16 for a
# marginal near 1: for a rare column and its near-complement that is far
# more than 1e-12 of the boundary.  The lower clamp edge adds this many
# ulps of the larger marginal to the unclipped boundary.
_MARGINAL_ULPS = 4

# Pairs per pass of the batch functions.  A pass holds a few arrays of
# (pairs x panels x 20) nodes; 1024 pairs keep that to a few megabytes.
_CHUNK_PAIRS = 1024

_GL_ORDER = 20
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

# Panels of this width are enough for the smooth part of the integrand;
# closer than 0.4 to the cos(theta) singularity at pi/2 they are halved
# geometrically.
_PANEL_WIDTH = 0.4
_REFINE_START = HALF_PI - _PANEL_WIDTH


def std_normal_pdf(x):
    """Density of the standard normal: exp(-x^2/2) / sqrt(2*pi)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def std_normal_cdf(x):
    """Distribution function of the standard normal."""
    return ndtr(np.asarray(x, dtype=float))


def std_normal_quantile(p):
    """Inverse of ``std_normal_cdf`` for p in the open interval (0, 1).

    A rational initial approximation is polished with one Newton step
    wherever the density is large enough for the correction to be stable.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)) or not np.all(np.isfinite(p)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    x = ndtri(p)
    d = std_normal_pdf(x)
    refine = d > 1e-300
    correction = np.where(refine, (ndtr(x) - p) / np.where(refine, d, 1.0), 0.0)
    return x - correction


def bvn_boundary_value(c1: float, c2: float, sign: int) -> float:
    """Limit of ell(c1, c2; rho) as rho approaches +1 or -1.

    At perfect positive correlation the pair degenerates to a single
    variable, giving min{Phi(-c1), Phi(-c2)}; at perfect negative
    correlation the events are incompatible unless c1 + c2 <= 0, giving
    max{0, Phi(-max(c1, c2)) - Phi(min(c1, c2))}, which is 0 whenever
    c1 + c2 >= 0.  Each term is taken on the side of its tail that keeps
    it accurate to relative precision, rather than as 1 - Phi, and the
    argument order is fixed, so the value is bitwise symmetric in
    (c1, c2).  The +1 value is then accurate to relative precision; the
    -1 value is a difference and is accurate to the rounding of its
    larger term.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    _check_thresholds(c1, c2)
    lo, hi = min(c1, c2), max(c1, c2)
    if sign == 1:
        return float(ndtr(-hi))
    return max(0.0, float(_lower_difference(lo, hi)))


def bvn_upper_tail(c1: float, c2: float, rho: float) -> float:
    """Upper tail probability P(X > c1, Y > c2) at correlation rho.

    Symmetric in (c1, c2) by construction; requires |rho| < 1 (use
    ``bvn_boundary_value`` for the perfectly correlated limits).  A
    1-element call to ``bvn_upper_tail_batch``.
    """
    return float(bvn_upper_tail_batch(c1, c2, rho))


def bvn_upper_tail_batch(c1, c2, rho) -> np.ndarray:
    """``bvn_upper_tail`` for broadcastable arrays of (c1, c2, rho)."""
    lo, hi, rho, shape = _flat_pairs(c1, c2, rho)
    bad = ~(np.abs(rho) < 1.0)
    if bad.any():
        raise ValueError(f"rho must satisfy |rho| < 1, got {float(rho[bad][0])!r}")
    out = np.empty(rho.size)
    for s in _chunks(rho.size):
        out[s] = _ell(lo[s], hi[s], rho[s])
    return out.reshape(shape)


def bvn_upper_tail_drho(c1: float, c2: float, rho: float) -> float:
    """Derivative of the upper tail probability in the correlation.

    Closed form: pdf((c1 - rho*c2)/sqrt(1-rho^2)) * pdf(c2) / sqrt(1-rho^2).
    Strictly positive on |rho| < 1.
    """
    _check_thresholds(c1, c2)
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {rho!r}")
    return float(_drho(c1, c2, rho))


@dataclass(frozen=True)
class InversionResult:
    """Outcome of inverting the upper tail probability in rho.

    ``iterations`` counts the evaluations of ``ell`` the root finder made
    (0 when the target was clamped before any).  ``clamped`` is set when
    the target probability fell on or outside the attainable open
    interval between the two boundary values, to within the margins that
    ``tetrachoric_invert_batch`` describes, or when the root lies closer
    to +-1 than ``1 - RHO_CLAMP``; the returned correlation is then
    ``+-(1 - RHO_CLAMP)``, so no unclamped root lies beyond a clamped one.
    ``ell_at_rho`` is ell at the returned correlation.
    """

    rho_hat: float
    ell_at_rho: float
    iterations: int
    clamped: bool


def tetrachoric_invert(
    c1: float,
    c2: float,
    p_target: float,
    max_iter: int = 200,
) -> InversionResult:
    """Solve ell(c1, c2; rho) = p_target for rho.

    A 1-element call to ``tetrachoric_invert_batch``, which describes the
    root finder and the clamp rules; this wrapper adds ``ell_at_rho``.
    """
    rho, iterations, clamped = tetrachoric_invert_batch(c1, c2, p_target, max_iter)
    rho = float(rho)
    return InversionResult(rho, bvn_upper_tail(c1, c2, rho), int(iterations), bool(clamped))


def tetrachoric_invert_batch(
    c1, c2, p_target, max_iter: int = 200
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve ell(c1, c2; rho) = p_target for broadcastable arrays of pairs.

    Returns the arrays ``(rho_hat, iterations, clamped)``, with the
    meanings of the ``InversionResult`` fields.

    Targets on or beyond a boundary value are clamped to
    ``+-(1 - RHO_CLAMP)``.  The +1 margin is 1e-12 of the boundary value.
    The -1 margin is 1e-12 of the boundary value or four ulps of the
    larger marginal Phi(-c), whichever is wider, since p1 + p2 - 1 is
    known no better than the marginals it is made of; when c1 + c2 lies
    clearly above 0 that boundary is exactly 0 and only p = 0 is on it.
    Neither margin is a fixed absolute width, so that a tiny target above
    a zero boundary, which the rho < 0 branch of ``ell`` resolves to
    relative accuracy, is inverted rather than clamped.

    Every other target has its root bracketed by the closed-form boundary
    values at rho = -1 and +1.  A safeguarded Newton iteration (rtsafe,
    Press et al., Numerical Recipes section 9.4) on the closed-form
    derivative refines it, starting from the approximation of Bonett and
    Price (2005, J. Educ. Behav. Stat. 30:213).  It falls back to
    bisection whenever a Newton step would leave the bracket or fails to
    halve the step before last, and never steps by less than 1e-12, so a
    converged iterate is confirmed by a sign change on its other side.
    It stops when ell hits the target to within one ulp of the target, or
    when both ends of the bracket are evaluated points at most 2e-12
    apart, and returns the end nearer the target.  No iterate lies within
    1e-12 of +-1: one that would is moved to that edge, and if ell there
    shows the root beyond it, the target is clamped as well.  So is any
    root with |rho| > 1 - RHO_CLAMP, so that the result is monotone in
    the target across the clamp.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    lo, hi, p, shape = _flat_pairs(c1, c2, p_target)
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"p_target must lie in [0, 1], got {float(p[bad][0])!r}")
    rho = np.empty(p.size)
    iterations = np.zeros(p.size, dtype=np.int64)
    clamped = np.zeros(p.size, dtype=bool)
    for s in _chunks(p.size):
        rho[s], iterations[s], clamped[s] = _invert(lo[s], hi[s], p[s], max_iter)
    return rho.reshape(shape), iterations.reshape(shape), clamped.reshape(shape)


def _flat_pairs(c1, c2, values):
    """Broadcast and check a batch; return 1-D (min c, max c, values) and its shape."""
    c1, c2, values = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (c1, c2, values)))
    _check_thresholds(c1, c2)
    return np.minimum(c1, c2).ravel(), np.maximum(c1, c2).ravel(), values.ravel(), values.shape


def _chunks(n: int):
    return (slice(i, min(i + _CHUNK_PAIRS, n)) for i in range(0, n, _CHUNK_PAIRS))


def _check_thresholds(c1, c2) -> None:
    bad = ~(np.isfinite(c1) & np.isfinite(c2))
    if np.any(bad):
        pair = (float(np.asarray(c1)[bad][0]), float(np.asarray(c2)[bad][0]))
        raise ValueError(f"thresholds must be finite, got {pair!r}")


def _lower_difference(lo, hi):
    """Phi(-hi) - Phi(lo) for lo <= hi: the -1 boundary before clipping at 0."""
    return ndtr(-hi) - ndtr(lo)


def _drho(c1, c2, rho):
    """d ell / d rho, elementwise."""
    root = np.sqrt((1.0 - rho) * (1.0 + rho))
    return std_normal_pdf((c1 - rho * c2) / root) * std_normal_pdf(c2) / root


def _ell(lo, hi, rho):
    """ell for 1-D arrays with lo <= hi and |rho| < 1."""
    theta = np.arcsin(np.abs(rho))
    neg = rho < 0.0
    # rho < 0 integrates upward from rho = -1.  Reflecting theta -> -theta
    # maps the integrand onto h(theta; lo, -hi) over [theta, pi/2].  It
    # decays like pdf((lo + hi) / cos(theta)) toward pi/2, and once that
    # argument exceeds ~43 the density underflows to exactly zero, so the
    # integral is cut there with no error at all.
    cutoff = HALF_PI - np.minimum(0.1, np.abs(lo + hi) / 43.0)
    start = np.where(neg, theta, 0.0)
    end = np.where(neg, np.maximum(cutoff, theta), theta)
    gap = HALF_PI - np.where(neg, cutoff, theta)
    anchor = np.where(neg, np.maximum(0.0, _lower_difference(lo, hi)), ndtr(-lo) * ndtr(-hi))
    return anchor + _panel_integrals(lo, np.where(neg, -hi, hi), start, end, gap)


def _panel_integrals(c1, c2, a, b, gap):
    """Gauss-Legendre integrals of h(theta; c1, c2) over [a, b], elementwise.

    Panels are at most 0.4 wide up to pi/2 - 0.4; past that their widths
    halve geometrically toward ``b`` down to a floor proportional to
    ``gap``, the distance from ``b`` to the singular point pi/2, which
    keeps the local feature scale resolved.  An empty interval gives 0.
    """
    smooth_end = np.minimum(b, np.maximum(a, _REFINE_START))
    n_smooth = np.where(
        smooth_end > a, np.maximum(1.0, np.ceil((smooth_end - a) / _PANEL_WIDTH)), 0.0
    )
    rem = b - smooth_end
    floor = np.maximum(1e-7, 0.5 * gap)
    # Halvings: the least m >= 0 with rem / 2^m <= floor.  The logarithm
    # can miss by one either way; the exact power-of-two tests correct it.
    with np.errstate(divide="ignore"):
        n_halved = np.maximum(0.0, np.ceil(np.log2(rem / floor)))
    n_halved += np.ldexp(rem, -n_halved.astype(int)) > floor
    n_halved -= (n_halved > 0.0) & (np.ldexp(rem, 1 - n_halved.astype(int)) <= floor)
    panels = (n_smooth + n_halved + (rem > 0.0)).astype(int)

    out = np.zeros(a.size)
    for k in np.unique(panels[panels > 0]):
        idx = np.flatnonzero(panels == k)
        ks, a_k, b_k, s_k = n_smooth[idx, None], a[idx, None], b[idx, None], smooth_end[idx, None]
        # Bound j is a + j * (smooth_end - a) / ks up to smooth_end, then
        # b - rem / 2^(j - ks), and b itself last.
        j = np.arange(k + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            uniform = j * ((s_k - a_k) / ks) + a_k
        halved = b_k - np.ldexp(rem[idx, None], (ks - j).astype(int))
        bounds = np.where(
            j < ks, uniform, np.where(j == ks, s_k, np.where(j < k, halved, b_k))
        )
        mid = 0.5 * (bounds[:, 1:] + bounds[:, :-1])
        half = 0.5 * (bounds[:, 1:] - bounds[:, :-1])
        theta = mid[:, :, None] + half[:, :, None] * _GL_NODES
        x1, x2 = c1[idx, None, None], c2[idx, None, None]
        # h = exp(-(t^2 + c2^2) / 2) / (2 pi) with t = (c1 - c2 sin) / cos,
        # computed in place: these arrays are the kernel's whole cost.
        t = np.sin(theta)
        t *= -x2
        t += x1
        t /= np.cos(theta, out=theta)
        with np.errstate(over="ignore"):
            t *= t
        t += x2 * x2
        t *= -0.5
        h = np.exp(t, out=t)
        h *= half[:, :, None] * (_GL_WEIGHTS / (2.0 * math.pi))
        out[idx] = h.reshape(idx.size, -1).sum(axis=1)
    return out


def _bonett_price(lo, hi, p):
    """Closed-form tetrachoric approximation, cos(pi / (1 + omega^c)).

    omega is the odds ratio of the 2x2 table of probabilities and
    c = (1 - |p1 - p2| / 5 - (1/2 - p_min)^2) / 2, with p_min the smallest
    marginal proportion.  A cell that rounds to zero or below gives 0.
    """
    p1, p2, q1 = ndtr(-lo), ndtr(-hi), ndtr(lo)  # p1 >= p2 and q1 <= 1 - p2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_odds = np.log(p) + np.log(q1 - (p2 - p)) - np.log(p1 - p) - np.log(p2 - p)
        c = 0.5 * (1.0 - (p1 - p2) / 5.0 - (0.5 - np.minimum(p2, q1)) ** 2)
        start = np.cos(math.pi / (1.0 + np.exp(c * log_odds)))
    return np.where(np.isfinite(start), start, 0.0)


def _invert(lo, hi, p, max_iter):
    """``tetrachoric_invert_batch`` on 1-D arrays with lo <= hi."""
    n = p.size
    rho = np.empty(n)
    iterations = np.zeros(n, dtype=np.int64)
    diff = _lower_difference(lo, hi)
    lo_edge = np.maximum(
        np.maximum(0.0, diff * (1.0 + _BRACKET_MARGIN)),
        diff + _MARGINAL_ULPS * np.spacing(ndtr(-lo)),
    )
    to_minus = p <= lo_edge
    to_plus = ~to_minus & (p >= ndtr(-hi) * (1.0 - _BRACKET_MARGIN))
    clamped = to_minus | to_plus
    rho[to_minus], rho[to_plus] = -(1.0 - RHO_CLAMP), 1.0 - RHO_CLAMP

    edge = 1.0 - _RHO_EDGE
    idx = np.flatnonzero(~clamped)
    lo, hi, p = lo[idx], hi[idx], p[idx]
    # The bracket starts at the boundary values, below and above any
    # unclamped target; +-1 are never evaluated, so a bracket end that is
    # still +-1 cannot count towards convergence.
    a, b = np.full(idx.size, -1.0), np.full(idx.size, 1.0)
    fa, fb = np.full(idx.size, -np.inf), np.full(idx.size, np.inf)
    x = np.clip(_bonett_price(lo, hi, p), -edge, edge)
    step = step_before = np.full(idx.size, 2.0)
    for it in range(1, max_iter + 1):
        f = _ell(lo, hi, x) - p
        df = _drho(lo, hi, x)
        iterations[idx] = it
        below = f < 0.0
        a, fa = np.where(below, x, a), np.where(below, f, fa)
        b, fb = np.where(below, b, x), np.where(below, fb, f)

        # A root beyond the solver edge stops at the edge, to be clamped
        # below like a target on its boundary value.
        pinned = ((x == -edge) & (f >= 0.0)) | ((x == edge) & (f <= 0.0))
        hit = ~pinned & (np.abs(f) <= np.spacing(p))
        closed = ~pinned & ~hit & (b - a <= 2.0 * _RHO_TOL) & (a > -1.0) & (b < 1.0)
        done = pinned | hit | closed | (it == max_iter)
        result = np.where(closed, np.where(-fa <= fb, a, b), x)
        rho[idx[done]] = result[done]
        if done.all():
            break

        keep = ~done
        idx, lo, hi, p = idx[keep], lo[keep], hi[keep], p[keep]
        a, b, fa, fb, x, f, df = a[keep], b[keep], fa[keep], fb[keep], x[keep], f[keep], df[keep]
        step, step_before = step[keep], step_before[keep]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x - f / df
            use_newton = (newton > a) & (newton < b) & (np.abs(2.0 * f) <= np.abs(step_before * df))
            x_new = np.where(use_newton, newton, 0.5 * (a + b))
            # A Newton step below the tolerance means the root is next to x:
            # step by the tolerance instead, across the root.
            tiny = np.abs(newton - x) < _RHO_TOL
        x_new = np.where(tiny, x - np.copysign(_RHO_TOL, f), x_new)
        x_new = np.clip(x_new, -edge, edge)
        step_before, step = step, x_new - x
        x = x_new
    # A root at the solver edge, or any other closer to +-1 than the clamp
    # value, is clamped, so that the estimate is monotone in the target.
    beyond = np.abs(rho) > 1.0 - RHO_CLAMP
    rho[beyond] = np.copysign(1.0 - RHO_CLAMP, rho[beyond])
    clamped |= beyond
    return rho, iterations, clamped
