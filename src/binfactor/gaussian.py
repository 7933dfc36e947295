"""Standard-normal and bivariate-normal tail primitives.

The standard-normal functions need numpy and the standard library only,
and share one implementation of the normal tail: ``erfcx``, the scaled
tail on [0, inf), is one fitted rational below 3.5, where the scoring
kernel's cells mostly fall, and one in (3.5 / t)^2 beyond; it runs in place
in the kernel's buffers.  ``std_normal_tail`` and ``std_normal_cdf`` are
erfcx times an exponential whose argument is split so that it is exact.
``std_normal_quantile`` is ``statistics.NormalDist.inv_cdf`` (Wichura's
AS 241).

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
arcsine layout of Genz 2004, Stat. Comput. 14:251) from the exact anchor
ell(rho = 0) = Phi(-c1) Phi(-c2).  For ``rho < 0`` the integrand is
reflected, h(-t; c1, c2) = h(t; c1, -c2) (Drezner and Wesolowsky 1990);
a value at or below ``_TAIL_FRACTION`` (0.25) of the anchor is recomputed
from the closed-form ``rho = -1`` anchor, a sum of non-negative terms.
Against mpmath its relative error is 1.1e-13 or better for ell >= 1e-40,
1.0e-8 at ell = 8.3e-56 and 5.9e-5 at ell = 6.9e-170; joint frequencies
from data (at least 1/n) never go that deep.  ``_flat_pairs`` checks and
orders c1 <= c2 for every public function, so results are bitwise symmetric.

All bivariate work runs in one batched kernel, on broadcastable arrays of
pairs: ``bvn_upper_tail_batch``, ``bvn_upper_tail_drho``,
``bvn_boundary_value`` and ``tetrachoric_invert_batch`` take them, and the
scalar ``bvn_upper_tail`` and ``tetrachoric_invert`` are 1-element calls to
the first and the last.  The inversion has one edge, ``1 - RHO_CLAMP``; a
root beyond it is returned clamped there.  Pairs that need the same number
of panels are stacked into dense arrays of at most ``_NODE_BUDGET`` (2**16)
quadrature nodes, so the quadrature's temporaries stay at 512 KB however
many panels a tail pair needs.  The inversion works through its pairs in
chunks of at most ``_CHUNK_PAIRS`` (16384), at least two once a batch has
more than ``_SPLIT_PAIRS`` (4096), which run on up to ``threads`` worker
processes.  Each pair is computed from its own values only and summed along
its own contiguous row, so its result is bitwise the same alone, in any
batch, in any order, on either side of a chunk or node-budget boundary and
at any worker count.  An inversion computes each pair's three Phi values,
Phi(-lo), Phi(-hi) and Phi(lo) with lo = min(c1, c2) and hi = max(c1, c2),
once, and passes them to every evaluation of ``ell``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .parallel import map_slices

SQRT_2PI = math.sqrt(2.0 * math.pi)
HALF_PI = 0.5 * math.pi

# erfcx's rationals (see ``erfcx``), below this t of degree (8, 8) and from it
# on of degree (6, 6), each with Q monic, fitted in relative error by
# ``tests/data/make_erfcx_rational.py``.
ERFCX_FAR_START = 3.5
_ERFCX_P = (
    1.2367767053262477e-07, 0.5641842112057761, 9.595965415099466,
    76.011109182687, 361.9662416134334, 1119.8152018571134,
    2268.7260147193692, 2829.9518248602258, 1783.1891912549972,
)
_ERFCX_Q = (
    17.00820449735213, 135.22894691630083, 650.0448943420315,
    2051.9000753633723, 4332.13759558725, 5949.222500570865,
    4842.065359262258, 1783.1891912549972,
)
_ERFCX_FAR_P = (
    0.00170334256096871, 0.5855573943115343, 11.85982788034916,
    74.28411111070665, 189.27160799714312, 204.05937260140576,
    76.48343192449838,
)
_ERFCX_FAR_Q = (
    40.30621861027137, 479.1909667544148, 2343.1534326920896,
    5230.601877344753, 5228.904924507933, 1873.8440821502104,
)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF = math.sqrt(0.5)
# Veltkamp's 2^27 + 1: a * it - (a * it - a) is a's top 26 bits, whose square is exact.
_SPLITTER = 134217729.0

# Offset from +-1 of a clamped correlation: the one edge of the root
# finder, which never evaluates ell closer to +-1 than this.
RHO_CLAMP = 1e-6

# The root finder stops once both ends of its bracket are evaluated points
# at most twice this far apart, and never steps by less than this.
_RHO_TOL = 1e-12

# Evaluations of ell per pair after which the root finder gives up.
_MAX_ITER = 200

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

# A rho < 0 value from the rho = 0 anchor at or below this fraction of
# the anchor is recomputed from rho = -1.  Above it the subtraction loses
# at most two bits; a switch at 0.01 let the relative error reach 1e-13.
_TAIL_FRACTION = 0.25

# Pairs per chunk of the inversion, the unit of its workers: at most
# _CHUNK_PAIRS, and a batch of more than _SPLIT_PAIRS pairs (p >= 92) is
# cut into at least two chunks, so that two workers share it.  Each
# iteration of the root finder is a few numpy calls per chunk, so a small
# chunk is mostly call overhead and too short to pay for a fork.
_CHUNK_PAIRS = 16384
_SPLIT_PAIRS = 4096

# Quadrature nodes per pass of ``_panel_integrals``: 2**16 float64 nodes
# keep each of its temporaries at 512 KB, however many panels a pair needs.
_NODE_BUDGET = 2**16

# The 20-point Gauss-Legendre rule on [-1, 1]: the values of
# ``numpy.polynomial.legendre.leggauss(20)``, as literals, since importing
# numpy's polynomial package costs every process about 4 ms.
_GL_ORDER = 20
_GL_NODES = np.array([
    -0.993128599185095, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
    -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
    -0.22778585114164507, -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095,
])
_GL_WEIGHTS = np.array([
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879, 0.08327674157670471,
    0.1019301198172407, 0.1181945319615186, 0.1316886384491769, 0.1420961093183824,
    0.14917298647260424, 0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
    0.1420961093183824, 0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
    0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893,
])

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
    """Distribution function Phi(x) of the standard normal: ``std_normal_tail(-x)``."""
    return std_normal_tail(np.negative(np.asarray(x, dtype=float)))[()]


def std_normal_tail(x):
    """Upper tail P(X > x) = Phi(-x) of the standard normal, elementwise.

    With a = |x|, Phi(-a) = erfcx(a / sqrt(2)) exp(-a^2 / 2) / 2, taken from
    1 where x < 0 (the form of Cody 1969, Math. Comp. 23:631).  exp(-a^2 / 2)
    is exp(-hi^2 / 2) exp(-(hi lo + lo^2 / 2)) on Veltkamp's split a = hi +
    lo, whose hi^2 is exact, so the rounding of a^2 never reaches the
    result.  It errs by at most 1e-15 relative while Phi(-a) is a normal
    float (a <= 37.5), and by a few ulps below that, down to the underflow
    near a = 38.5; a is clipped at 40, past which the tail is 0, so the
    infinities give exactly 0 and 1.  A value depends on its own x only.
    """
    x = np.asarray(x, dtype=float)
    a = np.minimum(np.abs(x), 40.0)
    hi = a * _SPLITTER
    hi -= hi - a
    lo = a - hi
    tail = 0.5 * erfcx(a * _SQRT_HALF) * np.exp(-(hi * lo + 0.5 * lo * lo))
    tail *= np.exp(-0.5 * hi * hi)  # last, so that a subnormal tail is rounded once
    return np.where(x < 0.0, 1.0 - tail, tail)


def std_normal_quantile(p):
    """Inverse of ``std_normal_cdf`` for p in the open interval (0, 1).

    ``statistics.NormalDist.inv_cdf``, Wichura's AS 241 (1988, Appl.
    Statist. 37:477), one value at a time: callers pass O(p) values.
    """
    from statistics import NormalDist  # only the commands that fit need it

    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)) or not np.all(np.isfinite(p)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    unit = NormalDist()
    q = np.array([unit.inv_cdf(v) for v in p.ravel().tolist()], dtype=float)
    return q.reshape(p.shape)[()]


def erfcx(t, out=None, work=None):
    """The scaled complementary error function exp(t^2) erfc(t), for t >= 0.

    Below t = 3.5 one rational, ``_ERFCX_P(t) / _ERFCX_Q(t)``.  The values
    from 3.5 on are few and are taken by index through one rational in
    w = (3.5 / t)^2: (1 - w q) / (t sqrt(pi)), q = ``_ERFCX_FAR_P(w) /
    _ERFCX_FAR_Q(w)``, whose correction w q to 1 is at most 0.037, so that
    its rounding barely reaches the result.  ``tests/data/make_erfcx_rational.py``
    fits both and checks q.  A value depends on its own t only.  Within 8e-16
    relative of mpmath below 3.5 and 3e-16 from 3.5 to 1e300; negative t gives
    nan.  The result goes to ``out`` and the denominator to ``work`` (the
    shape of t), allocated when not given; neither may overlap t.
    """
    return erfcx_parts(t, out, work)[0]


def erfcx_parts(t, out=None, work=None):
    """(erfcx, far, q): ``erfcx(t, out, work)``, the flat indices of the t at
    or past ``ERFCX_FAR_START``, and their q, the far correction w q over w."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape) if out is None else out
    den = np.empty(t.shape) if work is None else work
    with np.errstate(over="ignore", invalid="ignore"):
        _polevl(t, _ERFCX_P, out)
        out /= _p1evl(t, _ERFCX_Q, den)
        far = np.flatnonzero(t >= ERFCX_FAR_START)  # few values, taken by index
        q = np.empty(far.size)
        if far.size:
            t_far = np.take(t, far)
            w = np.square(ERFCX_FAR_START / t_far)
            _polevl(w, _ERFCX_FAR_P, q)
            q /= _p1evl(w, _ERFCX_FAR_Q, np.empty(far.size))
            np.put(out, far, (1.0 - w * q) / t_far * _INV_SQRT_PI)
        np.put(out, np.flatnonzero(t < 0.0), np.nan)
    return (out if out.ndim else out[()]), far, q


def _polevl(x, coefs, out):
    """Cephes ``polevl``: the polynomial with ``coefs``, highest degree
    first, at x by Horner's rule, into ``out`` (which may not overlap x)."""
    np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


def _p1evl(x, coefs, out):
    """Cephes ``p1evl``: ``_polevl`` with a leading coefficient of 1 left out of ``coefs``."""
    np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def bvn_boundary_value(c1, c2, sign):
    """Limit of ell(c1, c2; rho) as rho approaches +1 or -1 (``sign``).

    At perfect positive correlation the pair degenerates to a single
    variable, giving min{Phi(-c1), Phi(-c2)}; at perfect negative
    correlation the events are incompatible unless c1 + c2 <= 0, giving
    max{0, Phi(-max(c1, c2)) - Phi(min(c1, c2))}, which is 0 whenever
    c1 + c2 >= 0.  Each term is taken on the side of its tail that keeps
    it accurate to relative precision, rather than as 1 - Phi, and the
    argument order is fixed, so the value is bitwise symmetric in
    (c1, c2).  The +1 value is then accurate to relative precision; the
    -1 value is a difference and is accurate to the rounding of its
    larger term.  Arrays of (c1, c2, sign) broadcast; scalars give a float.
    """
    bad = ~np.isin(sign, (1, -1))
    if bad.any():
        raise ValueError(f"sign must be +1 or -1, got {np.asarray(sign)[bad][0].item()!r}")
    lo, hi, sign, shape = _flat_pairs(c1, c2, sign)
    _, up_hi, _, diff = _pair_terms(lo, hi)
    # The -1 value is clipped as max(0.0, diff) clips: diff only above +0.0.
    out = np.where(sign == 1.0, up_hi, np.where(diff > 0.0, diff, 0.0)).reshape(shape)
    return out if shape else out.item()


def bvn_upper_tail(c1: float, c2: float, rho: float) -> float:
    """Upper tail probability P(X > c1, Y > c2) at correlation rho.

    Symmetric in (c1, c2) by construction; requires |rho| < 1 (use
    ``bvn_boundary_value`` for the perfectly correlated limits).  A
    1-element call to ``bvn_upper_tail_batch``.
    """
    return float(bvn_upper_tail_batch(c1, c2, rho))


def bvn_upper_tail_batch(c1, c2, rho) -> np.ndarray:
    """``bvn_upper_tail`` for broadcastable arrays of (c1, c2, rho)."""
    lo, hi, rho, shape = _flat_correlations(c1, c2, rho)
    _, _, anchor, diff = _pair_terms(lo, hi)
    return _ell(lo, hi, rho, anchor, diff).reshape(shape)


def bvn_upper_tail_drho(c1, c2, rho):
    """Derivative of the upper tail probability in the correlation.

    Closed form: pdf((c1 - rho*c2)/sqrt(1-rho^2)) * pdf(c2) / sqrt(1-rho^2).
    Strictly positive on |rho| < 1; bitwise the derivative the root
    finder uses.  Arrays of (c1, c2, rho) broadcast; scalars give a float.
    """
    lo, hi, rho, shape = _flat_correlations(c1, c2, rho)
    out = _drho(lo, hi, rho).reshape(shape)
    return out if shape else out.item()


@dataclass(frozen=True)
class InversionResult:
    """Outcome of inverting the upper tail probability in rho.

    ``iterations`` counts the evaluations of ``ell`` the root finder made
    (0 when the target was clamped before any).  ``clamped`` is set when
    the target probability fell on or outside the attainable open
    interval between the two boundary values, to within the margins that
    ``tetrachoric_invert_batch`` describes, or when the root lies beyond
    the solver edge ``+-(1 - RHO_CLAMP)``; the returned correlation is
    then that edge, so no unclamped root lies beyond a clamped one.
    """

    rho_hat: float
    iterations: int
    clamped: bool


def tetrachoric_invert(c1: float, c2: float, p_target: float) -> InversionResult:
    """Solve ell(c1, c2; rho) = p_target for rho.

    A 1-element call to ``tetrachoric_invert_batch``, which describes the
    root finder and the clamp rules.
    """
    rho, iterations, clamped = tetrachoric_invert_batch(c1, c2, p_target)
    return InversionResult(float(rho), int(iterations), bool(clamped))


def tetrachoric_invert_batch(
    c1, c2, p_target, threads: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve ell(c1, c2; rho) = p_target for broadcastable arrays of pairs.

    Returns the arrays ``(rho_hat, iterations, clamped)``, with the
    meanings of the ``InversionResult`` fields.  Chunks of pairs run on up
    to ``threads`` worker processes (see ``parallel``); the result is
    bitwise the same at any count.

    Targets on or beyond a boundary value are clamped to
    ``+-(1 - RHO_CLAMP)``.  The +1 margin is 1e-12 of the boundary value.
    The -1 margin is 1e-12 of the boundary value or four ulps of the
    larger marginal Phi(-c), whichever is wider, since p1 + p2 - 1 is
    known no better than the marginals it is made of; when c1 + c2 lies
    clearly above 0 that boundary is exactly 0 and only p = 0 is on it.
    Neither margin is a fixed absolute width, so that a tiny target above
    a zero boundary is inverted rather than clamped.  The tail branch of
    ``ell`` resolves such targets to 1.1e-13 relative or better down to
    1e-40, but only to 1.0e-8 at 8.3e-56 and 5.9e-5 at 6.9e-170.

    Every other target has its root bracketed by the closed-form boundary
    values at rho = -1 and +1.  A safeguarded Newton iteration (rtsafe,
    Press et al., Numerical Recipes section 9.4) on the closed-form
    derivative refines it.  It starts from one Newton step in theta =
    arcsin(rho) from the exact anchor ell(0) = Phi(-c1) Phi(-c2), whose
    slope in theta is pdf(c1) pdf(c2).  It falls back to
    bisection whenever a Newton step would leave the bracket or fails to
    halve the step before last, and never steps by less than 1e-12, so a
    converged iterate is confirmed by a sign change on its other side.
    It stops when ell hits the target to within one ulp of the target, or
    when both ends of the bracket are evaluated points at most 2e-12
    apart, and returns the end nearer the target.  No iterate lies beyond
    +-(1 - RHO_CLAMP): one that would is moved to that edge, and if ell
    there shows the root beyond it, the target is clamped there as well,
    so the result is monotone in the target across the clamp.
    """
    lo, hi, p, shape = _flat_pairs(c1, c2, p_target)
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"p_target must lie in [0, 1], got {float(p[bad][0])!r}")

    def solve(s: slice):
        return _invert(lo[s], hi[s], p[s])

    # An empty batch has no chunk; its one empty solve gives the dtypes.
    # The chunk size depends on the batch alone, never on ``threads``.
    half = -(-p.size // 2) if p.size > _SPLIT_PAIRS else p.size
    size = max(1, min(_CHUNK_PAIRS, half))
    chunks = map_slices(solve, p.size, size, threads) or [solve(slice(0, 0))]
    return tuple(np.concatenate(parts).reshape(shape) for parts in zip(*chunks))


def _flat_pairs(c1, c2, values):
    """Broadcast and check a batch; return 1-D (min c, max c, values) and its shape."""
    c1, c2, values = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (c1, c2, values)))
    bad = ~(np.isfinite(c1) & np.isfinite(c2))
    if bad.any():
        pair = (float(c1[bad][0]), float(c2[bad][0]))
        raise ValueError(f"thresholds must be finite, got {pair!r}")
    return np.minimum(c1, c2).ravel(), np.maximum(c1, c2).ravel(), values.ravel(), values.shape


def _flat_correlations(c1, c2, rho):
    """``_flat_pairs`` for a batch of correlations, each checked for |rho| < 1."""
    lo, hi, rho, shape = _flat_pairs(c1, c2, rho)
    bad = ~(np.abs(rho) < 1.0)
    if bad.any():
        raise ValueError(f"rho must satisfy |rho| < 1, got {float(rho[bad][0])!r}")
    return lo, hi, rho, shape


def _pair_terms(lo, hi):
    """Phi(-lo), Phi(-hi), the anchor ell(rho = 0) = Phi(-lo) Phi(-hi) and
    Phi(-hi) - Phi(lo), the -1 boundary before clipping at 0, for 1-D arrays
    with lo <= hi: every Phi value that a pair needs, from one call."""
    up_lo, up_hi, down_lo = std_normal_tail(np.concatenate((lo, hi, -lo))).reshape(3, -1)
    return up_lo, up_hi, up_lo * up_hi, up_hi - down_lo


def _drho(c1, c2, rho):
    """d ell / d rho, elementwise."""
    root = np.sqrt((1.0 - rho) * (1.0 + rho))
    return std_normal_pdf((c1 - rho * c2) / root) * std_normal_pdf(c2) / root


def _ell(lo, hi, rho, anchor, diff):
    """ell for 1-D arrays with lo <= hi and |rho| < 1, given each pair's
    ``anchor`` and ``diff`` from ``_pair_terms``."""
    theta = np.arcsin(np.abs(rho))
    neg = rho < 0.0
    # Every rho integrates from the rho = 0 anchor.  Since h(-t; lo, hi) =
    # h(t; lo, -hi), rho < 0 subtracts the integral of h(t; lo, -hi) over
    # [0, |theta|] from the anchor, on the same short panels as rho >= 0.
    area = _panel_integrals(lo, np.where(neg, -hi, hi), np.zeros(rho.size), theta)
    out = anchor + np.where(neg, -area, area)
    tail = np.flatnonzero(neg & (out <= _TAIL_FRACTION * anchor))
    lo, hi, theta, diff = lo[tail], hi[tail], theta[tail], diff[tail]
    # Tail cells integrate h(t; lo, -hi) over [|theta|, pi/2] up from the
    # rho = -1 anchor, a sum of non-negative terms.  The integrand is exactly
    # zero once (lo + hi) / cos(t) exceeds ~43, so the integral is cut there.
    cutoff = HALF_PI - np.minimum(0.1, np.abs(lo + hi) / 43.0)
    out[tail] = np.maximum(0.0, diff) + _panel_integrals(
        lo, -hi, theta, np.maximum(cutoff, theta)
    )
    return out


def _panel_integrals(c1, c2, a, b):
    """Gauss-Legendre integrals of h(theta; c1, c2) over [a, b], elementwise.

    Panels are at most 0.4 wide up to pi/2 - 0.4; past that their widths
    halve geometrically toward ``b`` down to a floor proportional to the
    distance from ``b`` to the singular point pi/2, which keeps the local
    feature scale resolved.  An empty interval gives 0.
    """
    smooth_end = np.minimum(b, np.maximum(a, _REFINE_START))
    n_smooth = np.where(
        smooth_end > a, np.maximum(1.0, np.ceil((smooth_end - a) / _PANEL_WIDTH)), 0.0
    )
    rem = b - smooth_end
    floor = np.maximum(1e-7, 0.5 * (HALF_PI - b))
    # Halvings: the least m >= 0 with rem / 2^m <= floor, exactly, from the
    # frexp parts rem = mr 2^er and floor = mf 2^ef: er - ef, plus 1 if mr > mf.
    mr, er = np.frexp(rem)
    mf, ef = np.frexp(floor)
    n_halved = np.where(rem > 0.0, np.maximum(0, er - ef + (mr > mf)), 0)
    panels = (n_smooth + n_halved + (rem > 0.0)).astype(int)

    out = np.zeros(a.size)
    for k, idx in _panel_groups(panels):
        ks, a_k, b_k, s_k = n_smooth[idx, None], a[idx, None], b[idx, None], smooth_end[idx, None]
        # Bound j is a + j * (smooth_end - a) / ks up to smooth_end (none if
        # ks = 0), then b - rem / 2^(j - ks), and b itself last.
        j = np.arange(k + 1)
        uniform = j * ((s_k - a_k) / np.maximum(ks, 1.0)) + a_k
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


def _panel_groups(panels):
    """(k, indices) of the pairs that need k > 0 panels, at most
    ``_NODE_BUDGET`` quadrature nodes at a time.  Each pair is summed along
    its own contiguous row, so its bits do not depend on the grouping."""
    # The nonzero bins of a bincount, in place of np.unique, which imports
    # numpy.ma on numpy 2.
    for k in np.flatnonzero(np.bincount(panels)[1:]) + 1:
        group = np.flatnonzero(panels == k)
        rows = max(1, _NODE_BUDGET // (int(k) * _GL_ORDER))
        for start in range(0, group.size, rows):
            yield k, group[start : start + rows]


def _invert(lo, hi, p):
    """``tetrachoric_invert_batch`` on 1-D arrays with lo <= hi."""
    n = p.size
    rho = np.empty(n)
    iterations = np.zeros(n, dtype=np.int64)
    up_lo, up_hi, anchor, diff = _pair_terms(lo, hi)
    lo_edge = np.maximum(
        np.maximum(0.0, diff * (1.0 + _BRACKET_MARGIN)),
        diff + _MARGINAL_ULPS * np.spacing(up_lo),
    )
    to_minus = p <= lo_edge
    to_plus = ~to_minus & (p >= up_hi * (1.0 - _BRACKET_MARGIN))
    clamped = to_minus | to_plus
    edge = 1.0 - RHO_CLAMP
    rho[to_minus], rho[to_plus] = -edge, edge

    idx = np.flatnonzero(~clamped)
    lo, hi, p, anchor, diff = lo[idx], hi[idx], p[idx], anchor[idx], diff[idx]
    # The bracket starts at the boundary values at +-1, which are never
    # evaluated and lie too far from every iterate to close it.
    a, b = np.full(idx.size, -1.0), np.full(idx.size, 1.0)
    fa, fb = np.full(idx.size, -np.inf), np.full(idx.size, np.inf)
    # The start is one Newton step in theta = arcsin(rho) from the exact
    # anchor ell(0) = Phi(-lo) Phi(-hi), where d ell / d theta = pdf(lo) pdf(hi).
    # A slope that underflows gives an infinite step, which stops at +-pi/2,
    # or 0 / 0, which starts at 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = (p - anchor) / (std_normal_pdf(lo) * std_normal_pdf(hi))
    x = np.clip(np.sin(np.clip(np.nan_to_num(theta), -HALF_PI, HALF_PI)), -edge, edge)
    step = step_before = np.full(idx.size, 2.0)
    for it in range(1, _MAX_ITER + 1):
        f = _ell(lo, hi, x, anchor, diff) - p
        iterations[idx] = it
        below = f < 0.0
        a, fa = np.where(below, x, a), np.where(below, f, fa)
        b, fb = np.where(below, b, x), np.where(below, fb, f)

        # A root beyond the solver edge stops there, clamped like a target
        # on its boundary value, so the estimate is monotone in the target.
        pinned = ((x == -edge) & (f >= 0.0)) | ((x == edge) & (f <= 0.0))
        clamped[idx[pinned]] = True
        hit = ~pinned & (np.abs(f) <= np.spacing(p))
        closed = ~pinned & ~hit & (b - a <= 2.0 * _RHO_TOL)
        done = pinned | hit | closed | (it == _MAX_ITER)
        result = np.where(closed, np.where(-fa <= fb, a, b), x)
        rho[idx[done]] = result[done]
        if done.all():
            break

        keep = ~done
        idx, lo, hi, p = idx[keep], lo[keep], hi[keep], p[keep]
        anchor, diff = anchor[keep], diff[keep]
        a, b, fa, fb, x, f = a[keep], b[keep], fa[keep], fb[keep], x[keep], f[keep]
        step, step_before = step[keep], step_before[keep]
        # Only the next step reads the slope, so finished pairs never pay for it.
        df = _drho(lo, hi, x)
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
    return rho, iterations, clamped
