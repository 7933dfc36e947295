"""Fit the two rationals that ``gaussian.erfcx`` takes, below 3.5 and from 3.5 on.

Run from the repository root, with ``binfactor`` importable for ``--check``
(``pip install -e .`` or ``PYTHONPATH=src``):

    python tests/data/make_erfcx_rational.py           # print the coefficients
    python tests/data/make_erfcx_rational.py --check   # refit and compare

Both are rationals in relative error, in the form of Cody (1969, Math.
Comp. 23:631):

- near, on [0, 3.5]: erfcx(t) = exp(t^2) erfc(t) = P(t) / Q(t), with P of
  degree 8 and Q monic of degree 8, fitted in the variable u = t / 3.5;
- far, on [3.5, inf): sqrt(pi) t erfcx(t) = 1 - w P(w) / Q(w) in
  w = (3.5 / t)^2, which maps the interval onto (0, 1], with P and Q of
  degree 6 and Q monic.  That is one rational, (Q(w) - w P(w)) / Q(w),
  written as a correction to its limit 1 at w = 0: the fit is of
  P / Q = (1 - sqrt(pi) t erfcx(t)) / w, and since w P / Q is at most
  0.037, the correction's rounding and fit error reach erfcx only scaled
  down by that much.

Each fit runs in mpmath at 40 digits on 400 Chebyshev points of its
variable's interval [0, 1] and its two ends.  Six Sanathanan-Koerner
iterations (1963, IEEE Trans. Autom. Control 8:56) solve the linearized
least-squares problem

    min sum_i w_i ((P(u_i) - f_i Q(u_i)) / (f_i Q_prev(u_i)))^2,

whose weight 1 / Q_prev makes the residual the relative error once Q
settles.  Forty Lawson iterations then multiply each w_i by its point's
relative error, which draws the fit towards the minimax one.  The fit with
the smallest largest error on the points is kept: 3.7e-18 relative near,
and 2.8e-18 far, which moves erfcx by at most 1.1e-19.

The near coefficients are rescaled to t; each rational is divided by its
Q's leading coefficient and rounded to the nearest float64.  The script
prints them highest degree first, as ``_ERFCX_P`` and ``_ERFCX_Q`` and as
``_ERFCX_FAR_P`` and ``_ERFCX_FAR_Q`` (each Q's leading 1 left out), which
``gaussian._polevl`` and ``gaussian._p1evl`` take.

``--check`` refits, and fails unless every coefficient in ``gaussian`` is
within 4 ulps of the refit, and unless ``gaussian.erfcx`` is within
``BOUND`` relative of mpmath on 20,000 even and 20,000 seeded points of
[0, 3.5), and on 20,000 even points of [3.5, 60] and 20,000 log-uniform
seeded points of [3.5, 1e300].  mpmath's arithmetic is correctly rounded,
so the refits are the same on every machine.  It takes 15-20 s.
"""

import sys

import mpmath as mp
import numpy as np

T_END = 3.5
NEAR_DEGREE, FAR_DEGREE = 8, 6
POINTS = 400
SK_STEPS, LAWSON_STEPS = 6, 40
BOUND = 1e-15


def erfcx_mp(t):
    if t < 1e4:
        return mp.erfc(t) * mp.exp(t * t)
    # The alternating asymptotic series errs by less than its first omitted
    # term, far below 1e-40 here.
    u, term, total = 1 / (2 * t * t), mp.mpf(1), mp.mpf(0)
    for k in range(30):
        total += term
        term *= -(2 * k + 1) * u
    return total / (t * mp.sqrt(mp.pi))


def far_target(w):
    """(1 - sqrt(pi) t erfcx(t)) / w at t = 3.5 / sqrt(w), and its limit
    1 / (2 * 3.5^2) at w = 0."""
    if w == 0:
        return 1 / (2 * mp.mpf(T_END) ** 2)
    t = T_END / mp.sqrt(w)
    return (1 - mp.sqrt(mp.pi) * t * erfcx_mp(t)) / w


def horner(coefs, u):
    """The polynomial with ``coefs``, lowest degree first, at u."""
    total = mp.mpf(0)
    for c in reversed(coefs):
        total = total * u + c
    return total


def fit(target, degree):
    """(P, Q) in u on [0, 1], lowest degree first, Q monic, fitted to
    ``target`` in relative error, and the largest relative error on the
    fitting points."""
    u = [mp.mpf(0), mp.mpf(1)] + [
        (1 - mp.cos(mp.pi * (i + mp.mpf(1) / 2) / POINTS)) / 2 for i in range(POINTS)
    ]
    f = [target(x) for x in u]
    powers = [[x**k for k in range(degree + 1)] for x in u]
    w = [mp.mpf(1) / len(u)] * len(u)
    q_prev = [mp.mpf(1)] * len(u)
    best = None
    for step in range(SK_STEPS + LAWSON_STEPS):
        # Unknowns p_0..p_n and q_0..q_(n-1); Q's u^n coefficient is 1.
        cols = [[pw[k] / (fi * qi) for pw, fi, qi in zip(powers, f, q_prev)] for k in range(degree + 1)]
        cols += [[-pw[k] / qi for pw, qi in zip(powers, q_prev)] for k in range(degree)]
        rhs = [pw[degree] / qi for pw, qi in zip(powers, q_prev)]
        weighted = [[wi * c for wi, c in zip(w, col)] for col in cols]
        normal = mp.matrix(len(cols), len(cols))
        for k in range(len(cols)):
            for l in range(k, len(cols)):
                normal[k, l] = normal[l, k] = mp.fdot(weighted[k], cols[l])
        x = mp.cholesky_solve(normal, mp.matrix([mp.fdot(col, rhs) for col in weighted]))
        p = [x[k] for k in range(degree + 1)]
        q = [x[degree + 1 + k] for k in range(degree)] + [mp.mpf(1)]
        q_prev = [horner(q, x) for x in u]
        err = [horner(p, x) / (fi * qi) - 1 for x, fi, qi in zip(u, f, q_prev)]
        worst = max(abs(e) for e in err)
        if best is None or worst < best[0]:
            best = (worst, p, q)
        if step >= SK_STEPS:
            w = [wi * abs(e) for wi, e in zip(w, err)]
            total = mp.fsum(w)
            w = [wi / total for wi in w]
    return best[1], best[2], best[0]


def fit_near():
    """The near rational in t, lowest degree first, Q monic."""
    p, q, worst = fit(lambda u: erfcx_mp(T_END * u), NEAR_DEGREE)
    # P(t) = sum p_k (t / 3.5)^k, divided by Q's leading coefficient in t.
    lead = q[NEAR_DEGREE] / mp.mpf(T_END) ** NEAR_DEGREE
    scale = [mp.mpf(T_END) ** -k / lead for k in range(NEAR_DEGREE + 1)]
    return [c * s for c, s in zip(p, scale)], [c * s for c, s in zip(q, scale)], worst


def fit_far():
    """The far rational in w, lowest degree first, Q monic."""
    return fit(far_target, FAR_DEGREE)


def float_coefficients(p, q):
    """P and Q as ``gaussian`` holds them: highest degree first, Q's leading 1 left out."""
    return tuple(float(c) for c in reversed(p)), tuple(float(c) for c in reversed(q[:-1]))


def check(fitted):
    from binfactor import gaussian

    failures = []
    for name, coefs in fitted.items():
        held = np.array(getattr(gaussian, name))
        off = np.abs(held - np.array(coefs)) / np.spacing(np.abs(np.array(coefs)))
        if held.shape != (len(coefs),) or off.max() > 4:
            failures.append(f"{name} is not within 4 ulps of the refit (worst {off.max():.1f} ulps)")
    rng = np.random.default_rng(2)
    near = np.concatenate((
        np.linspace(0.0, T_END, 20000, endpoint=False),
        rng.uniform(0.0, T_END, 20000),
        [np.nextafter(T_END, 0.0)],
    ))
    far = np.concatenate((
        np.linspace(T_END, 60.0, 20000),
        np.exp(rng.uniform(np.log(T_END), np.log(1e300), 20000)),
        [np.nextafter(T_END, 99.0), 1e300],
    ))
    for label, t in ((f"[0, {T_END})", near), (f"[{T_END}, 1e300]", far)):
        got = gaussian.erfcx(t)
        rel = np.array([float(abs(mp.mpf(g) / erfcx_mp(mp.mpf(v)) - 1)) for g, v in zip(got, t)])
        worst_t = float(t[rel.argmax()])
        print(f"float64 erfcx on {label}: worst {rel.max():.3g} relative at t = {worst_t!r}")
        if rel.max() > BOUND:
            failures.append(f"erfcx errs by {rel.max():.3g} > {BOUND:g} on {label}")
    return failures


def main(argv):
    mp.mp.dps = 40
    fitted = {}
    for names, fit_one in ((("_ERFCX_P", "_ERFCX_Q"), fit_near), (("_ERFCX_FAR_P", "_ERFCX_FAR_Q"), fit_far)):
        p, q, worst = fit_one()
        print(f"{names[0]} / {names[1]}: largest relative error {mp.nstr(worst, 3)} on the fitting points")
        fitted.update(zip(names, float_coefficients(p, q)))
    if "--check" in argv:
        failures = check(fitted)
        for line in failures:
            print(f"FAIL: {line}")
        return 1 if failures else 0
    for name, coefs in fitted.items():
        print(f"{name} = (")
        for k in range(0, len(coefs), 3):
            print("    " + " ".join(f"{c!r}," for c in coefs[k : k + 3]))
        print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
