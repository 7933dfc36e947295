"""Fit the degree-(8, 8) rational that ``gaussian.erfcx`` takes on [0, 3.5).

Run from the repository root, with ``binfactor`` importable for ``--check``
(``pip install -e .`` or ``PYTHONPATH=src``):

    python tests/data/make_erfcx_rational.py           # print the coefficients
    python tests/data/make_erfcx_rational.py --check   # refit and compare

erfcx(t) = exp(t^2) erfc(t) is approximated on [0, 3.5] by P(t) / Q(t),
with P of degree 8 and Q monic of degree 8, in relative error, in the form
of Cody (1969, Math. Comp. 23:631).  The fit runs in mpmath at 40 digits
on 400 Chebyshev points of [0, 3.5] and its two ends, in the variable
u = t / 3.5.  Six Sanathanan-Koerner iterations (1963, IEEE Trans. Autom.
Control 8:56) solve the linearized least-squares problem

    min sum_i w_i ((P(u_i) - f_i Q(u_i)) / (f_i Q_prev(u_i)))^2,

whose weight 1 / Q_prev makes the residual the relative error once Q
settles.  Forty Lawson iterations then multiply each w_i by its point's
relative error, which draws the fit towards the minimax one.  The fit with
the smallest largest error on the points is kept: 3.7e-18 relative.

The coefficients are rescaled to t, divided by Q's leading coefficient and
rounded to the nearest float64; the script prints them highest degree
first, as ``_ERFCX_P`` and ``_ERFCX_Q`` (Q's leading 1 left out), which
``gaussian._polevl`` and ``gaussian._p1evl`` take.

``--check`` refits, and fails unless every coefficient in ``gaussian`` is
within 4 ulps of the refit, and unless ``gaussian.erfcx`` is within
``BOUND`` relative of mpmath on 20,000 even and 20,000 seeded points of
[0, 3.5).  mpmath's arithmetic is correctly rounded, so the refit is the
same on every machine.  It takes 10-15 s.
"""

import sys

import mpmath as mp
import numpy as np

T_END = 3.5
DEGREE = 8
POINTS = 400
SK_STEPS, LAWSON_STEPS = 6, 40
BOUND = 1e-15


def erfcx_mp(t):
    return mp.erfc(t) * mp.exp(t * t)


def horner(coefs, u):
    """The polynomial with ``coefs``, lowest degree first, at u."""
    total = mp.mpf(0)
    for c in reversed(coefs):
        total = total * u + c
    return total


def fit():
    """(P, Q) in t, lowest degree first, Q monic, and the largest relative
    error on the fitting points."""
    u = [mp.mpf(0), mp.mpf(1)] + [
        (1 - mp.cos(mp.pi * (i + mp.mpf(1) / 2) / POINTS)) / 2 for i in range(POINTS)
    ]
    f = [erfcx_mp(T_END * x) for x in u]
    powers = [[x**k for k in range(DEGREE + 1)] for x in u]
    w = [mp.mpf(1) / len(u)] * len(u)
    q_prev = [mp.mpf(1)] * len(u)
    best = None
    for step in range(SK_STEPS + LAWSON_STEPS):
        # Unknowns p_0..p_8 and q_0..q_7; Q's u^8 coefficient is 1.
        cols = [[pw[k] / (fi * qi) for pw, fi, qi in zip(powers, f, q_prev)] for k in range(DEGREE + 1)]
        cols += [[-pw[k] / qi for pw, qi in zip(powers, q_prev)] for k in range(DEGREE)]
        rhs = [pw[DEGREE] / qi for pw, qi in zip(powers, q_prev)]
        weighted = [[wi * c for wi, c in zip(w, col)] for col in cols]
        normal = mp.matrix(len(cols), len(cols))
        for k in range(len(cols)):
            for l in range(k, len(cols)):
                normal[k, l] = normal[l, k] = mp.fdot(weighted[k], cols[l])
        x = mp.cholesky_solve(normal, mp.matrix([mp.fdot(col, rhs) for col in weighted]))
        p = [x[k] for k in range(DEGREE + 1)]
        q = [x[DEGREE + 1 + k] for k in range(DEGREE)] + [mp.mpf(1)]
        q_prev = [horner(q, x) for x in u]
        err = [horner(p, x) / (fi * qi) - 1 for x, fi, qi in zip(u, f, q_prev)]
        worst = max(abs(e) for e in err)
        if best is None or worst < best[0]:
            best = (worst, p, q)
        if step >= SK_STEPS:
            w = [wi * abs(e) for wi, e in zip(w, err)]
            total = mp.fsum(w)
            w = [wi / total for wi in w]
    worst, p, q = best
    # P(t) = sum p_k (t / 3.5)^k, divided by Q's leading coefficient in t.
    lead = q[DEGREE] / mp.mpf(T_END) ** DEGREE
    scale = [mp.mpf(T_END) ** -k / lead for k in range(DEGREE + 1)]
    return [c * s for c, s in zip(p, scale)], [c * s for c, s in zip(q, scale)], worst


def float_coefficients(p, q):
    """``_ERFCX_P`` and ``_ERFCX_Q``: highest degree first, Q's leading 1 left out."""
    return tuple(float(c) for c in reversed(p)), tuple(float(c) for c in reversed(q[:-1]))


def check(p_fit, q_fit):
    from binfactor import gaussian

    failures = []
    for name, fitted in zip(("_ERFCX_P", "_ERFCX_Q"), (p_fit, q_fit)):
        held = np.array(getattr(gaussian, name))
        off = np.abs(held - np.array(fitted)) / np.spacing(np.abs(np.array(fitted)))
        if held.shape != (len(fitted),) or off.max() > 4:
            failures.append(f"{name} is not within 4 ulps of the refit (worst {off.max():.1f} ulps)")
    t = np.concatenate((
        np.linspace(0.0, T_END, 20000, endpoint=False),
        np.random.default_rng(2).uniform(0.0, T_END, 20000),
        [np.nextafter(T_END, 0.0)],
    ))
    got = gaussian.erfcx(t)
    rel = np.array([float(abs(mp.mpf(g) / erfcx_mp(mp.mpf(v)) - 1)) for g, v in zip(got, t)])
    worst_t = float(t[rel.argmax()])
    print(f"float64 erfcx on [0, {T_END}): worst {rel.max():.3g} relative at t = {worst_t!r}")
    if rel.max() > BOUND:
        failures.append(f"erfcx errs by {rel.max():.3g} > {BOUND:g} on [0, {T_END})")
    return failures


def main(argv):
    mp.mp.dps = 40
    p, q, worst = fit()
    print(f"fit: largest relative error {mp.nstr(worst, 3)} on the fitting points")
    p_fit, q_fit = float_coefficients(p, q)
    if "--check" in argv:
        failures = check(p_fit, q_fit)
        for line in failures:
            print(f"FAIL: {line}")
        return 1 if failures else 0
    for name, coefs in (("_ERFCX_P", p_fit), ("_ERFCX_Q", q_fit)):
        print(f"{name} = (")
        for k in range(0, len(coefs), 3):
            print("    " + " ".join(f"{c!r}," for c in coefs[k : k + 3]))
        print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
