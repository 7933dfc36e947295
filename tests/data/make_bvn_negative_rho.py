"""Write ``bvn_negative_rho.txt``: 30-digit references for ell at rho < 0.

Run from the repository root:

    python tests/data/make_bvn_negative_rho.py

It draws 1,000 seeded cells, all with rho < 0.  In the first 500 both
thresholds are uniform on (-3, 3) and rho is uniform on (-0.999, 0).  In
the other 500, c2 = -c1 + U(-0.1, 0.1) and rho = -(1 - 10^U(-3, 0)); these
reach values far below the rho = 0 anchor, so the cells fall on both sides
of the kernel's switch to the rho = -1 anchor.

Each reference is computed by mpmath at 30 digits as

    max(0, Phi(-hi) - Phi(lo)) + int_theta^{pi/2} h(t; lo, -hi) dt,

with lo <= hi, theta = asin(-rho) and h(t; a, b) = pdf((a - b sin t) /
cos t) pdf(b): a sum of non-negative terms.  Deep in the tail the
integrand falls by many orders of magnitude within a tiny distance of
theta, so tanh-sinh quadrature runs on pieces whose ends approach theta
geometrically (and pi/2 as well), on an integrand scaled to its peak.  The value is computed at 30 and at 45
digits; the script stops if the two differ by more than 1e-20 relative,
and writes the 45-digit value to 22 significant digits, after each
cell's inputs as exact float reprs.
"""

from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).with_name("bvn_negative_rho.txt")


def reference(c1: float, c2: float, rho: float) -> mp.mpf:
    lo, hi = (mp.mpf(min(c1, c2)), mp.mpf(max(c1, c2)))
    theta = mp.asin(-mp.mpf(rho))

    # With lo + hi > 0, x(t) = (lo + hi sin t) / cos t increases on
    # [theta, pi/2).  If x(theta) > 0 the integrand peaks at theta, and it
    # is scaled by exp(x(theta)^2 / 2) so that quad's error test, which is
    # not relative to a tiny integral, sees values of order one.
    cos, sin = mp.cos_sin(theta)
    x0 = (lo + hi * sin) / cos
    shift = x0 * x0 if lo + hi > 0 and x0 > 0 else mp.mpf(0)

    def h(t):
        cos, sin = mp.cos_sin(t)
        x = (lo + hi * sin) / cos
        return mp.exp(-(x * x - shift) / 2)

    gap = mp.pi / 2 - theta
    steps = [gap * mp.mpf(2) ** -k for k in range(1, 41)]
    pieces = sorted({theta, mp.pi / 2, *(theta + s for s in steps), *(mp.pi / 2 - s for s in steps)})
    boundary = max(mp.mpf(0), mp.ncdf(-hi) - mp.ncdf(lo))
    return boundary + mp.quad(h, pieces) * mp.exp(-(shift + hi * hi) / 2) / (2 * mp.pi)


def cells(seed: int = 2026, half: int = 500):
    rng = np.random.default_rng(seed)
    c1 = rng.uniform(-3.0, 3.0, 2 * half)
    c2 = np.concatenate([rng.uniform(-3.0, 3.0, half), -c1[half:] + rng.uniform(-0.1, 0.1, half)])
    rho = -np.concatenate([rng.uniform(0.0, 0.999, half), 1.0 - 10.0 ** rng.uniform(-3.0, 0.0, half)])
    return c1, c2, rho


def main() -> None:
    lines = ["# c1 c2 rho ell(c1, c2; rho), see make_bvn_negative_rho.py"]
    for c1, c2, rho in zip(*cells()):
        c1, c2, rho = float(c1), float(c2), float(rho)
        with mp.workdps(30):
            coarse = reference(c1, c2, rho)
        with mp.workdps(45):
            fine = reference(c1, c2, rho)
            if abs(coarse - fine) > 1e-20 * fine:
                raise SystemExit(f"references disagree at {(c1, c2, rho)!r}")
        lines.append(f"{c1!r} {c2!r} {rho!r} {mp.nstr(fine, 22)}")
    OUT.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
