"""Per-sample latent factor estimation by restricted probit likelihood.

Each sample's latent position maximizes the probit log-likelihood over the
fitted model, restricted to components whose noise standard deviation
exceeds a threshold picked so that m% of components participate (small
noise variances otherwise destabilize the objective), less any whose
variance sits on the fit's floor ``spectral.TAU2_FLOOR``.  The objective is
globally concave, so a damped Newton ascent on its observed curvature,
started from the origin, finds the maximizer; rows are independent and
optimized simultaneously.  (The paper names Fisher scoring; probit is not
a canonical link, so its Fisher information is not the observed curvature
and Fisher scoring converges only linearly.  The maximizer is the same.)

One pass per trial point and cell gives the log-likelihood, gradient and
curvature together, in log space and with no probability floor, over
blocks of rows that hold about 2^16 cells (max(1, 2^16 // m) rows of m
included components, at most 8,192).  Each row's weighted sums are one
``einsum`` contraction along its own contiguous components, so its bits
do not depend on the block.  The pass writes its temporaries into
buffers that its share of rows allocates once.  At the origin a cell
takes one of two values per column, which each call computes once into a
table, so the first evaluation of an ascent from there gathers its cells
from that table and sums them as any other.  The ascent keeps the values for each
accepted point, and retires a row whose step leaves it in place (a
stalled row).

A row whose Newton step is certified, by the Lipschitz bound on the
curvature, which holds wherever its cells fall, to land within the gradient
tolerance takes that step and converges without the evaluation confirming it;
its reported gradient norm is then that upper bound, not a measured norm.

Rows are cut into one contiguous share per worker, ceil(n / threads)
rows, or 2^16 where that is fewer.  Each share runs its whole ascent on
its own, on up to ``threads`` worker processes, and returns its moved
points with its records, so each worker pays the ascent's per-step
overhead and waits for its slowest rows once.  A row's steps, blocks and
solves depend on its own point and data only, so the scores are bitwise
the same however the rows are cut, and at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import ERFCX_FAR_START, erfcx_parts
from .moments import BinaryMatrix
from .parallel import map_slices
from .spectral import TAU2_FLOOR, FactorModel

_ALPHA_MIN = 1e-12  # smallest step-halving factor before a step is abandoned

# Cells per kernel pass: a block holds max(1, budget // m) rows of m
# included components, and at most _BLOCK_ROWS, so each of its float
# temporaries stays at or below 512 KB whatever n and m are.
_CELL_BUDGET = 2**16
_BLOCK_ROWS = 8192
# Most rows in a share, the unit of the scoring workers, so that a share's
# per-row records and moved points stay small whatever n is.
_SHARE_ROWS = 2**16
# max |psi'''| for psi = log Phi (0.295719 at x = 1.0024), rounded up.  A
# cell's third derivative in x is at most this at any y in [0, 1].
_PSI3_MAX = 0.2958
# Rounding of one cell's dx, in ulps of sqrt(2 |ll cell|) + 2, on top of a
# row sum's m (against 50-digit mpmath: at most 4.4 below |x| = 3.5 sqrt 2,
# and 2.3 from there to |x| = 1.5e154).
_CELL_ULPS = 64
# A curvature cell, in [0, 1], errs by at most _CURV_ERR at any |x|: by 2.4e-14
# below |x| = 3.5 sqrt 2 against mpmath, and past it by 8.9e-16 on the small
# side (q is checked by make_erfcx_rational.py --check), 4e-20 on the large.
_CURV_ERR = 3e-14
# A d <= 3 curvature whose determinant is at most this fraction of the
# product of its diagonal is solved by LAPACK: the closed form's cofactors
# cancel there, and near rounding level can give a zero step where LU does not.
_CLOSED_FORM_DET = 1e-8

_SQRT_HALF = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class ScoreConfig:
    """Scoring options: inclusion percentage and stopping rule, checked on construction."""

    m_percent: float = 90.0
    grad_tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if not 0.0 < self.m_percent <= 100.0:
            raise ValueError(f"m_percent must be in (0, 100], got {self.m_percent}")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class LatentScores:
    """Estimated factors with per-sample convergence records.

    ``grad_norms`` holds each row's gradient norm of ll / p where it
    stopped: measured, or, for a row whose last step was certified rather
    than evaluated, the certified upper bound on it.
    """

    z_hat: np.ndarray
    iterations: np.ndarray
    grad_norms: np.ndarray
    converged: np.ndarray

    @property
    def n(self) -> int:
        return self.z_hat.shape[0]


def select_tau_threshold(tau2_hat: np.ndarray, m_percent: float) -> float:
    """Threshold such that ceil(m * p / 100) components satisfy tau_j > tau.

    Sits just below the k-th largest noise standard deviation, so exact
    ties at the cut are all included rather than excluded.
    """
    tau2_hat = np.asarray(tau2_hat, dtype=float)
    if np.any(tau2_hat < 0.0):
        raise ValueError("noise variances must be non-negative")
    if not 0.0 < m_percent <= 100.0:
        raise ValueError(f"m_percent must be in (0, 100], got {m_percent}")
    tau_sd = np.sqrt(tau2_hat)
    p = tau_sd.size
    k = math.ceil(m_percent * p / 100.0)
    kth_largest = np.partition(tau_sd, p - k)[p - k]
    return float(kth_largest) - 1e-12


def inclusion_mask(model: FactorModel, m_percent: float) -> np.ndarray:
    """The components that enter the likelihood at ``m_percent``: those
    whose noise scale passes the ``select_tau_threshold`` cut and whose
    variance is above ``spectral.TAU2_FLOOR``.

    A variance at or below the floor (floored or zero) puts loadings near
    1e5 noise units, where the gradient's rounding passes any usable
    tolerance, so it never enters, even if fewer than m% then take part.
    When every variance is on the floor none enters.
    """
    tau = select_tau_threshold(model.tau2_hat, m_percent)
    return (np.sqrt(model.tau2_hat) > tau) & (model.tau2_hat > TAU2_FLOOR)


def estimate_scores(
    y: BinaryMatrix,
    model: FactorModel,
    cfg: ScoreConfig | None = None,
    z0: np.ndarray | None = None,
    threads: int = 1,
) -> LatentScores:
    """Estimate the latent factors of every sample.

    Damped Newton ascent on the observed curvature -d^2 ll / dz^2: the
    step solves that system and is halved until the likelihood does not
    decrease, so the per-row likelihood path is non-decreasing.  A row
    stops once its gradient norm falls below ``cfg.grad_tol`` or after
    ``cfg.max_iter`` steps.  When a bound on the gradient norm after a full
    step is already within ``cfg.grad_tol``, and the step surely raises
    the likelihood, the row takes the step and stops there with that bound
    as its ``grad_norms`` entry, which spares the evaluation that would
    only confirm it.  A row whose step leaves it in place (halving found no
    better point) stops too, since every later step would repeat it; it
    keeps ``converged=False``, its gradient norm and the steps it took.
    Rows are independent; the result does not depend on their order or on
    ``threads``, the number of worker processes that run the row shares
    (see ``parallel``).

    Components take part when their noise scale passes the
    ``select_tau_threshold`` cut and their variance is above
    ``spectral.TAU2_FLOOR``, even if fewer than m% then do.  Rows start at
    the origin, or at their rows of ``z0`` (n x d, finite).  With no
    component included every row converges at its start after 0 steps.
    """
    cfg = cfg or ScoreConfig()
    if model.p != y.p:
        raise ValueError(f"model has p={model.p} but data has p={y.p}")
    n, d = y.n, model.d
    incl = _inclusion(model, cfg.m_percent)

    if z0 is None:
        z = np.zeros((n, d))
    else:
        z = np.array(z0, dtype=float)
        if z.shape != (n, d):
            raise ValueError(f"z0 must have shape {(n, d)}, got {z.shape}")
        bad = ~np.isfinite(z).all(axis=1)
        if bad.any():
            raise ValueError(f"z0 must be finite; row {int(np.argmax(bad))} is {z[bad][0]}")

    # Column selection leaves the columns contiguous (Fortran order); a
    # C-ordered copy gathers rows at a stride of one row.
    y_incl = np.ascontiguousarray(y.data[:, incl.mask])

    def share(s: slice):
        records = _ascend(z[s], y_incl[s], incl, model.p, cfg, z0 is None)
        return (z[s], *records)  # the moved points: a worker shares no memory

    rows = max(1, min(-(-n // threads), _SHARE_ROWS))
    shares = map_slices(share, n, rows, threads)
    z_hat, iters, gnorm, conv = (np.concatenate(parts) for parts in zip(*shares))
    return LatentScores(z_hat=z_hat, iterations=iters, grad_norms=gnorm, converged=conv)


def reconstruct(model: FactorModel, scores: LatentScores) -> np.ndarray:
    """Per-sample reconstructions: row i is b_hat @ z_i."""
    return scores.z_hat @ model.b_hat.T


def _ascend(z, y_incl, incl: _Inclusion, p: int, cfg: ScoreConfig, at_origin: bool):
    """The ascent of ``estimate_scores`` for one share of rows.

    Moves the points ``z`` in place and returns the rows' iterations,
    gradient norms and convergence flags.  ``steps`` is every active row's
    own step count, so no row's result depends on the other rows.  When
    ``at_origin``, every row starts at z = 0 and the first evaluation is
    a table lookup.
    """
    n = len(z)
    iters = np.zeros(n, dtype=int)
    gnorm = np.zeros(n)
    conv = np.zeros(n, dtype=bool)
    active = np.arange(n)
    work = _workspace(min(n, incl.block_rows), incl.ct.size)
    # The log-likelihood, gradient and curvature of each active row's
    # current point, in the order of ``active``.
    ll, g, curv = _evaluate(None if at_origin else z, y_incl, active, incl, p, work)

    steps = 0
    retired = np.zeros(n, dtype=bool)  # rows certified or stalled by the last step
    while True:
        gn = np.linalg.norm(g, axis=1)
        done = (gn <= cfg.grad_tol) & ~retired
        gnorm[active[done]] = gn[done]
        conv[active[done]] = True
        active, gn, ll, g, curv = _keep(~(done | retired), active, gn, ll, g, curv)
        if active.size == 0:
            break
        if steps >= cfg.max_iter:
            gnorm[active] = gn
            break
        steps += 1
        iters[active] = steps

        step = _solve_steps(curv, g)
        z_cur = z[active]
        # A row whose full step is certified to end within the tolerance
        # takes it, as an accepted full step would, and converges without
        # the evaluation that would only confirm it.
        sure, bound = _certify(ll, g, curv, step, z_cur, incl, cfg.grad_tol)
        z[active[sure]] = z_cur[sure] + step[sure]
        gnorm[active[sure]] = bound[sure]
        conv[active[sure]] = True

        # Step halving until the likelihood does not decrease, per row.  A
        # row that never finds such a point keeps its position.
        alpha = 1.0
        trial = np.flatnonzero(~sure)
        while trial.size:
            z_try = z_cur[trial] + alpha * step[trial]
            ll_try, g_try, curv_try = _evaluate(z_try, y_incl, active[trial], incl, p, work)
            ok = ll_try >= ll[trial]
            moved = trial[ok]
            z[active[moved]] = z_try[ok]
            ll[moved], g[moved], curv[moved] = ll_try[ok], g_try[ok], curv_try[ok]
            trial = trial[~ok]
            if alpha <= _ALPHA_MIN:
                break
            alpha *= 0.5

        stalled = np.all(z[active] == z_cur, axis=1) & ~sure
        gnorm[active[stalled]] = gn[stalled]
        retired = sure | stalled
    return iters, gnorm, conv


def _keep(mask, *arrays):
    """The rows ``mask`` selects of each array; the arrays themselves when it selects all."""
    if mask.all():
        return arrays
    return tuple(a[mask] for a in arrays)


def _certify(ll, g, curv, step, z, incl: _Inclusion, tol: float):
    """Rows whose full Newton step from ``z`` provably ends the ascent, and
    their bounds on the gradient norm there (inf on the other rows).

    For f = ll / p with curvature H = -Hess f, the Hessian of f is
    Lipschitz with constant L = ``incl.lipschitz``, so the gradient at
    z + s is within (L/2)|s|^2 of g - H s (Nesterov 2004, Lemma 1.2.4):

        |grad f(z + s)| <= |g - H s| + (L/2)|s|^2 + rounding,

    where the rounding covers the computed g and H, the rounding of z + s
    itself and the gradient that an evaluation there would compute.  A row
    is certified when that bound is at most ``tol`` and the step's rise, at
    least g.s/2 + s.(g - H s)/2 - (L/6)|s|^3 less the same rounding,
    exceeds the rounding of two computed ll: the halving test would then
    accept z + s and the evaluation there would stop the row.

    The weighted row sums are sequential, so each errs by at most m ulps
    of the sum of its terms' magnitudes (Higham 2002, ch. 4), plus its
    cells' own errors.  A cell's |dx| is at most sqrt(2 |ll cell|) + 2, and
    errs by at most ``_CELL_ULPS`` ulps of that, so the gradient errs by
    at most m + ``_CELL_ULPS`` ulps of sqrt(-2 f K2) + 2 K1, with K1 and K2
    the means over p of |bt_j| and |bt_j|^2.  The curvature cells lie in
    [0, 1], so |H| <= K2, and err by at most ``_CURV_ERR`` at any |x|
    (``_kernel``).  numpy sums the ll cells pairwise, in eight interleaved
    partial sums below 128 cells, so ll errs by at most m/8 + 16 ulps of -f.
    """
    sn = np.linalg.norm(step, axis=1)
    lip = incl.lipschitz
    bound = np.full(len(sn), np.inf)
    near = np.flatnonzero(0.5 * lip * sn * sn <= tol)
    ll, g, curv, step, z, sn = ll[near], g[near], curv[near], step[near], z[near], sn[near]

    m = incl.ct.size
    eps = np.finfo(float).eps
    k1, k2 = incl.norm_means
    rn = np.linalg.norm(g - np.einsum("ijk,ik->ij", curv, step), axis=1)
    err_g = (m + _CELL_ULPS) * eps * (np.sqrt(-2.0 * k2 * ll) + 2.0 * k1)
    err_h = ((m + _CELL_ULPS) * eps + _CURV_ERR) * k2
    err_z = eps * k2 * np.linalg.norm(z + step, axis=1)
    bound[near] = rn + 2.0 * err_g + err_z + sn * (err_h + 0.5 * lip * sn)
    rise = 0.5 * (np.einsum("ij,ij->i", g, step) - sn * rn) - sn * (
        err_g + sn * (0.5 * err_h + lip / 6.0 * sn)
    )
    sure = bound <= tol
    sure[near] &= rise > -2.0 * (m / 8 + 16) * eps * ll
    return sure, bound


@dataclass(frozen=True)
class _Inclusion:
    """Included components in noise units.

    ``affine`` ((d + 1) x m) stacks ``bt`` (d x m), the loadings over the
    noise scales, on ``ct`` (m,), the thresholds.  ``pairs``
    (d(d+1)/2 x m) holds the products bt_k bt_l for k <= l, which the
    curvature sums take as weights, and ``unpack`` (d x d) places those
    sums in the symmetric matrix.  ``origin`` holds the kernel's (ll, dx,
    curvature) cells at z = 0, where x = -ct: three (2 x m) tables whose
    row k is a cell's value when y = k, built once per ``estimate_scores``
    call.  A kernel block holds ``block_rows`` rows.
    ``lipschitz`` bounds the Lipschitz constant of the Hessian of ll / p, and
    ``norm_means`` holds the means over p of |bt_j| and |bt_j|^2 (``_certify``).
    """

    mask: np.ndarray
    affine: np.ndarray
    pairs: np.ndarray
    unpack: np.ndarray
    origin: tuple
    block_rows: int
    lipschitz: float
    norm_means: tuple

    @property
    def bt(self) -> np.ndarray:
        return self.affine[:-1]

    @property
    def ct(self) -> np.ndarray:
        return self.affine[-1]


def _inclusion(model: FactorModel, m_percent: float) -> _Inclusion:
    mask = inclusion_mask(model, m_percent)
    scale = np.sqrt(model.tau2_hat[mask])
    # C order: the einsum contractions' order follows the operands' layout.
    bt_ct = ((model.b_hat[mask] / scale[:, None]).T, model.c_hat[mask] / scale)
    affine = np.ascontiguousarray(np.vstack(bt_ct))
    bt = affine[:-1]
    d, m = bt.shape
    # The kernel's cells at the origin for y = 0 and y = 1 in every column.
    z1 = np.zeros((2, d + 1))
    z1[:, -1] = -1.0
    both = np.repeat(np.arange(2, dtype=np.uint8)[:, None], m, axis=1)
    cells = _kernel(z1, both, affine, *_workspace(2, m))
    k, l = np.tril_indices(d)
    unpack = np.empty((d, d), dtype=int)
    unpack[k, l] = unpack[l, k] = np.arange(k.size)
    norms = np.linalg.norm(bt, axis=0)
    block_rows = max(1, min(_CELL_BUDGET // max(m, 1), _BLOCK_ROWS))
    return _Inclusion(
        mask=mask,
        affine=affine,
        pairs=bt[k] * bt[l],
        unpack=unpack,
        origin=tuple(c.copy() for c in cells),
        block_rows=block_rows,
        lipschitz=_PSI3_MAX * float(np.sum(norms**3)) / model.p,
        norm_means=(float(norms.sum()) / model.p, float(np.sum(norms**2)) / model.p),
    )


def _workspace(rows: int, m: int):
    """The kernel's temporaries for blocks of up to ``rows`` rows: seven float
    and one boolean (rows x m) buffers, which a share reuses throughout."""
    return np.empty((7, rows, m)), np.empty((rows, m), dtype=bool)


def _evaluate(z, y_incl, rows, incl: _Inclusion, p: int, work=None):
    """Log-likelihood, gradient and curvature -d^2 ll / dz^2 at points z.

    ``z[i]`` is the point of the sample in row ``rows[i]`` of ``y_incl``
    (samples x included components); ``z`` None puts every row at the
    origin, where each block's cells are gathered from ``incl.origin``
    instead of computed.  Returns arrays of shape (n,), (n, d) and
    (n, d, d), computed in blocks of rows, each block's cells in the
    buffers ``work``; a row's values depend only on its own point and
    data, not on the block it is in.
    """
    n, (d, m) = len(rows), incl.bt.shape
    work = work or _workspace(min(n, incl.block_rows), m)
    if z is not None:
        # A last coordinate of -1, so that ``incl.affine`` maps each point
        # to its x = bt . z - ct.
        z1 = np.concatenate((z, np.full((n, 1), -1.0)), axis=1)
    ll = np.empty(n)
    g = np.empty((n, d))
    packed = np.empty((n, len(incl.pairs)))
    for s in range(0, n, incl.block_rows):
        e = min(s + incl.block_rows, n)
        floats, neg = (buf[..., : e - s, :] for buf in work)
        y = y_incl[rows[s:e]]
        if z is None:
            cells = [_pick(y, pair, out) for pair, out in zip(incl.origin, floats)]
        else:
            cells = _kernel(z1[s:e], y, incl.affine, floats, neg)
        _row_sums(*cells, incl, ll[s:e], g[s:e], packed[s:e])
    return ll / p, g / p, packed[:, incl.unpack] / p


def _pick(y, pair, out):
    """``pair[y]`` cell by cell, bit for bit, into the float array ``out``.

    The bits of pair[0] XOR y times the XOR of the two values' bits: one
    integer product and one XOR per cell (``np.where`` over broadcast
    columns takes about three times as long).
    """
    bits = pair.view(np.uint64)
    picked = out.view(np.uint64)
    np.multiply(y, bits[0] ^ bits[1], out=picked)
    picked ^= bits[0]
    return out


def _kernel(z1, y, affine, floats, neg):
    """Per-cell log-likelihood, x-derivative and observed curvature of a
    block: points ``z1`` (rows x d + 1, each z_i with a last coordinate of
    -1), data ``y`` (rows x components), and ``affine`` (``_Inclusion``).

    Cell (i, j) adds y log Phi(x) + (1 - y) log Phi(-x), x = bt_j . z_i - ct_j.
    With a = |x| and s = a / sqrt 2, every cell takes one path from E =
    ``gaussian.erfcx(s)`` = 2 Phi(-a) exp(s^2): phi(a) / Phi(-a) = sqrt(2 /
    pi) / E, log Phi(-a) = log(E / 2) - s^2 and Phi(-a) its exp, then log
    Phi(a) = log1p(-Phi(-a)) and phi(a) / Phi(a).  Nothing cancels or
    underflows on the way, so all stay accurate and finite while s^2 does.
    Past |x| ~ 1.9e154 s^2 is inf: log Phi(-a) is then -inf, its correct
    rounding, and a cell that gives the small side no weight takes its ll
    from the large side alone; the derivatives stay finite.
    Below s = 3.5, where nearly all cells fall, E is one rational and a
    division; the cells past it take ``erfcx``'s far rational by index.

    The cell's observed curvature -d^2/dx^2 is m (m + a) on the large side,
    with m = phi(a) / Phi(a), and m (m - a) on the small side, with
    m = phi(a) / Phi(-a).  Weighted by each side's share of y it is the
    exact second derivative at fractional y as well.  The probit
    likelihood is log-concave, so both lie in [0, 1] and the Newton system
    is positive semidefinite.  m (m - a) cancels as a grows and errs by up to
    2.4e-14 below s = 3.5 (against mpmath).  Past it E = (1 - w q) / (s sqrt
    pi), w = (3.5 / s)^2, so the far cells take m - a = (24.5 / a) q / (1 - w
    q), which cancels, overflows and underflows nowhere: 8.9e-16 in m (m - a).

    Every (rows x components) temporary is written in place, with ``out=``,
    into the buffers ``floats`` (7 x rows x components) and ``neg``
    (rows x components, boolean); the three results are views of them, and
    ``erfcx_parts`` takes one of the float buffers for its denominator
    before it holds anything else.  Each value takes the same floating-point
    operations in the same order as the plain expressions in the comments.
    The product x is one ``einsum`` that adds bt_1 z_1, ..., bt_d z_d and
    -ct in turn, not BLAS.  A cell's values depend only on its own x and y,
    so the cells that ``_evaluate`` gathers from the origin table are those
    this would compute there.
    """
    a, tail, log_small, mills_small, log_large, w, w_small = floats
    np.einsum("ik,kj->ij", z1, affine, out=a)  # x = bt . z - ct, in that order
    np.less(a, 0.0, out=neg)
    np.abs(a, out=a)
    # Weight of the large side, Phi(a), in the cell's likelihood: y where
    # x >= 0, 1 - y where x < 0.  w = |y - neg| stays a float weight, so
    # a fractional y weighs both sides.  (Mixed-type ufuncs with a bool
    # operand take several times as long, so neg is copied to floats.)
    np.copyto(tail, neg)
    np.copyto(w, y)
    np.abs(np.subtract(w, tail, out=w), out=w)
    np.subtract(1.0, w, out=w_small)

    s = np.multiply(a, _SQRT_HALF, out=tail)
    ex, far, q = erfcx_parts(s, out=mills_small, work=log_large)  # E = 2 Phi(-a) exp(s^2)
    np.log(np.multiply(ex, 0.5, out=log_small), out=log_small)
    with np.errstate(over="ignore"):  # s^2 is inf past |x| ~ 1.9e154
        log_small -= np.multiply(s, s, out=s)  # log Phi(-a) = log(E / 2) - s^2
    huge = far[np.isinf(np.take(s, far))]
    np.exp(log_small, out=tail)  # Phi(-a)
    np.divide(_SQRT_2_OVER_PI, ex, out=mills_small)  # phi(a) / Phi(-a)
    np.log1p(np.negative(tail, out=log_large), out=log_large)  # log Phi(a)
    # Where s^2 is inf, log Phi(-a) is -inf, its correct rounding, and a
    # cell that gives the small side no weight takes none of it (not 0 inf).
    np.put(log_small, huge[np.take(w_small, huge) == 0.0], 0.0)
    # ll = w log Phi(a) + (1 - w) log Phi(-a)
    log_large *= w
    log_large += np.multiply(w_small, log_small, out=log_small)
    mills_large = np.multiply(mills_small, tail, out=log_small)
    mills_large /= np.subtract(1.0, tail, out=tail)  # phi(a) / Phi(a)

    w *= mills_large  # w m_L
    w_small *= mills_small  # (1 - w) m_S
    dx = np.subtract(w, w_small, out=tail)  # w m_L - (1 - w) m_S
    # info = w m_L (m_L + a) + (1 - w) m_S (m_S - a)
    mills_large += a
    mills_large *= w
    mills_small -= a
    a_far = np.take(a, far)  # past s = 3.5, m_S - a = (24.5 / a) q / (1 - w q)
    # 24.5 / a is formed here, not taken as w q from erfcx_parts: w = (3.5 / s)^2
    # underflows past s ~ 2e154, and with it the curvature would be 0 at
    # |x| = 1e300 (TestCurvature::test_matches_mpmath[1e+300-0]).
    r = 2.0 * ERFCX_FAR_START**2 / a_far  # w = (3.5 / s)^2 = r / a
    np.put(mills_small, far, r * q / (1.0 - r / a_far * q))
    mills_small *= w_small
    info = np.add(mills_large, mills_small, out=mills_large)
    # dx (1 - 2 neg): d|x|/dx = -1 where x < 0
    np.copyto(w, neg)
    dx *= np.subtract(1.0, np.multiply(2.0, w, out=w), out=w)
    return log_large, dx, info


def _row_sums(ll_cells, dx, info, incl: _Inclusion, ll, g, packed):
    """Each row's sums of the cells, into ``ll``, ``g`` and ``packed``.

    ``packed`` holds the curvature sums against ``incl.pairs``.  The two
    weighted sums are one ``einsum`` contraction each, not a BLAS product,
    whose path depends on the number of rows: each row is summed along its
    own contiguous components, so its bits do not depend on the block.
    """
    ll_cells.sum(axis=1, out=ll)
    np.einsum("ij,kj->ik", dx, incl.bt, out=g)
    np.einsum("ij,kj->ik", info, incl.pairs, out=packed)


def _solve_steps(curv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Newton steps curv^-1 g for a stack of curvature matrices.

    For d <= 3 a row is solved in closed form, adj(H) g / det(H), on its
    exactly symmetric curvature, unless det(H) is at most
    ``_CLOSED_FORM_DET`` times the product of H's diagonal (Hadamard's bound
    on det H), where the cofactors cancel.  Those rows, and every row for
    d >= 4, take one batched LAPACK solve (``_solve_lapack``).
    """
    if g.shape[1] > 3:
        return _solve_lapack(curv, g)
    adj_g, det = _adjugate_product(curv, g)
    hadamard = np.prod(np.diagonal(curv, axis1=1, axis2=2), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = adj_g / det[:, None]
    rows = np.flatnonzero(~(det > _CLOSED_FORM_DET * hadamard))
    if rows.size:
        step[rows] = _solve_lapack(curv[rows], g[rows])
    return step


def _solve_lapack(curv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``_solve_steps`` by batched LAPACK solves.  A matrix whose LU
    factorization meets a zero pivot, so that its determinant is exactly 0,
    is ridged by 1e-8 trace / d; one with zero trace gets a zero step."""
    try:
        return np.linalg.solve(curv, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    d = g.shape[1]
    trace = np.trace(curv, axis1=1, axis2=2)
    singular = np.linalg.det(curv) == 0.0
    empty = singular & (trace <= 0.0)
    regularized = curv.copy()
    regularized[singular] += (1e-8 * trace[singular] / d)[:, None, None] * np.eye(d)
    regularized[empty] = np.eye(d)
    step = np.linalg.solve(regularized, g[..., None])[..., 0]
    step[empty] = 0.0
    return step


def _adjugate_product(h, g):
    """adj(h) g and det(h) for a stack of symmetric d x d matrices, d <= 3,
    by cofactors of the upper triangle."""
    d = g.shape[1]
    if d == 1:
        return g, h[:, 0, 0]
    if d == 2:
        a, b, c = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        g0, g1 = g.T
        return np.stack((c * g0 - b * g1, a * g1 - b * g0), axis=1), a * c - b * b
    a, b, c, e, f, k = h[:, 0, 0], h[:, 0, 1], h[:, 0, 2], h[:, 1, 1], h[:, 1, 2], h[:, 2, 2]
    c00, c01, c02 = e * k - f * f, c * f - b * k, b * f - c * e
    c11, c12, c22 = a * k - c * c, b * c - a * f, a * e - b * b
    g0, g1, g2 = g.T
    adj_g = np.stack((
        c00 * g0 + c01 * g1 + c02 * g2,
        c01 * g0 + c11 * g1 + c12 * g2,
        c02 * g0 + c12 * g1 + c22 * g2,
    ), axis=1)
    return adj_g, a * c00 + b * c01 + c * c02
