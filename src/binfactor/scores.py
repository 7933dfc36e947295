"""Per-sample latent factor estimation by restricted probit likelihood.

Each sample's latent position maximizes the probit log-likelihood over the
fitted model, restricted to components whose noise standard deviation
exceeds a threshold picked so that m% of components participate (small
noise variances otherwise destabilize the objective).  The objective is
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
buffers that its shard allocates once.  At the origin a cell takes one
of two values per column, which each call computes once into a table, so
the first evaluation of an ascent from there gathers its cells from that
table and sums them as any other.  The ascent keeps the values for each
accepted point, and retires a row whose step leaves it in place (a
stalled row).

A row whose Newton step is certified, by the Lipschitz bound on the
curvature, to land where the gradient norm is within the tolerance takes
that step and converges without the evaluation that would confirm it; its
reported gradient norm is then that upper bound, not a measured norm.

Rows are cut into fixed shards of 8 blocks, or of as many whole blocks
as fit in 8,192 rows where that is fewer; the cut depends on n and m
only.  Each shard runs its whole ascent on its own, on up to ``threads``
worker processes, and returns its moved points with its records; a row's
steps are its own, so the scores are bitwise the same at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import erfcx, std_normal_tail
from .moments import BinaryMatrix
from .parallel import map_slices
from .spectral import FactorModel

_ALPHA_MIN = 1e-12  # smallest step-halving factor before a step is abandoned

# Cells per kernel pass: a block holds max(1, budget // m) rows of m
# included components, and at most _SHARD_ROWS, so each of its float
# temporaries stays at or below 512 KB whatever n and m are.
_CELL_BUDGET = 2**16
# A shard, the unit of the scoring workers, holds _SHARD_BLOCKS blocks, or
# as many whole blocks as fit in _SHARD_ROWS rows where that is fewer (at
# least one).  Each shard runs its own whole ascent, so the workers share
# no per-step barrier, and narrow data still makes a shard per 8,192 rows.
_SHARD_BLOCKS = 8
_SHARD_ROWS = 8192
# max |psi'''| for psi = log Phi (0.295719 at x = 1.0024), rounded up.  A
# cell's third derivative in x is at most this at any y in [0, 1].
_PSI3_MAX = 0.2958
# Rounding of one cell's dx, in ulps, on top of a row sum's m.
_CELL_ULPS = 64
# |x| up to which the kernel's curvature cells hold 1e-12 (see ``_kernel``);
# a row whose cells may pass it is never certified.
_CERT_X_MAX = 40.0
_LOG_SPACE_MAX = 5.0  # |x| past which the kernel's tail values use erfcx

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
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
    ``threads``, the number of worker processes that run the row shards
    (see ``parallel``).

    Rows start at the origin, or at their rows of ``z0`` (n x d, finite).
    With no component included every row converges at its start after 0
    steps.
    """
    cfg = cfg or ScoreConfig()
    if model.p != y.p:
        raise ValueError(f"model has p={model.p} but data has p={y.p}")
    n, d = y.n, model.d
    tau = select_tau_threshold(model.tau2_hat, cfg.m_percent)
    incl = _inclusion(model, tau)

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

    def shard(s: slice):
        records = _ascend(z[s], y_incl[s], incl, model.p, cfg, z0 is None)
        return (z[s], *records)  # the moved points: a worker shares no memory

    shards = map_slices(shard, n, incl.shard_rows, threads)
    z_hat, iters, gnorm, conv = (np.concatenate(parts) for parts in zip(*shards))
    return LatentScores(z_hat=z_hat, iterations=iters, grad_norms=gnorm, converged=conv)


def reconstruct(model: FactorModel, scores: LatentScores) -> np.ndarray:
    """Per-sample reconstructions: row i is b_hat @ z_i."""
    return scores.z_hat @ model.b_hat.T


def _ascend(z, y_incl, incl: _Inclusion, p: int, cfg: ScoreConfig, at_origin: bool):
    """The ascent of ``estimate_scores`` for one shard of rows.

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

    The weighted row sums are sequential, so each errs by at most
    (m + ``_CELL_ULPS``) ulps of the sum of its terms' magnitudes (Higham
    2002, ch. 4).  For the gradient that sum is at most
    sqrt(-2 f K2) + 2 K1, with K1 and K2 the means over p of |bt_j| and
    |bt_j|^2, since a cell's |dx| is at most sqrt(2 |ll cell|) + 2.  The
    curvature cells lie in [0, 1], so |H| <= K2, and err by at most 1e-12
    while |x| <= 40 (``_kernel``); past that m (m - a) cancels and the
    error grows as a^2 eps, so a row is certified only when every cell has
    |x| <= max_j |bt_j| |z| + max_j |ct_j| <= 40 (``incl.reach``).  numpy
    sums the ll cells pairwise, in eight interleaved partial sums below 128
    cells, so ll errs by at most m/8 + 16 ulps of -f.
    """
    sn = np.linalg.norm(step, axis=1)
    lip = incl.lipschitz
    bound = np.full(len(sn), np.inf)
    b_max, c_max = incl.reach
    near = np.flatnonzero(
        (0.5 * lip * sn * sn <= tol) & (b_max * np.linalg.norm(z, axis=1) + c_max <= _CERT_X_MAX)
    )
    ll, g, curv, step, z, sn = ll[near], g[near], curv[near], step[near], z[near], sn[near]

    m = incl.ct.size
    eps = np.finfo(float).eps
    k1, k2 = incl.norm_means
    rn = np.linalg.norm(g - np.einsum("ijk,ik->ij", curv, step), axis=1)
    err_g = (m + _CELL_ULPS) * eps * (np.sqrt(-2.0 * k2 * ll) + 2.0 * k1)
    err_h = ((m + _CELL_ULPS) * eps + 1e-12) * k2
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
    call.  A kernel block holds ``block_rows`` rows and a shard
    ``shard_rows``.  ``lipschitz`` bounds the Lipschitz
    constant of the Hessian of ll / p, ``norm_means`` holds the means over
    p of |bt_j| and |bt_j|^2, and ``reach`` the largest |bt_j| and |ct_j|
    (see ``_certify``).
    """

    mask: np.ndarray
    affine: np.ndarray
    pairs: np.ndarray
    unpack: np.ndarray
    origin: tuple
    block_rows: int
    shard_rows: int
    lipschitz: float
    norm_means: tuple
    reach: tuple

    @property
    def bt(self) -> np.ndarray:
        return self.affine[:-1]

    @property
    def ct(self) -> np.ndarray:
        return self.affine[-1]


def _inclusion(model: FactorModel, tau: float) -> _Inclusion:
    tau_sd = np.sqrt(np.maximum(model.tau2_hat, 0.0))
    # A component with zero noise scale has a degenerate probit; it can
    # only pass the indicator when tau < 0, which the threshold rule never
    # produces for usable variances, so it is excluded outright.
    mask = (tau_sd > tau) & (tau_sd > 0.0)
    scale = tau_sd[mask]
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
    block_rows = max(1, min(_CELL_BUDGET // max(m, 1), _SHARD_ROWS))
    return _Inclusion(
        mask=mask,
        affine=affine,
        pairs=bt[k] * bt[l],
        unpack=unpack,
        origin=tuple(c.copy() for c in cells),
        block_rows=block_rows,
        shard_rows=block_rows * max(1, min(_SHARD_BLOCKS, _SHARD_ROWS // block_rows)),
        lipschitz=_PSI3_MAX * float(np.sum(norms**3)) / model.p,
        norm_means=(float(norms.sum()) / model.p, float(np.sum(norms**2)) / model.p),
        reach=(float(norms.max(initial=0.0)), float(np.abs(affine[-1]).max(initial=0.0))),
    )


def _workspace(rows: int, m: int):
    """The kernel's temporaries for blocks of up to ``rows`` rows: nine float
    and two boolean (rows x m) buffers, which a shard reuses throughout."""
    return np.empty((9, rows, m)), np.empty((2, rows, m), dtype=bool)


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
        floats, flags = (buf[:, : e - s] for buf in work)
        y = y_incl[rows[s:e]]
        if z is None:
            cells = [_pick(y, pair, out) for pair, out in zip(incl.origin, floats)]
        else:
            cells = _kernel(z1[s:e], y, incl.affine, floats, flags)
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


def _kernel(z1, y, affine, floats, flags):
    """Per-cell log-likelihood, x-derivative and observed curvature of a
    block: points ``z1`` (rows x d + 1, each z_i with a last coordinate of
    -1), data ``y`` (rows x components), and ``affine`` (``_Inclusion``).

    Cell (i, j) adds y log Phi(x) + (1 - y) log Phi(-x), x = bt_j . z_i - ct_j.
    With a = |x|, ``gaussian.std_normal_tail`` gives Phi(-a) to full
    relative precision, and log Phi(+-a) and the Mills ratios
    phi(a) / Phi(+-a) follow in log space.  Past a = 5, log phi(a) -
    log Phi(-a) loses relative precision (1e-11 at a = 1000) and past 37.5
    Phi(-a) underflows, so there ``gaussian.erfcx(a / sqrt 2)`` gives both.
    Everything stays exact and finite while a^2 does.

    The cell's observed curvature -d^2/dx^2 is m (m + a) on the large side,
    with m = phi(a) / Phi(a), and m (m - a) on the small side, with
    m = phi(a) / Phi(-a).  Weighted by each side's share of y it is the
    exact second derivative at fractional y as well.  The probit
    likelihood is log-concave, so both lie in [0, 1] and the Newton system
    is positive semidefinite.  m (m - a) cancels as a grows; for |x| <= 40
    it is accurate to about 1e-12 relative.

    Every (rows x components) temporary is written in place, with ``out=``,
    into the buffers ``floats`` (9 x rows x components) and ``flags``
    (2 x rows x components); the three results are views of them, and the
    Phi(-a) pass takes four of the float buffers as its work space before
    they hold anything else.  Each
    value takes the same floating-point operations in the same order as the
    plain expressions in the comments.  The product x is one ``einsum``
    that adds bt_1 z_1, ..., bt_d z_d and -ct in turn, not BLAS.  A cell's
    values depend only on its own x and y, so the cells that ``_evaluate``
    gathers from the origin table are those this would compute there.
    """
    x, tail, log_small, mills_small, log_large, mills_large, w, w_small, sign = floats
    neg, far = flags
    np.einsum("ik,kj->ij", z1, affine, out=x)  # bt . z - ct, in that order
    np.less(x, 0.0, out=neg)
    a = np.abs(x, out=x)
    std_normal_tail(a, out=tail, work=floats[2:6])  # Phi(-a)
    np.greater(a, _LOG_SPACE_MAX, out=far)
    any_far = far.any()
    if any_far:
        tail[far] = 0.5  # a placeholder that keeps the logs below finite
    np.log(tail, out=log_small)  # log Phi(-a)
    # phi(a) / Phi(-a) = exp(-a^2 / 2 - log sqrt(2 pi) - log Phi(-a))
    np.multiply(-0.5, a, out=mills_small)
    mills_small *= a
    mills_small -= _LOG_SQRT_2PI
    mills_small -= log_small
    np.exp(mills_small, out=mills_small)
    if any_far:
        a_far = a[far]
        ex = erfcx(a_far * _SQRT_HALF)  # 2 Phi(-a) exp(a^2 / 2)
        log_small[far] = np.log(0.5 * ex) - 0.5 * a_far * a_far
        mills_small[far] = _SQRT_2_OVER_PI / ex
        tail[far] = np.exp(log_small[far])
    np.log1p(np.negative(tail, out=log_large), out=log_large)  # log Phi(a)
    np.multiply(mills_small, tail, out=mills_large)
    mills_large /= np.subtract(1.0, tail, out=tail)  # phi(a) / Phi(a)

    # Weight of the large side, Phi(a), in the cell's likelihood: y where
    # x >= 0, 1 - y where x < 0.  w = |y - neg| stays a float weight, so
    # a fractional y weighs both sides.  (Mixed-type ufuncs with a bool
    # operand take several times as long, so neg is copied to floats once.)
    np.copyto(sign, neg)
    np.copyto(w, y)
    np.abs(np.subtract(w, sign, out=w), out=w)
    np.subtract(1.0, w, out=w_small)
    # ll = w log Phi(a) + (1 - w) log Phi(-a)
    log_large *= w
    log_large += np.multiply(w_small, log_small, out=log_small)
    w *= mills_large  # w m_L
    w_small *= mills_small  # (1 - w) m_S
    # dx = (w m_L - (1 - w) m_S) (1 - 2 neg): d|x|/dx = -1 where x < 0
    dx = np.subtract(w, w_small, out=tail)
    dx *= np.subtract(1.0, np.multiply(2.0, sign, out=sign), out=sign)
    # info = w m_L (m_L + a) + (1 - w) m_S (m_S - a)
    mills_large += a
    mills_large *= w
    mills_small -= a
    mills_small *= w_small
    info = np.add(mills_large, mills_small, out=mills_large)
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
    try:
        return np.linalg.solve(curv, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    # Some matrices are singular.  Their LU factorization, the one solve
    # uses, meets a zero pivot, so their determinant is exactly 0: ridge
    # those, and give a zero step to those with zero curvature.
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
