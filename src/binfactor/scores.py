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
blocks of 1024 rows; each row is summed along its own contiguous
components, so its bits do not depend on the block.  The pass writes its
temporaries into buffers that its shard allocates once.  At the origin a
cell takes one of two values per column, so the first evaluation of an
ascent from there gathers them from a table.  The ascent keeps the values
for each accepted point, and retires a row whose step leaves it in place (a
stalled row).  Rows are cut into fixed shards of 8192; each shard runs its
whole ascent on its own, on up to ``threads`` threads, and a row's steps
are its own, so the scores are bitwise the same at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr

from .moments import BinaryMatrix
from .parallel import map_slices
from .spectral import FactorModel

_ALPHA_MIN = 1e-12  # smallest step-halving factor before a step is abandoned

# Rows per kernel pass: its eleven (rows x components) buffers stay at a
# few megabytes whatever n is.
_BLOCK_ROWS = 1024
# Rows per shard, the unit of the scoring threads: each shard runs its own
# whole ascent, so the threads share no per-step barrier.
_SHARD_ROWS = 8192
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
    """Estimated factors with per-sample convergence records."""

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
    ``cfg.max_iter`` steps.  A row whose step leaves it in place (halving found no better
    point) stops too, since every later step would repeat it; it keeps
    ``converged=False``, its gradient norm and the steps it took.  Rows are
    independent; the result does not depend on their order or on
    ``threads``, the number of threads that run the row shards.

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
    shards = map_slices(
        lambda s: _ascend(z[s], y_incl[s], incl, model.p, cfg, z0 is None),
        n, _SHARD_ROWS, threads,
    )
    iters, gnorm, conv = (np.concatenate(records) for records in zip(*shards))
    return LatentScores(z_hat=z, iterations=iters, grad_norms=gnorm, converged=conv)


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
    work = _workspace(min(n, _BLOCK_ROWS), incl.ct.size)
    # The log-likelihood, gradient and curvature of each row's current point.
    if at_origin:
        ll, g, curv = _evaluate_origin(y_incl, incl, p, work)
    else:
        ll, g, curv = _evaluate(z, y_incl, active, incl, p, work)

    steps = 0
    while active.size:
        gn = np.linalg.norm(g[active], axis=1)
        done = gn <= cfg.grad_tol
        gnorm[active[done]] = gn[done]
        conv[active[done]] = True
        active, gn = active[~done], gn[~done]
        if active.size == 0:
            break
        if steps >= cfg.max_iter:
            gnorm[active] = gn
            break
        steps += 1

        step = _solve_steps(curv[active], g[active])
        z_cur = z[active]

        # Step halving until the likelihood does not decrease, per row.  A
        # row that never finds such a point keeps its position.
        alpha = 1.0
        trial = np.arange(active.size)
        while True:
            rows = active[trial]
            z_try = z_cur[trial] + alpha * step[trial]
            ll_try, g_try, curv_try = _evaluate(z_try, y_incl, rows, incl, p, work)
            ok = ll_try >= ll[rows]
            z[rows[ok]] = z_try[ok]
            ll[rows[ok]], g[rows[ok]], curv[rows[ok]] = ll_try[ok], g_try[ok], curv_try[ok]
            trial = trial[~ok]
            if trial.size == 0 or alpha <= _ALPHA_MIN:
                break
            alpha *= 0.5

        iters[active] = steps
        stalled = np.all(z[active] == z_cur, axis=1)
        gnorm[active[stalled]] = gn[stalled]
        active = active[~stalled]
    return iters, gnorm, conv


@dataclass(frozen=True)
class _Inclusion:
    """Included components in noise units: ``bt`` (d x m) holds the
    loadings over the noise scales and ``ct`` (m,) the thresholds."""

    mask: np.ndarray
    bt: np.ndarray
    ct: np.ndarray


def _inclusion(model: FactorModel, tau: float) -> _Inclusion:
    tau_sd = np.sqrt(np.maximum(model.tau2_hat, 0.0))
    # A component with zero noise scale has a degenerate probit; it can
    # only pass the indicator when tau < 0, which the threshold rule never
    # produces for usable variances, so it is excluded outright.
    mask = (tau_sd > tau) & (tau_sd > 0.0)
    scale = tau_sd[mask]
    return _Inclusion(
        mask=mask,
        bt=(model.b_hat[mask] / scale[:, None]).T.copy(),
        ct=model.c_hat[mask] / scale,
    )


def _workspace(rows: int, m: int):
    """The kernel's temporaries for blocks of up to ``rows`` rows: nine float
    and two boolean (rows x m) buffers, which a shard reuses throughout."""
    return np.empty((9, rows, m)), np.empty((2, rows, m), dtype=bool)


def _evaluate(z, y_incl, rows, incl: _Inclusion, p: int, work=None):
    """Log-likelihood, gradient and curvature -d^2 ll / dz^2 at trial points z.

    ``z[i]`` is the trial point of the sample in row ``rows[i]`` of
    ``y_incl`` (samples x included components).  Returns arrays of shape
    (n,), (n, d) and (n, d, d), computed in blocks of rows; a row's values
    depend only on its own point and data, not on the block it is in.
    """
    work = work or _workspace(min(len(z), _BLOCK_ROWS), incl.ct.size)
    return _by_blocks(
        len(z), incl, p, work,
        lambda s, e, floats, flags: _kernel(z[s:e], y_incl[rows[s:e]], incl, floats, flags),
    )


def _evaluate_origin(y_incl, incl: _Inclusion, p: int, work):
    """``_evaluate`` with every row of ``y_incl`` at z = 0, by table lookup.

    There x = -ct in every row, so each cell's (ll, dx, curvature) is one
    of two values per column, picked by y.  The kernel's own cell code
    gives the two, and each block gathers them into C-ordered buffers
    before the same row sums, so every bit equals ``_evaluate``'s.
    """
    d, m = incl.bt.shape
    both = np.repeat(np.arange(2, dtype=np.uint8)[:, None], m, axis=1)
    table = [c.copy() for c in _kernel(np.zeros((2, d)), both, incl, *_workspace(2, m))]
    return _by_blocks(
        len(y_incl), incl, p, work,
        lambda s, e, floats, flags: [
            _pick(y_incl[s:e], pair, out) for pair, out in zip(table, floats[1:])
        ],
    )


def _by_blocks(n: int, incl: _Inclusion, p: int, work, cells):
    """Row sums over p of ``cells(s, e, floats, flags)``, block by block.

    ``cells`` returns the (ll, dx, curvature) cells of rows s:e, written
    into the block's buffers other than ``floats[0]``, the row sums' own.
    """
    d = incl.bt.shape[0]
    ll = np.empty(n)
    g = np.empty((n, d))
    curv = np.empty((n, d, d))
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        floats, flags = (buf[:, : e - s] for buf in work)
        ll[s:e], g[s:e], curv[s:e] = _row_sums(*cells(s, e, floats, flags), incl.bt, floats[0])
    return ll / p, g / p, curv / p


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


def _kernel(z, y, incl: _Inclusion, floats, flags):
    """Per-cell log-likelihood, x-derivative and observed curvature of a
    block: points ``z`` (rows x d), data ``y`` (rows x components).

    Cell (i, j) adds y log Phi(x) + (1 - y) log Phi(-x), x = bt_j . z_i - ct_j.
    With a = |x|, ``ndtr(-a)`` gives Phi(-a) to full relative precision
    (``log_ndtr`` agrees to a few ulps at twice the cost), and log Phi(+-a)
    and the Mills ratios phi(a) / Phi(+-a) follow in log space.  Past
    a = 5, log phi(a) - log Phi(-a) loses relative precision (1e-11 at
    a = 1000) and past 37.5 Phi(-a) underflows, so there erfcx(a / sqrt 2)
    gives both.  Everything stays exact and finite while a^2 does.

    The cell's observed curvature -d^2/dx^2 is m (m + a) on the large side,
    with m = phi(a) / Phi(a), and m (m - a) on the small side, with
    m = phi(a) / Phi(-a).  Weighted by each side's share of y it is the
    exact second derivative at fractional y as well.  The probit
    likelihood is log-concave, so both lie in [0, 1] and the Newton system
    is positive semidefinite.  m (m - a) cancels as a grows; for |x| <= 40
    it is accurate to about 1e-12 relative.

    Every (rows x components) temporary is written in place, with ``out=``,
    into the buffers ``floats`` (9 x rows x components) and ``flags``
    (2 x rows x components); the three results are views of them.  Each
    value takes the same floating-point operations in the same order as the
    plain expressions in the comments.  The product x is written out, not
    left to BLAS.  A cell's values depend only on its own x and y, which
    ``_evaluate_origin`` relies on.
    """
    d = z.shape[1]
    x, tail, log_small, mills_small, log_large, mills_large, w, w_small, sign = floats
    neg, far = flags
    np.multiply(z[:, 0:1], incl.bt[0], out=x)
    for k in range(1, d):
        x += np.multiply(z[:, k : k + 1], incl.bt[k], out=tail)
    x -= incl.ct
    np.less(x, 0.0, out=neg)
    a = np.abs(x, out=x)
    ndtr(np.negative(a, out=tail), out=tail)  # Phi(-a)
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


def _row_sums(ll_cells, dx, info, bt, tmp):
    """Each row's sums of the cells: ll, gradient and curvature (d x d).

    Each row is summed along its own contiguous components, so its bits do
    not depend on the block; ``tmp`` is a spare buffer of the cells' shape.
    """
    rows, d = len(ll_cells), bt.shape[0]
    g = np.empty((rows, d))
    curv = np.empty((rows, d, d))
    for k in range(d):
        g[:, k] = np.multiply(dx, bt[k], out=tmp).sum(axis=1)
        for l in range(k + 1):
            curv[:, k, l] = curv[:, l, k] = np.multiply(info, bt[k] * bt[l], out=tmp).sum(axis=1)
    return ll_cells.sum(axis=1), g, curv


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
