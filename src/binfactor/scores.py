"""Per-sample latent factor estimation by restricted probit likelihood.

Each sample's latent position maximizes the probit log-likelihood over the
fitted model, restricted to components whose noise standard deviation
exceeds a threshold picked so that m% of components participate (small
noise variances otherwise destabilize the objective).  The objective is
globally concave, so a damped Newton ascent with the Fisher information as
curvature, started from the origin, finds the maximizer; rows are
independent and optimized simultaneously.

One pass per trial point and cell gives the log-likelihood, gradient and
Fisher information together, in log space and with no probability floor,
over blocks of 1024 rows.  The ascent keeps them for each accepted point,
and retires a row whose step leaves it in place (a stalled row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr

from .moments import BinaryMatrix
from .spectral import FactorModel

_ALPHA_MIN = 1e-12  # smallest step-halving factor before a step is abandoned

# Rows per kernel pass: its ~15 (components x rows) temporaries stay at a
# few megabytes whatever n is.
_BLOCK_ROWS = 1024
_LOG_SPACE_MAX = 5.0  # |x| past which the kernel's tail values use erfcx

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class ScoreConfig:
    """Scoring options: inclusion percentage, stopping rule, optional box."""

    m_percent: float = 90.0
    grad_tol: float = 1e-8
    max_iter: int = 100
    z_max: float | None = None

    def __post_init__(self):
        if not 0.0 < self.m_percent <= 100.0:
            raise ValueError(f"m_percent must be in (0, 100], got {self.m_percent}")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class LatentScores:
    """Estimated factors with per-sample convergence records."""

    z_hat: np.ndarray
    iterations: np.ndarray
    grad_norms: np.ndarray
    converged: np.ndarray
    ll_path: list | None = None

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


def restricted_loglik(
    z: np.ndarray, model: FactorModel, tau: float, y_row: np.ndarray
) -> float:
    """Restricted probit log-likelihood of one sample at latent position z."""
    return float(_single_row(z, model, tau, y_row)[0])


def loglik_gradient(
    z: np.ndarray, model: FactorModel, tau: float, y_row: np.ndarray
) -> np.ndarray:
    """Gradient of the restricted log-likelihood in z."""
    return _single_row(z, model, tau, y_row)[1]


def fisher_information(z: np.ndarray, model: FactorModel, tau: float) -> np.ndarray:
    """Fisher information of the restricted likelihood at z (d x d, PSD)."""
    # The information does not depend on the observed row.
    return _single_row(z, model, tau, np.zeros(model.p))[2]


def estimate_scores(
    y: BinaryMatrix,
    model: FactorModel,
    cfg: ScoreConfig | None = None,
    z0: np.ndarray | None = None,
    record_path: bool = False,
) -> LatentScores:
    """Estimate the latent factors of every sample.

    Damped Newton ascent with Fisher scoring: the step solves the Fisher
    system and is halved until the likelihood does not decrease, so the
    per-row likelihood path is non-decreasing.  A row stops once its
    gradient norm falls below ``cfg.grad_tol`` or after ``cfg.max_iter``
    steps.  A row whose step leaves it in place (halving found no better
    point) stops too, since every later step would repeat it; it keeps
    ``converged=False``, its gradient norm and the steps it took.  Rows are
    independent; the result does not depend on their order.
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

    if not incl.mask.any():
        # Nothing to fit against: the start point is already stationary.
        return LatentScores(
            z_hat=z,
            iterations=np.zeros(n, dtype=int),
            grad_norms=np.zeros(n),
            converged=np.ones(n, dtype=bool),
            ll_path=[np.zeros(n)] if record_path else None,
        )

    y_incl = y.data[:, incl.mask]
    iters = np.zeros(n, dtype=int)
    gnorm = np.zeros(n)
    conv = np.zeros(n, dtype=bool)
    active = np.arange(n)
    # The log-likelihood, gradient and information of each row's current point.
    ll, g, fisher = _evaluate(z, y_incl, active, incl, model.p)
    path = [ll.copy()] if record_path else None

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

        step = _solve_steps(fisher[active], g[active])
        z_cur = z[active]

        # Step halving until the likelihood does not decrease, per row.  A
        # row that never finds such a point keeps its position.
        alpha = 1.0
        trial = np.arange(active.size)
        while True:
            rows = active[trial]
            z_try = _candidate(z_cur[trial], step[trial], alpha, cfg.z_max)
            ll_try, g_try, f_try = _evaluate(z_try, y_incl, rows, incl, model.p)
            ok = ll_try >= ll[rows]
            z[rows[ok]] = z_try[ok]
            ll[rows[ok]], g[rows[ok]], fisher[rows[ok]] = ll_try[ok], g_try[ok], f_try[ok]
            trial = trial[~ok]
            if trial.size == 0 or alpha <= _ALPHA_MIN:
                break
            alpha *= 0.5

        iters[active] = steps
        stalled = np.all(z[active] == z_cur, axis=1)
        gnorm[active[stalled]] = gn[stalled]
        active = active[~stalled]
        if record_path:
            path.append(ll.copy())

    return LatentScores(
        z_hat=z,
        iterations=iters,
        grad_norms=gnorm,
        converged=conv,
        ll_path=path,
    )


def reconstruct(model: FactorModel, scores: LatentScores) -> np.ndarray:
    """Per-sample reconstructions: row i is b_hat @ z_i."""
    return scores.z_hat @ model.b_hat.T


@dataclass(frozen=True)
class _Inclusion:
    """Included components in noise units: ``bt[k]`` holds factor k's
    loadings over the noise scales and ``ct`` the thresholds, as (m, 1)
    columns."""

    mask: np.ndarray
    bt: np.ndarray
    ct: np.ndarray


def _inclusion(model: FactorModel, tau: float) -> _Inclusion:
    tau_sd = np.sqrt(np.maximum(model.tau2_hat, 0.0))
    # A component with zero noise scale has a degenerate probit; it can
    # only pass the indicator when tau < 0, which the threshold rule never
    # produces for usable variances, so it is excluded outright.
    mask = (tau_sd > tau) & (tau_sd > 0.0)
    scale = tau_sd[mask, None]
    return _Inclusion(
        mask=mask,
        bt=(model.b_hat[mask] / scale).T[:, :, None].copy(),
        ct=model.c_hat[mask, None] / scale,
    )


def _single_row(z, model, tau, y_row):
    """Check one sample's arguments; return its (ll, gradient, information)."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != model.d:
        raise ValueError(f"z has length {z.size}, model has d={model.d}")
    y_row = np.asarray(y_row, dtype=float).reshape(-1)
    if y_row.size != model.p:
        raise ValueError(f"y_row has length {y_row.size}, model has p={model.p}")
    incl = _inclusion(model, tau)
    if not incl.mask.any():
        return 0.0, np.zeros(model.d), np.zeros((model.d, model.d))
    ll, g, fisher = _evaluate(
        z[None, :], y_row[None, incl.mask], np.zeros(1, dtype=np.intp), incl, model.p
    )
    return ll[0], g[0], fisher[0]


def _evaluate(z, y_incl, rows, incl: _Inclusion, p: int):
    """Log-likelihood, gradient and Fisher information at trial points z.

    ``z[i]`` is the trial point of the sample in row ``rows[i]`` of
    ``y_incl`` (samples x included components).  Returns arrays of shape
    (n,), (n, d) and (n, d, d), computed in blocks of rows; a row's values
    depend only on its own point and data, not on the block it is in.
    """
    n, d = z.shape
    ll = np.empty(n)
    g = np.empty((n, d))
    fisher = np.empty((n, d, d))
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        zt = np.ascontiguousarray(z[s:e].T)
        ll[s:e], g[s:e], fisher[s:e] = _kernel(zt, y_incl[rows[s:e]].T, incl)
    return ll / p, g / p, fisher / p


def _kernel(zt, y, incl: _Inclusion):
    """Unscaled sums over components for a block: points ``zt`` (d x rows),
    data ``y`` (components x rows).

    Cell (j, i) adds y log Phi(x) + (1 - y) log Phi(-x), x = bt_j . z_i - ct_j.
    With a = |x|, ``ndtr(-a)`` gives Phi(-a) to full relative precision
    (``log_ndtr`` agrees to a few ulps at twice the cost), and log Phi(+-a)
    and the Mills ratios phi(a) / Phi(+-a) follow in log space.  Past
    a = 5, log phi(a) - log Phi(-a) loses relative precision (1e-11 at
    a = 1000) and past 37.5 Phi(-a) underflows, so there erfcx(a / sqrt 2)
    gives both.  Everything stays exact and finite while a^2 does.  The
    sums are written out, not left to BLAS, so that a row's bits do not
    depend on its block.
    """
    d = zt.shape[0]
    x = incl.bt[0] * zt[0]
    for k in range(1, d):
        x += incl.bt[k] * zt[k]
    x -= incl.ct
    neg = x < 0.0
    a = np.abs(x)
    tail = ndtr(-a)  # Phi(-a)
    far = a > _LOG_SPACE_MAX
    any_far = far.any()
    if any_far:
        tail[far] = 0.5  # a placeholder that keeps the logs below finite
    log_small = np.log(tail)  # log Phi(-a)
    mills_small = np.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_small)  # phi(a) / Phi(-a)
    if any_far:
        a_far = a[far]
        ex = erfcx(a_far * _SQRT_HALF)  # 2 Phi(-a) exp(a^2 / 2)
        log_small[far] = np.log(0.5 * ex) - 0.5 * a_far * a_far
        mills_small[far] = _SQRT_2_OVER_PI / ex
        tail[far] = np.exp(log_small[far])
    log_large = np.log1p(-tail)  # log Phi(a)
    mills_large = mills_small * tail / (1.0 - tail)  # phi(a) / Phi(a)

    # Weight of the large side, Phi(a), in the cell's likelihood: y where
    # x >= 0, 1 - y where x < 0.
    w = np.abs(np.subtract(y, neg, dtype=np.float64))
    w_small = 1.0 - w
    ll = _column_sums(w * log_large + w_small * log_small)
    dx = (w * mills_large - w_small * mills_small) * (1.0 - 2.0 * neg)
    info = mills_small * mills_large
    g = np.empty((zt.shape[1], d))
    fisher = np.empty((zt.shape[1], d, d))
    for k in range(d):
        g[:, k] = _column_sums(dx * incl.bt[k])
        for l in range(k + 1):
            fisher[:, k, l] = fisher[:, l, k] = _column_sums(info * (incl.bt[k] * incl.bt[l]))
    return ll, g, fisher


def _column_sums(v):
    """Sums over the first axis, folded pairwise: this rounds less than a
    running sum, and unlike ``v.sum(axis=0)`` it adds every column in the
    same order, a single column included."""
    while len(v) > 1:
        half = len(v) // 2
        folded = v[:half] + v[half : 2 * half]
        if len(v) % 2:
            folded[-1] += v[-1]
        v = folded
    return v[0]


def _solve_steps(fisher: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(fisher, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    # Some matrices are singular.  Their LU factorization, the one solve
    # uses, meets a zero pivot, so their determinant is exactly 0: ridge
    # those, and give a zero step to those with no information at all.
    d = g.shape[1]
    trace = np.trace(fisher, axis1=1, axis2=2)
    singular = np.linalg.det(fisher) == 0.0
    empty = singular & (trace <= 0.0)
    regularized = fisher.copy()
    regularized[singular] += (1e-8 * trace[singular] / d)[:, None, None] * np.eye(d)
    regularized[empty] = np.eye(d)
    step = np.linalg.solve(regularized, g[..., None])[..., 0]
    step[empty] = 0.0
    return step


def _candidate(z, step, alpha, z_max):
    z_new = z + alpha * step
    if z_max is not None:
        norms = np.linalg.norm(z_new, axis=1)
        over = norms > z_max
        if over.any():
            z_new[over] *= (z_max / norms[over])[:, None]
    return z_new
