"""Monte Carlo laboratory: data generation, error metrics, replications.

A scenario fixes (d, p, n, reps, seed).  One true model is drawn per
scenario; each replication redraws the latent factors and noise, fits the
full pipeline, and records three error metrics: the maximum entrywise
correlation error, the loading-subspace discrepancy, and the median
per-sample reconstruction error.

Randomness is structured for common random numbers across scenarios that
share a seed: the true-model fields and the per-replication draws are
filled row-major from dedicated substreams, so the model for a smaller p
is the leading block of the model for a larger p (at equal d), and the
dataset for a smaller n is the leading rows of the dataset for a larger n.
Paired trend comparisons across the grid inherit this coupling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gaussian import bvn_upper_tail_batch, std_normal_cdf
from .moments import BinaryMatrix, TetrachoricMatrix, estimate_tetrachoric
from .parallel import map_slices
from .scores import LatentScores, ScoreConfig, estimate_scores, reconstruct
from .spectral import (
    FactorModel,
    fit_from_tetrachoric,
    leading_subspace,
    subspace_discrepancy,
    sym_eigen,
)


@dataclass(frozen=True)
class SimScenario:
    """One experiment configuration, checked on construction.

    The moments need p >= 2 columns and numpy needs a seed >= 0.
    """

    d: int
    p: int
    n: int
    reps: int
    seed: int

    def __post_init__(self):
        if self.d < 1 or self.p < max(self.d, 2) or self.n < 1 or self.reps < 1 or self.seed < 0:
            raise ValueError(
                f"invalid scenario: d={self.d}, p={self.p}, n={self.n}, "
                f"reps={self.reps}, seed={self.seed} "
                "(need d >= 1, p >= max(d, 2), n >= 1, reps >= 1, seed >= 0)"
            )

    @property
    def label(self) -> str:
        return f"d{self.d}_p{self.p}_n{self.n}"


@dataclass(frozen=True)
class TrueModel:
    """Ground-truth parameters used to generate binary data."""

    b: np.ndarray
    tau2: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class MetricsRecord:
    """Per-replication metric row."""

    scenario: str
    rep: int
    max_err: float
    subspace_d: float
    med_err: float
    tau_err: float
    timings: dict = field(default_factory=dict)
    error: str | None = None


def generate_true_model(scn: SimScenario, rng: np.random.Generator) -> TrueModel:
    """Draw loadings, noise variances and thresholds for a scenario.

    Loadings are uniform on (-1, 1), noise variances uniform on (0.2, 0.8),
    thresholds uniform on (-1, 1).  Each loading row is then rescaled to
    squared norm 1 - tau_j^2, so the latent continuous variables have
    exactly unit variance as the probit link requires.
    """
    beta_rng, tau_rng, c_rng = rng.spawn(3)
    b = beta_rng.uniform(-1.0, 1.0, size=(scn.p, scn.d))
    tau2 = tau_rng.uniform(0.2, 0.8, size=scn.p)
    c = c_rng.uniform(-1.0, 1.0, size=scn.p)
    norms = np.linalg.norm(b, axis=1)
    b = b * (np.sqrt(1.0 - tau2) / norms)[:, None]
    return TrueModel(b=b, tau2=tau2, c=c)


def generate_dataset(
    tm: TrueModel, n: int, rng: np.random.Generator
) -> tuple[BinaryMatrix, np.ndarray, np.ndarray]:
    """Binary observations from the model: returns (Y, true Z, latent e)."""
    d = tm.b.shape[1]
    z_rng, eps_rng = rng.spawn(2)
    z = z_rng.standard_normal((n, d))
    eps = eps_rng.standard_normal((n, tm.tau2.size)) * np.sqrt(tm.tau2)[None, :]
    e = z @ tm.b.T + eps
    y = BinaryMatrix((e > tm.c[None, :]).astype(np.uint8))
    return y, z, e


def population_sigma(tm: TrueModel) -> np.ndarray:
    """Exact correlation matrix of the latent continuous variables."""
    return tm.b @ tm.b.T + np.diag(tm.tau2)


def population_probabilities(tm: TrueModel) -> tuple[np.ndarray, np.ndarray]:
    """Exact marginal and pairwise success probabilities under the model."""
    sigma = population_sigma(tm)
    p_marg = np.asarray(std_normal_cdf(-tm.c), dtype=float)
    j1, j2 = np.triu_indices(tm.c.size, 1)
    p_joint = np.diag(p_marg)
    p_joint[j1, j2] = p_joint[j2, j1] = bvn_upper_tail_batch(tm.c[j1], tm.c[j2], sigma[j1, j2])
    return p_marg, p_joint


def population_subspace_discrepancy(tm: TrueModel) -> float:
    """Loading-subspace discrepancy computed from the exact correlation matrix."""
    d = tm.b.shape[1]
    basis = leading_subspace(sym_eigen(population_sigma(tm)), d)
    return subspace_discrepancy(tm.b, basis)


def metric_max_err(tetra: TetrachoricMatrix | np.ndarray, tm: TrueModel) -> float:
    """Worst entrywise error of the estimated correlations off the diagonal."""
    sigma_hat = tetra.sigma if isinstance(tetra, TetrachoricMatrix) else np.asarray(tetra)
    err = np.abs(sigma_hat - tm.b @ tm.b.T)
    np.fill_diagonal(err, 0.0)
    return float(err.max())


def metric_subspace(b_true: np.ndarray, sigma_d_hat: np.ndarray) -> float:
    """Discrepancy between the true loading span and an estimated basis."""
    return subspace_discrepancy(b_true, sigma_d_hat)


def metric_med_err(
    model: FactorModel,
    scores: LatentScores,
    tm: TrueModel,
    z_true: np.ndarray,
) -> float:
    """Median over samples of p^{-1/2} || b_hat z_hat_i - b z_i ||."""
    diff = reconstruct(model, scores) - z_true @ tm.b.T
    return float(np.median(np.linalg.norm(diff, axis=1))) / np.sqrt(model.p)


def run_replications(
    scn: SimScenario,
    score_config: ScoreConfig | None = None,
    threads: int = 1,
) -> list[MetricsRecord]:
    """Run every replication of a scenario and return its metric records.

    Replication r draws from a substream keyed by (seed, r), so results are
    identical regardless of ``threads``; the list is in replication order.
    Replications run on up to ``threads`` worker processes, each of which
    returns its records.  Each replication runs its kernels inline, with no
    workers of its own, and while the workers run OpenBLAS is held to one
    thread (see ``parallel``).
    A failing replication yields a record with NaN metrics and the error
    message, and the run continues, so the list always has ``scn.reps``
    records.
    """
    score_config = score_config or ScoreConfig()
    tm = generate_true_model(scn, np.random.default_rng([scn.seed, 0]))

    def one(s: slice) -> MetricsRecord:
        r = s.start
        try:
            return _run_one(scn, tm, r, score_config)
        except Exception as exc:  # noqa: BLE001 - per-replication isolation
            return MetricsRecord(
                scenario=scn.label,
                rep=r,
                max_err=float("nan"),
                subspace_d=float("nan"),
                med_err=float("nan"),
                tau_err=float("nan"),
                error=f"{type(exc).__name__}: {exc}",
            )

    return map_slices(one, scn.reps, 1, threads)


def _run_one(
    scn: SimScenario, tm: TrueModel, r: int, score_config: ScoreConfig
) -> MetricsRecord:
    rng = np.random.default_rng([scn.seed, 1, r])
    t0 = time.perf_counter()
    y, z_true, _ = generate_dataset(tm, scn.n, rng)
    t1 = time.perf_counter()
    ms, tetra = estimate_tetrachoric(y)
    t2 = time.perf_counter()
    model = fit_from_tetrachoric(ms, tetra, scn.d, meta={"n": scn.n})
    basis = leading_subspace(sym_eigen(tetra.sigma), scn.d)
    t3 = time.perf_counter()
    scores = estimate_scores(y, model, score_config)
    t4 = time.perf_counter()
    return MetricsRecord(
        scenario=scn.label,
        rep=r,
        max_err=metric_max_err(tetra, tm),
        subspace_d=metric_subspace(tm.b, basis),
        med_err=metric_med_err(model, scores, tm, z_true),
        tau_err=float(np.mean(np.abs(model.tau2_hat - tm.tau2))),
        timings={
            "t_generate": t1 - t0,
            "t_tetrachoric": t2 - t1,
            "t_spectral": t3 - t2,
            "t_scores": t4 - t3,
        },
    )
