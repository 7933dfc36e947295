"""Correctness checks and accuracy figures computed from binfactor's outputs.

Every check raises ``CheckFailed``; the benchmark then exits with an error
instead of printing figures.  Only numpy, scipy and the standard library are
used here, so the checks do not depend on the code under test.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.stats import multivariate_normal

# scipy's bivariate normal and binfactor's tail integral agree to about
# 1e-16; the inversion stops once its bracket is below 1e-10 in rho, which
# moves the tail probability by less than 1e-10.
TAIL_TOL = 1e-9

# A scored row that stopped at max_iter with its gradient norm below this is
# at its optimum to rounding: its last steps gain less likelihood than the
# likelihood's rounding, so the line search refuses them and the norm stays
# just above the 1e-8 tolerance.  A row stopped above this bound failed.
STALL_GRAD = 1e-6

METRICS_HEADER = "scenario,rep,max_err,subspace_d,med_err,tau_err,error"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def sample_pairs(p: int, clamped, k: int, seed: int) -> list[tuple[int, int]]:
    """A fixed seeded sample of at most k column pairs j1 < j2 not in ``clamped``."""
    j1, j2 = np.triu_indices(p, 1)
    keep = [(int(a), int(b)) for a, b in zip(j1, j2) if (a, b) not in clamped]
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(keep), size=min(k, len(keep)), replace=False)
    return [keep[i] for i in sorted(picked)]


def check_tetrachoric(sigma, c, joint, pairs) -> float:
    """Check that the bivariate normal upper tail at each sampled correlation
    reproduces the joint frequency it was inverted from; return the worst gap.
    """
    sigma = np.asarray(sigma)
    if not np.array_equal(sigma, sigma.T) or not np.all(np.diag(sigma) == 1.0):
        raise CheckFailed("correlation matrix is not symmetric with unit diagonal")
    off = sigma[~np.eye(sigma.shape[0], dtype=bool)]
    if not np.all(np.abs(off) < 1.0):
        raise CheckFailed("a correlation lies outside (-1, 1)")
    worst = 0.0
    for j1, j2 in pairs:
        rho = sigma[j1, j2]
        tail = multivariate_normal.cdf([-c[j1], -c[j2]], cov=[[1.0, rho], [rho, 1.0]])
        gap = abs(float(tail) - joint[j1, j2])
        if not gap <= TAIL_TOL:
            raise CheckFailed(
                f"pair ({j1}, {j2}): upper tail at rho={rho!r} is {tail!r}, "
                f"joint frequency is {joint[j1, j2]!r} (gap {gap:.3e} > {TAIL_TOL:g})"
            )
        worst = max(worst, gap)
    return worst


def read_scores(text: str, n: int, d: int) -> np.ndarray:
    """Parse a scores CSV and check it has a header and n rows of d + 3 values."""
    header = [f"z_{k + 1}" for k in range(d)] + ["iterations", "grad_norm", "converged"]
    lines = text.split("\n")
    if lines[0] != ",".join(header):
        raise CheckFailed(f"scores header is {lines[0]!r}")
    if lines[-1] != "" or len(lines) != n + 2:
        raise CheckFailed(f"scores file has {len(lines) - 2} complete rows, expected {n}")
    try:
        table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"scores file does not parse: {exc}") from exc
    if table.shape != (n, d + 3):
        raise CheckFailed(f"scores table has shape {table.shape}, expected {(n, d + 3)}")
    if not np.all(np.isfinite(table)) or not np.all(np.isin(table[:, -1], (0.0, 1.0))):
        raise CheckFailed("scores table holds a non-finite value or a bad converged flag")
    return table


def failed_rows(table: np.ndarray) -> int:
    """Rows of a parsed scores table that stopped short of their optimum."""
    return int(np.count_nonzero((table[:, -1] == 0.0) & (table[:, -2] > STALL_GRAD)))


def read_metrics(text: str, rows: int) -> list[dict]:
    """Parse a simulate metrics CSV; check its layout and that no replication failed."""
    if text.split("\n", 1)[0] != METRICS_HEADER:
        raise CheckFailed(f"metrics header is {text.split(chr(10), 1)[0]!r}")
    records = list(csv.DictReader(io.StringIO(text)))
    if len(records) != rows:
        raise CheckFailed(f"metrics file has {len(records)} rows, expected {rows}")
    failed = [r for r in records if r["error"]]
    if failed:
        raise CheckFailed(f"{len(failed)} replications failed, first: {failed[0]['error']}")
    return records


def check_same_bytes(name: str, got: bytes, reference: bytes) -> None:
    if got != reference:
        raise CheckFailed(f"{name} differs from the reference output")


def sigma_errors(sigma: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """99th percentile and maximum of the off-diagonal |sigma_hat - B B^T|.

    The maximum is set by the one or two pairs whose joint frequency hit the
    bracket and were clamped, so it moves by a third between seeds; the
    99th percentile moves by a few percent and is the figure compared.
    """
    err = np.abs(sigma - b @ b.T)[np.triu_indices(b.shape[0], 1)]
    return float(np.quantile(err, 0.99)), float(err.max())


def recon_med_err(b_hat: np.ndarray, z_hat: np.ndarray, b: np.ndarray, z: np.ndarray) -> float:
    """Median over samples of p^{-1/2} || B_hat z_hat_i - B z_i ||."""
    diff = z_hat @ b_hat.T - z @ b.T
    return float(np.median(np.linalg.norm(diff, axis=1)) / np.sqrt(b.shape[0]))
