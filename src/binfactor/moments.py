"""Moment estimation: binary data to thresholds and tetrachoric correlations.

For a 0/1 data matrix the column means estimate the marginal success
probabilities, whose normal quantiles give the probit thresholds
``c_j = -Phi^{-1}(P_j)``.  Each pairwise joint success frequency is then
inverted through the bivariate upper tail probability at those thresholds,
producing the tetrachoric correlation estimate ``sigma_{j1,j2}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import std_normal_quantile, tetrachoric_invert_batch

# Rows per block of the joint counts: a float32 sum of at most 2**24 0/1
# products is an exact integer.
_BLOCK_ROWS = 2**24


@dataclass(frozen=True)
class BinaryMatrix:
    """An n x p matrix of {0, 1} observations (rows are samples)."""

    data: np.ndarray
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        n, p = data.shape
        if n < 1 or p < 2:
            raise ValueError(f"need n >= 1 and p >= 2, got n={n}, p={p}")
        # A uint8 entry cannot be negative, so its largest one tells.
        binary = data.max() <= 1 if data.dtype == np.uint8 else np.isin(data, (0, 1)).all()
        if not binary:
            raise ValueError("entries must all be exactly 0 or 1")
        object.__setattr__(self, "data", np.ascontiguousarray(data, dtype=np.uint8))
        if self.column_names is not None:
            names = tuple(self.column_names)
            if len(names) != p:
                raise ValueError(f"{len(names)} column names for {p} columns")
            object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MarginalSummary:
    """Marginal frequencies and the thresholds derived from them.

    ``c_hat[j] = -Phi^{-1}(clamped p_hat[j])``; ``clamp_count`` is the
    number of frequencies that had to be pulled into the open interval to
    keep the thresholds finite.
    """

    p_hat: np.ndarray
    c_hat: np.ndarray
    clamp_count: int


@dataclass(frozen=True)
class TetrachoricMatrix:
    """Symmetric correlation estimate with unit diagonal.

    ``clamp_flags`` holds the (j1, j2) pairs (j1 < j2) whose correlation
    was clamped to ``+-(1 - RHO_CLAMP)``: their joint frequency fell on or
    outside the attainable bracket, or its root lay closer to +-1 than
    the clamp value.
    """

    sigma: np.ndarray
    clamp_flags: frozenset = field(default_factory=frozenset)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]


def marginal_frequencies(y: BinaryMatrix) -> np.ndarray:
    """Column means of the binary matrix: the estimated P(Y_j = 1)."""
    return y.data.mean(axis=0, dtype=np.float64)


def thresholds(p_hat: np.ndarray, n: int | None) -> MarginalSummary:
    """Probit thresholds from marginal frequencies.

    With a sample size n, frequencies are clamped into [1/(2n), 1 - 1/(2n)]
    first: a degenerate all-zero or all-one column would otherwise give an
    infinite threshold.  With ``n=None`` nothing is clamped, and a
    frequency of 0 or 1 is an error.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    if np.any((p_hat < 0.0) | (p_hat > 1.0)):
        raise ValueError("frequencies must lie in [0, 1]")
    if n is None:
        clamped = p_hat  # the quantile rejects 0 and 1
    elif n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    else:
        lo = 1.0 / (2.0 * n)
        clamped = np.clip(p_hat, lo, 1.0 - lo)
    clamp_count = int(np.count_nonzero(clamped != p_hat))
    c_hat = -std_normal_quantile(clamped)
    return MarginalSummary(p_hat.copy(), np.asarray(c_hat, dtype=float), clamp_count)


def joint_frequency_matrix(y: BinaryMatrix) -> np.ndarray:
    """All pairwise joint frequencies at once (diagonal holds marginals).

    Exact float32 counts of row blocks are summed in float64: the bits of a
    float64 product, from a copy of Y half its size.
    """
    counts = np.zeros((y.p, y.p))
    for start in range(0, y.n, _BLOCK_ROWS):
        x = y.data[start : start + _BLOCK_ROWS].astype(np.float32)
        counts += x.T @ x
    return counts / y.n


def estimate_tetrachoric(
    y: BinaryMatrix, threads: int = 1
) -> tuple[MarginalSummary, TetrachoricMatrix]:
    """Full moment pipeline: frequencies, thresholds, pairwise inversion.

    Y is read once, by ``joint_frequency_matrix``: the marginals are its
    diagonal, the same exact counts over n as ``marginal_frequencies``,
    so bit for bit equal to it.  Every unordered column pair is inverted
    independently, so the result does not depend on evaluation order or
    on ``threads``; row permutations of the input leave it unchanged.
    """
    joint = joint_frequency_matrix(y)
    return tetrachoric_from_probabilities(np.diag(joint), joint, y.n, threads)


def tetrachoric_from_probabilities(
    p_marginal: np.ndarray,
    p_joint: np.ndarray,
    n: int | None = None,
    threads: int = 1,
) -> tuple[MarginalSummary, TetrachoricMatrix]:
    """Run the estimator on externally supplied probabilities.

    With exact population probabilities this recovers the true correlation
    matrix up to root-finder tolerance.  ``n`` enables the finite-sample
    frequency clamp of ``thresholds``; without it the marginals must lie
    strictly in (0, 1).  The pairs are inverted on up to ``threads``
    worker processes.
    """
    p_marginal = np.asarray(p_marginal, dtype=float)
    p_joint = np.asarray(p_joint, dtype=float)
    if p_joint.shape != (p_marginal.size, p_marginal.size):
        raise ValueError(
            f"joint matrix shape {p_joint.shape} does not match "
            f"{p_marginal.size} marginals"
        )
    ms = thresholds(p_marginal, n)
    return ms, _invert_joint_matrix(ms.c_hat, p_joint, threads)


def _invert_joint_matrix(c_hat: np.ndarray, joint: np.ndarray, threads: int) -> TetrachoricMatrix:
    """Invert every pair j1 < j2 of the upper triangle in one batched call."""
    p = c_hat.size
    j1, j2 = np.triu_indices(p, 1)
    rho, _, clamped = tetrachoric_invert_batch(c_hat[j1], c_hat[j2], joint[j1, j2], threads)
    sigma = np.eye(p)
    sigma[j1, j2] = sigma[j2, j1] = rho
    flagged = zip(j1[clamped].tolist(), j2[clamped].tolist())
    return TetrachoricMatrix(sigma, frozenset(flagged))
