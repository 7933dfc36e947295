"""Spectral machinery: eigendecomposition, loading subspace, noise variances.

The estimated correlation matrix is decomposed symmetrically; the leading
eigenvectors span the loading subspace, the loading matrix is the basis
scaled by square-rooted leading eigenvalues, and the noise variances are
the diagonal of the correlation matrix projected onto the orthogonal
complement.  Subspace quality is measured by the squared Frobenius
distance between projection matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .moments import BinaryMatrix, MarginalSummary, TetrachoricMatrix, estimate_tetrachoric

TAU2_FLOOR = 1e-10
EIGENGAP_WARN = 1e-8


class EigengapWarning(UserWarning):
    """Raised when the retained/discarded eigenvalue gap is near-degenerate."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class FactorModel:
    """Fitted parameters of the binary latent factor model.

    ``b_hat`` has mutually orthogonal columns (scaled eigenvectors); its
    column span is only identified as a subspace, so entrywise values are a
    chosen representative.  ``meta`` carries fit bookkeeping for
    persistence: ``n``, the sample size, where the caller gives it;
    ``marginal_clamps`` and ``pair_clamps``, the clamped marginal
    frequencies and correlation pairs; ``tau2_floored``, the noise
    variances raised to ``TAU2_FLOOR``; and ``negative_eigvals``, how many
    of the d retained eigenvalues are below 0.  That is not the count of
    Sigma-hat's negative eigenvalues, which can run to hundreds at
    p = 1000.
    """

    d: int
    p: int
    c_hat: np.ndarray
    b_hat: np.ndarray
    tau2_hat: np.ndarray
    eigvals: np.ndarray
    meta: dict = field(default_factory=dict)


def sym_eigen(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(values[::-1].copy(), vectors[:, ::-1].copy())


def sign_normalize(basis: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Ties break toward the lowest row index; the spanned subspace is
    unchanged and the operation is idempotent.
    """
    basis = np.asarray(basis, dtype=float)
    out = basis.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        lead = col[np.argmax(np.abs(col))]
        if lead < 0.0:
            out[:, k] = -col
    return out


def leading_subspace(e: EigenDecomposition, d: int) -> np.ndarray:
    """First d eigenvectors, sign-normalized.

    Warns (``EigengapWarning``) when the gap between the d-th and (d+1)-th
    eigenvalues is below 1e-8: the retained subspace is then numerically
    ill-determined, though still returned.
    """
    p = e.vectors.shape[0]
    if not 1 <= d <= p:
        raise ValueError(f"need 1 <= d <= p={p}, got d={d}")
    if d < p and e.values[d - 1] - e.values[d] < EIGENGAP_WARN:
        warnings.warn(
            f"eigenvalue gap {e.values[d - 1] - e.values[d]:.3e} below "
            f"{EIGENGAP_WARN:g} at cut d={d}; subspace is near-degenerate",
            EigengapWarning,
            stacklevel=2,
        )
    return sign_normalize(e.vectors[:, :d])


def subspace_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Frobenius distance between the projections of two spans.

    Accepts any full-column-rank matrices (projections are formed through
    the Gram inverse).  Zero iff the spans coincide; for two d-dimensional
    spans the value is at most 2d, attained when they are orthogonal.
    """
    ha = _general_projection(a)
    hb = _general_projection(b)
    diff = ha - hb
    return float(np.sum(diff * diff))


def noise_variances(
    sigma: np.ndarray,
    basis: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of the correlation matrix projected off the loading span.

    Returns the variance vector (floored below at ``TAU2_FLOOR``, since a
    finite-sample projection can dip negative) and the boolean mask of
    floored entries.  With Q = I - U U^T for the orthonormal basis U and a
    symmetric ``sigma``, diag(Q sigma Q) = diag(sigma) - 2 rowsum(U o sigma U)
    + rowsum(U (U^T sigma U) o U), which costs O(p^2 d) rather than the
    O(p^3) of forming Q sigma Q.
    """
    sigma = np.asarray(sigma, dtype=float)
    basis = np.asarray(basis, dtype=float)
    if sigma.shape[0] != basis.shape[0]:
        raise ValueError(
            f"dimension mismatch: sigma is {sigma.shape}, basis is {basis.shape}"
        )
    _check_orthonormal(basis)
    sigma_u = sigma @ basis
    raw = (
        np.diag(sigma)
        - 2.0 * np.sum(basis * sigma_u, axis=1)
        + np.sum((basis @ (basis.T @ sigma_u)) * basis, axis=1)
    )
    clamped = raw < TAU2_FLOOR
    return np.maximum(raw, TAU2_FLOOR), clamped


def fit_from_tetrachoric(
    ms: MarginalSummary,
    tetra: TetrachoricMatrix,
    d: int,
    meta: dict | None = None,
) -> FactorModel:
    """Assemble a factor model from an estimated correlation matrix.

    The noise variances are floored at ``TAU2_FLOOR``; ``meta`` entries are
    added to the fit bookkeeping of ``FactorModel.meta``.
    """
    e = sym_eigen(tetra.sigma)
    basis = leading_subspace(e, d)
    lead = e.values[:d]
    # The correlation estimate is not forced positive semidefinite, so a
    # leading eigenvalue can in principle be negative; clip before sqrt.
    b_hat = basis * np.sqrt(np.maximum(lead, 0.0))[None, :]
    tau2, tau2_clamped = noise_variances(tetra.sigma, basis)
    info = {
        "marginal_clamps": ms.clamp_count,
        "pair_clamps": len(tetra.clamp_flags),
        "tau2_floored": int(tau2_clamped.sum()),
        "negative_eigvals": int(np.count_nonzero(lead < 0.0)),
    }
    if meta:
        info.update(meta)
    return FactorModel(
        d=d,
        p=tetra.p,
        c_hat=ms.c_hat.copy(),
        b_hat=b_hat,
        tau2_hat=tau2,
        eigvals=lead.copy(),
        meta=info,
    )


def fit_model(y: BinaryMatrix, d: int, threads: int = 1) -> FactorModel:
    """End-to-end fit: ``estimate_tetrachoric`` then ``fit_from_tetrachoric``.

    The model is bitwise the same at any ``threads``.
    """
    if not 1 <= d <= y.p:
        raise ValueError(f"need 1 <= d <= p={y.p}, got d={d}")
    ms, tetra = estimate_tetrachoric(y, threads)
    return fit_from_tetrachoric(ms, tetra, d, {"n": y.n})


def _check_orthonormal(basis: np.ndarray) -> None:
    if basis.ndim != 2:
        raise ValueError(f"basis must be 2-D, got shape {basis.shape}")
    d = basis.shape[1]
    if d == 0:
        return
    gram = basis.T @ basis
    if np.max(np.abs(gram - np.eye(d))) > 1e-10:
        raise ValueError("basis columns are not orthonormal within 1e-10")


def _general_projection(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0 or x.shape[0] < x.shape[1]:
        raise ValueError(f"expected a tall full-rank matrix, got shape {x.shape}")
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] <= max(x.shape) * np.finfo(float).eps * sv[0]:
        raise ValueError("matrix is rank deficient; its span is not well defined")
    h = x @ np.linalg.solve(x.T @ x, x.T)
    return 0.5 * (h + h.T)
