"""Seeded synthetic inputs for the benchmark, built with numpy alone.

The generator is written out here instead of being taken from
``binfactor.simulate``, so that a change to the package's own generator
cannot change what the benchmark feeds the package.  The recipe is the
probit factor model: loadings B (p x d), noise variances tau2 and
thresholds c are drawn once, each row of B is scaled so that every latent
variable has unit variance, and then

    E = Z B^T + eps,  Z_ik ~ N(0, 1),  eps_ij ~ N(0, tau2_j),  Y = 1[E > c].
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A binary data matrix together with the truth that produced it."""

    b: np.ndarray  # (p, d) true loadings
    tau2: np.ndarray  # (p,) true noise variances
    c: np.ndarray  # (p,) true thresholds
    z: np.ndarray  # (n, d) true factors
    y: np.ndarray  # (n, p) uint8 observations


def make_dataset(model_seed: list[int], data_seed: list[int], n: int, p: int, d: int) -> Dataset:
    """Draw the model from ``model_seed`` and the n samples from ``data_seed``."""
    model_rng = np.random.default_rng(model_seed)
    b = model_rng.uniform(-1.0, 1.0, size=(p, d))
    tau2 = model_rng.uniform(0.2, 0.8, size=p)
    c = model_rng.uniform(-1.0, 1.0, size=p)
    b *= (np.sqrt(1.0 - tau2) / np.linalg.norm(b, axis=1))[:, None]

    data_rng = np.random.default_rng(data_seed)
    z = data_rng.standard_normal((n, d))
    e = z @ b.T
    e += data_rng.standard_normal((n, p)) * np.sqrt(tau2)
    return Dataset(b=b, tau2=tau2, c=c, z=z, y=(e > c).astype(np.uint8))


def write_csv(y: np.ndarray, path: Path) -> None:
    """Write a 0/1 matrix as a headerless CSV, one sample per line."""
    n, p = y.shape
    buf = np.empty((n, 2 * p), dtype=np.uint8)
    buf[:, 0::2] = y + ord("0")
    buf[:, 1::2] = ord(",")
    buf[:, -1] = ord("\n")
    path.write_bytes(buf.tobytes())
