"""Latent factor models for high-dimensional binary data.

Pipeline: binary observations -> marginal thresholds and tetrachoric
correlations -> spectral loading-subspace estimate and noise variances ->
per-sample latent factor scores, plus a seeded Monte Carlo laboratory and
CSV/JSON persistence.

The namespace is lazy (PEP 562): ``import binfactor`` loads no submodule
and no numpy.  Each public name below, and each submodule, is imported on
first access, so a caller pays only for the layers it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule and the public names it exports through the package.
_EXPORTS = {
    "gaussian": (
        "RHO_CLAMP", "InversionResult", "bvn_boundary_value", "bvn_upper_tail",
        "bvn_upper_tail_batch", "bvn_upper_tail_drho", "std_normal_cdf", "std_normal_pdf",
        "std_normal_quantile", "tetrachoric_invert", "tetrachoric_invert_batch",
    ),
    "model_io": (
        "DataFormatError", "ModelFormatError", "read_binary_matrix", "read_model", "write_metrics",
        "write_model", "write_scores",
    ),
    "moments": (
        "BinaryMatrix", "MarginalSummary", "TetrachoricMatrix", "estimate_tetrachoric",
        "joint_frequency_matrix", "marginal_frequencies", "tetrachoric_from_probabilities",
        "thresholds",
    ),
    "parallel": ("map_slices", "usable_cpus"),
    "scores": (
        "LatentScores", "ScoreConfig", "estimate_scores", "inclusion_mask", "reconstruct",
        "select_tau_threshold",
    ),
    "selfcheck": ("CheckResult", "run_selfcheck"),
    "simulate": (
        "MetricsRecord", "SimScenario", "TrueModel", "generate_dataset", "generate_true_model",
        "metric_max_err", "metric_med_err", "metric_subspace", "population_probabilities",
        "population_sigma", "population_subspace_discrepancy", "run_grid", "run_replications",
    ),
    "spectral": (
        "EigenDecomposition", "EigengapWarning", "FactorModel", "fit_from_tetrachoric",
        "fit_model", "leading_subspace", "noise_variances", "sign_normalize",
        "subspace_discrepancy", "sym_eigen",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
