"""Latent factor models for high-dimensional binary data.

Pipeline: binary observations -> marginal thresholds and tetrachoric
correlations -> spectral loading-subspace estimate and noise variances ->
per-sample latent factor scores, plus a seeded Monte Carlo laboratory and
CSV/JSON persistence.
"""

from .gaussian import (
    RHO_CLAMP,
    InversionResult,
    bvn_boundary_value,
    bvn_upper_tail,
    bvn_upper_tail_batch,
    bvn_upper_tail_drho,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    tetrachoric_invert,
    tetrachoric_invert_batch,
)
from .model_io import (
    DataFormatError,
    ModelFormatError,
    read_binary_matrix,
    read_model,
    write_metrics,
    write_model,
    write_scores,
)
from .moments import (
    BinaryMatrix,
    MarginalSummary,
    TetrachoricMatrix,
    estimate_tetrachoric,
    joint_frequency_matrix,
    marginal_frequencies,
    tetrachoric_from_probabilities,
    thresholds,
)
from .parallel import map_slices, usable_cpus
from .scores import (
    LatentScores,
    ScoreConfig,
    estimate_scores,
    inclusion_mask,
    reconstruct,
    select_tau_threshold,
)
from .selfcheck import CheckResult, run_selfcheck
from .simulate import (
    MetricsRecord,
    SimScenario,
    TrueModel,
    generate_dataset,
    generate_true_model,
    metric_max_err,
    metric_med_err,
    metric_subspace,
    population_probabilities,
    population_sigma,
    population_subspace_discrepancy,
    run_grid,
    run_replications,
)
from .spectral import (
    EigenDecomposition,
    EigengapWarning,
    FactorModel,
    fit_from_tetrachoric,
    fit_model,
    leading_subspace,
    noise_variances,
    sign_normalize,
    subspace_discrepancy,
    sym_eigen,
)

__version__ = "0.1.0"
