"""rodtwin: twin data models of snapshot matrices.

Builds low-rank surrogates of space-time fields through a seeded
randomized SVD of the time-shifted snapshots, a one-step propagator,
and its eigenmodes.  Ships an exact viscous-Burgers benchmark
(Cole-Hopf form evaluated by Gauss-Hermite quadrature), a Fourier
baseline with projection-score comparison, Pareto rank selection, and
a CLI (`rodtwin`) covering the full pipeline.
"""

from .burgers import BurgersConfig, QuadratureRule, exact_u, gauss_hermite, generate_snapshots, phi0
from .empirical import FourierModes, compare_projections, fourier_decomposition, mean_projection_norm, project
from .linalg import EigenPairs, LinalgError
from .metrics import QualityReport, absolute_error, correlation, quality_report, time_average
from .rank_select import ParetoPoint, objectives, pareto_sweep, select_rank
from .rod import (
    FitStageError,
    InnerProduct,
    RodModel,
    SnapshotMatrix,
    amplitudes,
    fit,
    mode_gram_deviation,
    propagator,
    reconstruct,
    rod_modes,
    shift_split,
)
from .rsvd import rsvd

__version__ = "0.1.0"

__all__ = [
    "BurgersConfig",
    "EigenPairs",
    "FitStageError",
    "FourierModes",
    "InnerProduct",
    "LinalgError",
    "ParetoPoint",
    "QualityReport",
    "QuadratureRule",
    "RodModel",
    "SnapshotMatrix",
    "absolute_error",
    "amplitudes",
    "compare_projections",
    "correlation",
    "exact_u",
    "fit",
    "fourier_decomposition",
    "gauss_hermite",
    "generate_snapshots",
    "mean_projection_norm",
    "mode_gram_deviation",
    "objectives",
    "pareto_sweep",
    "phi0",
    "project",
    "propagator",
    "quality_report",
    "reconstruct",
    "rod_modes",
    "rsvd",
    "select_rank",
    "shift_split",
    "time_average",
]
