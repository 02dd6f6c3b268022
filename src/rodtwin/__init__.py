"""rodtwin: twin data models of snapshot matrices.

Builds low-rank surrogates of space-time fields through a seeded
randomized SVD of the time-shifted snapshots, a one-step propagator,
and its eigenmodes.  Ships an exact viscous-Burgers benchmark
(Cole-Hopf form evaluated by Gauss-Hermite quadrature), a Fourier
baseline with projection-score comparison, Pareto rank selection, and
a CLI (`rodtwin`) covering the full pipeline.
"""

from .burgers import BurgersConfig, QuadratureRule, exact_u, gauss_hermite, generate_snapshots
from .empirical import FourierModes, compare_projections, fourier_decomposition, project
from .linalg import LinalgError
from .metrics import QualityReport, absolute_error, correlation, quality_report
from .rank_select import ParetoPoint, pareto_sweep, select_rank
from .rod import FitStageError, InnerProduct, RodModel, SnapshotMatrix, fit, reconstruct
from .rsvd import rsvd

__version__ = "0.1.0"

__all__ = [
    "BurgersConfig",
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
    "compare_projections",
    "correlation",
    "exact_u",
    "fit",
    "fourier_decomposition",
    "gauss_hermite",
    "generate_snapshots",
    "pareto_sweep",
    "project",
    "quality_report",
    "reconstruct",
    "rsvd",
    "select_rank",
]
