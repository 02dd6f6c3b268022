"""Quality functionals for twin data models.

Error and correlation are time averages over the snapshot columns from
t_1 on (the initial column is the shared initial condition and is
excluded).  Column norms here are plain Euclidean vector norms, not
dx-weighted; this convention is pinned because the reported magnitudes
depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import fourier_projection_norm, mean_projection_norm


def time_average(samples):
    """Arithmetic mean of equally spaced samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("time_average of an empty sequence")
    return float(samples.mean())


def _matched_columns(exact, twin):
    a, b = exact.values, twin.values
    if a.shape != b.shape:
        raise ValueError("shape mismatch: %s vs %s" % (a.shape, b.shape))
    if (
        np.abs(exact.x - twin.x).max() > 1e-12 * max(1.0, np.abs(exact.x).max())
        or np.abs(exact.t - twin.t).max() > 1e-12 * max(1.0, np.abs(exact.t).max())
    ):
        raise ValueError("grid mismatch between the two snapshot sets")
    return a[:, 1:], b[:, 1:]


def absolute_error(exact, twin):
    """Time-averaged Euclidean distance between matching columns."""
    a, b = _matched_columns(exact, twin)
    return time_average(np.linalg.norm(a - b, axis=0))


def _sum_fourth_powers(a):
    """Per-column sum of u^4 as a sum of squared squares; the generic
    power a**4 is about 25 times slower."""
    sq = np.square(a)
    return np.einsum("ij,ij->j", sq, sq)


def correlation(exact, twin, variant="paper"):
    """Time-averaged per-column correlation in [0, 1].

    variant="paper" uses the elementwise-product ratio
    sum((u v)^2) / (sqrt(sum u^4) sqrt(sum v^4)) per column, which is 1
    exactly when the columns coincide up to positive scaling of |.|.
    variant="cosine" is the squared cosine (sum uv)^2 / (sum u^2 sum v^2).
    Both are scale invariant and bounded by Cauchy-Schwarz.
    """
    if variant not in ("paper", "cosine"):
        raise ValueError("unknown correlation variant %r" % variant)
    a, b = _matched_columns(exact, twin)
    if variant == "paper":
        num = np.sum((a * b) ** 2, axis=0)
        den = np.sqrt(_sum_fourth_powers(a)) * np.sqrt(_sum_fourth_powers(b))
    else:
        num = np.sum(a * b, axis=0) ** 2
        den = np.sum(a**2, axis=0) * np.sum(b**2, axis=0)
    bad = np.flatnonzero(den <= 0)
    if bad.size:
        raise ValueError(
            "zero column(s) in correlation at time index %s" % (bad + 1).tolist()
        )
    return time_average(num / den)


@dataclass(frozen=True)
class QualityReport:
    """Consolidated fit quality numbers; field order is the serialization order."""

    rank: int
    absolute_error: float
    correlation: float
    rod_projection_norm: float
    fourier_projection_norm: float
    gram_deviation: float
    seed: int

    FIELDS = (
        "rank",
        "absolute_error",
        "correlation",
        "rod_projection_norm",
        "fourier_projection_norm",
        "gram_deviation",
        "seed",
    )


def quality_report(exact, model, fourier, ip, variant="paper"):
    """Assemble the QualityReport for a fitted model against exact data.

    Projection scores are computed on V0 (all snapshot columns but the
    last); the Fourier mean runs over the grid dimension and is
    empirical.fourier_projection_norm, so fourier must decompose exact
    itself (ValueError otherwise).
    """
    from .rod import reconstruct

    twin = reconstruct(model)
    v0 = exact.values[:, :-1]
    return QualityReport(
        rank=int(model.rank),
        absolute_error=absolute_error(exact, twin),
        correlation=correlation(exact, twin, variant=variant),
        rod_projection_norm=mean_projection_norm(model.modes, v0, ip),
        fourier_projection_norm=fourier_projection_norm(fourier, v0, ip),
        gram_deviation=float(model.gram_deviation),
        seed=int(model.seed),
    )
