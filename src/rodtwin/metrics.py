"""Quality functionals for twin data models.

Error and correlation are time averages over the snapshot columns from
t_1 on (the initial column is the shared initial condition and is
excluded).  Column norms here are plain Euclidean vector norms, not
dx-weighted; this convention is pinned because the reported magnitudes
depend on it.

Error and correlation are built from the per-column sums of the one
pass kernel, walk.data_pass, which every scorer here runs against one
twin or, for the sweep, a list of them: Σ(a - b)^2 for the error, and
Σx y, Σy y and the data's Σx x for the correlation.  A twin is the
rows of a reconstructed SnapshotMatrix or walk.modal_rows of a real
product L R, such as a model's factors, formed a block at a time, so
the quality report and the sweep never hold an nx x nt twin.  A
non-finite twin entry shows as a non-finite sum, and only then are
that twin's rows scanned for it.  The report's pass also sums the
column energies of V0 and its products with the model's weighted real
basis, from which it takes the scores of empirical.compare_projections:
the report reads the data once.  numpy's overflow warnings from these
sums are silenced: a non-finite result becomes a named error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import walk
from .empirical import check_baseline, projection_scores


def _check_matched(exact, x, t):
    """The twin's grids, which fix its shape, must be those of exact."""
    shape = (x.size, t.size)
    if exact.values.shape != shape:
        raise ValueError("shape mismatch: %s vs %s" % (exact.values.shape, shape))
    # relative to each grid's magnitude, as SnapshotMatrix checks evenness
    if (
        np.abs(exact.x - x).max() > 1e-12 * np.abs(exact.x).max()
        or np.abs(exact.t - t).max() > 1e-12 * np.abs(exact.t).max()
    ):
        raise ValueError("grid mismatch between the two snapshot sets")


def _error(diff_sq):
    return float(np.sqrt(diff_sq).mean())


def _correlation(variant, cross, twin_pow, exact_pow):
    with walk.quiet():
        if variant == "paper":
            num = cross
            den = np.sqrt(exact_pow) * np.sqrt(twin_pow)
        else:
            num = cross**2
            den = exact_pow * twin_pow
        bad = np.flatnonzero(den <= 0)
        if bad.size:
            raise ValueError(
                "zero column(s) in correlation at time index %s" % (bad + 1).tolist()
            )
        return float((num / den).mean())


def _snapshot_rows(exact, twin):
    """The twin of walk.data_pass for a SnapshotMatrix on exact's grids."""
    _check_matched(exact, twin.x, twin.t)
    return lambda start, stop, out: np.copyto(out, twin.values[start:stop])


def twin_scores(values, left, right, sums, data_sums, variant):
    """(absolute_error, correlation) of the twin left @ right from its
    sums and the data's of walk.data_pass.  A non-finite twin entry
    shows in the column t_0, which no sum reads and one product checks,
    or in one of the twin's sums; only then are the twin's rows formed
    again and scanned, and the entry raises ValueError(walk.NON_FINITE)."""
    with walk.quiet():
        t0 = left @ right[:, 0]
    if not (np.isfinite(t0).all() and np.isfinite(sums).all()):
        if walk.first_non_finite_row(values, walk.modal_rows(left, right)) is not None:
            raise ValueError(walk.NON_FINITE)
    return _error(sums[0]), _correlation(variant, *sums[1:], data_sums)


def absolute_error(exact, twin):
    """Time-averaged Euclidean distance between matching columns."""
    (sums,), _, _, _ = walk.data_pass(exact.values, [_snapshot_rows(exact, twin)])
    return _error(sums[0])


def correlation(exact, twin, variant="paper"):
    """Time-averaged per-column correlation in [0, 1].

    variant="paper" uses the elementwise-product ratio
    sum((u v)^2) / (sqrt(sum u^4) sqrt(sum v^4)) per column, which is 1
    exactly when the columns coincide up to positive scaling of |.|.
    variant="cosine" is the squared cosine (sum uv)^2 / (sum u^2 sum v^2).
    Both are scale invariant and bounded by Cauchy-Schwarz.
    """
    twins = [_snapshot_rows(exact, twin)]
    (sums,), data_sums, _, _ = walk.data_pass(exact.values, twins, variant)
    return _correlation(variant, *sums[1:], data_sums)


def model_scores(exact, model, variant, width=0, bases=()):
    """(absolute_error, correlation) of the model's twin, which must be
    on exact's grids, from one pass that never forms it, followed by
    the pass's energies of the first width data columns and its
    products with bases."""
    _check_matched(exact, model.x, model.t)
    factors = (model.left, model.right)
    (sums,), data_sums, energies, products = walk.data_pass(
        exact.values, [walk.modal_rows(*factors)], variant, width, bases
    )
    return (*twin_scores(exact.values, *factors, sums, data_sums, variant), energies, products)


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


QualityReport.FIELDS = tuple(field.name for field in fields(QualityReport))


def quality_report(exact, model, fourier, ip, variant="paper"):
    """Assemble the QualityReport for a fitted model against exact data.

    One pass over the data gives the error and correlation of the
    model's twin, which is never formed, and over V0, the kernel's
    window of the first nt columns, the column energies and the
    products with the model's left factor, the modes' real basis.  The
    projection scores are those of empirical.compare_projections on V0,
    whose walk sums the same energies and products with the same kernel,
    bit for bit, so fourier and ip must be those of exact (ValueError
    otherwise).  A field that is not finite, such as the correlation of
    data whose a^4 overflows, raises ValueError naming the field.
    """
    v0 = exact.values[:, :-1]
    check_baseline(fourier, v0, ip)
    # a zero twin column is reported before a zero data column
    error, corr, energy, products = model_scores(exact, model, variant, v0.shape[1], [model.left])
    # a pair's columns u, v stand for the modes u ± iv, with weight 2 each
    weights = np.where(model.eigenvalues.imag == 0, 1.0, 2.0)
    # scores that overflow are named below, as the error and correlation are
    with walk.quiet():
        rho_rod, rho_fourier, _ = projection_scores(
            model.rank, [(model.left, weights)], products, ip.dx * energy, fourier, v0, ip
        )
    report = QualityReport(
        rank=int(model.rank),
        absolute_error=error,
        correlation=corr,
        rod_projection_norm=rho_rod,
        fourier_projection_norm=rho_fourier,
        gram_deviation=float(model.gram_deviation),
        seed=int(model.seed),
    )
    for name in QualityReport.FIELDS:
        value = getattr(report, name)
        if not math.isfinite(value):
            raise ValueError(
                "quality report field %s is not finite (%r)" % (name, value)
            )
    return report
