"""Quality functionals for twin data models.

Error and correlation are time averages over the snapshot columns from
t_1 on (the initial column is the shared initial condition and is
excluded).  Column norms here are plain Euclidean vector norms, not
dx-weighted; this convention is pinned because the reported magnitudes
depend on it.

Error and correlation are built from per-column sums that one pass
over the data accumulates in blocks of BLOCK_ROWS rows.  The twin side
of a block is either a slice of a reconstructed SnapshotMatrix or the
rows of a rod.ModalSum (a model's modal sum, or a sweep rank's sketch
basis times its rank-space coefficients), evaluated one block at a
time, so the quality report and the sweep never hold an nx x nt twin.
The sweep's SweepScorer takes the part of each rank's error outside
the sketch, and the data's a^4, from one pass per sweep.  The report's
projection scores are those of empirical.compare_projections, from the
column energies its own pass sums.  numpy's overflow warnings from
these sums are silenced: a non-finite result becomes a named error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .empirical import _projection_scores
from .rod import BLOCK_ROWS, ModalSum, add_column_sums, row_blocks

VARIANTS = ("paper", "cosine")


def time_average(samples):
    """Arithmetic mean of equally spaced samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("time_average of an empty sequence")
    return float(samples.mean())


def _check_matched(exact, shape, x, t):
    """The twin's shape and grids must be those of exact."""
    if exact.values.shape != shape:
        raise ValueError("shape mismatch: %s vs %s" % (exact.values.shape, shape))
    if (
        np.abs(exact.x - x).max() > 1e-12 * max(1.0, np.abs(exact.x).max())
        or np.abs(exact.t - t).max() > 1e-12 * max(1.0, np.abs(exact.t).max())
    ):
        raise ValueError("grid mismatch between the two snapshot sets")


class _Sums(NamedTuple):
    """Per-column sums of one pass; see _stream."""

    diff_sq: np.ndarray
    cross: Optional[np.ndarray]
    exact_pow: Optional[np.ndarray]
    twin_pow: Optional[np.ndarray]
    energy: Optional[np.ndarray] = None


def _quiet():
    """Silence numpy's overflow and invalid-value warnings: the power
    sums of data near the top of the float range overflow, and the
    non-finite result is reported as a named error instead."""
    return np.errstate(over="ignore", invalid="ignore")


def _stream(exact, twin_rows, variant=None, energy=False):
    """Per-column sums of exact (a) against a twin (b) in one pass of
    BLOCK_ROWS-row blocks.

    twin_rows(start, stop) returns the twin's rows start:stop.  Over the
    columns from t_1 on it sums (a - b)^2, and for variant "paper" also
    (ab)^2, a^4 and b^4, for "cosine" ab, a^2 and b^2.  With energy=True
    it also sums a^2 over the columns up to t_{nt-1} (V0), row by row as
    empirical._column_energies does.  The paper a^4 and the energies
    share one square of each data block.
    """
    values = exact.values
    nx, ncols = values.shape
    diff_sq = np.zeros(ncols - 1)
    cross = exact_pow = twin_pow = energies = None
    if variant is not None:
        cross, exact_pow, twin_pow = np.zeros((3, ncols - 1))
    if energy:
        energies = np.zeros(ncols - 1)
    # one buffer for every temporary: fresh block-sized arrays made the
    # pass over the 101x301 benchmark 1.6 times slower, and a second
    # buffer for the squared block made the report on it 1.15 times slower
    scratch = np.empty(min(BLOCK_ROWS, nx) * ncols)
    with _quiet():
        for start, stop in row_blocks(nx):
            rows = stop - start
            a, b = values[start:stop, 1:], twin_rows(start, stop)[:, 1:]
            if variant == "paper" or energy:
                sq = scratch[: rows * ncols].reshape(rows, ncols)
                np.square(values[start:stop], out=sq)
                if energy:
                    # the sum overwrites the first row, which a^4 reads
                    first = sq[0].copy()
                    add_column_sums(energies, sq[:, :-1])
                    sq[0] = first
                if variant == "paper":
                    add_column_sums(exact_pow, np.square(sq[:, 1:], out=sq[:, 1:]))
            # contiguous, so that every ufunc runs as one flat loop
            buf = scratch[: rows * (ncols - 1)].reshape(rows, -1)
            add_column_sums(diff_sq, np.square(np.subtract(a, b, out=buf), out=buf))
            if variant == "paper":
                add_column_sums(cross, np.square(np.multiply(a, b, out=buf), out=buf))
                add_column_sums(twin_pow, np.square(np.square(b, out=buf), out=buf))
            elif variant == "cosine":
                add_column_sums(cross, np.multiply(a, b, out=buf))
                add_column_sums(exact_pow, np.square(a, out=buf))
                add_column_sums(twin_pow, np.square(b, out=buf))
    return _Sums(diff_sq, cross, exact_pow, twin_pow, energies)


def _error(sums):
    return time_average(np.sqrt(sums.diff_sq))


def _correlation(sums, variant):
    with _quiet():
        if variant == "paper":
            num = sums.cross
            den = np.sqrt(sums.exact_pow) * np.sqrt(sums.twin_pow)
        else:
            num = sums.cross**2
            den = sums.exact_pow * sums.twin_pow
        bad = np.flatnonzero(den <= 0)
        if bad.size:
            raise ValueError(
                "zero column(s) in correlation at time index %s" % (bad + 1).tolist()
            )
        return time_average(num / den)


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ValueError("unknown correlation variant %r" % variant)


def _snapshot_sums(exact, twin, variant=None):
    _check_matched(exact, twin.values.shape, twin.x, twin.t)
    return _stream(exact, lambda start, stop: twin.values[start:stop], variant)


def _modal_sums(exact, modal, variant, energy=False):
    """Sums of exact against a ModalSum on exact's grids, warning once
    about its imaginary residue."""
    out = np.empty((min(BLOCK_ROWS, modal.shape[0]), modal.shape[1]))

    def twin_rows(start, stop):
        return modal.real_rows(start, stop, out[: stop - start])

    sums = _stream(exact, twin_rows, variant, energy)
    modal.warn_residue()
    return sums


def _sketch_sums(values, q, p1):
    """Per-column sums over the columns from t_1 on, in one pass of
    BLOCK_ROWS-row blocks: r_j = ||v_j - Q p_j||^2, the part of column j
    outside range(Q), and the paper correlation's a^4, which is the same
    for every twin.  p1 holds the columns of P = Q^T V from t_1 on."""
    nx, ncols = values.shape[0], p1.shape[1]
    resid, exact_pow = np.zeros((2, ncols))
    fitted, scratch = np.empty((2, min(BLOCK_ROWS, nx), ncols))
    with _quiet():
        for start, stop in row_blocks(nx):
            a = values[start:stop, 1:]
            b = np.matmul(q[start:stop], p1, out=fitted[: stop - start])
            add_column_sums(resid, np.square(np.subtract(a, b, out=b), out=b))
            buf = scratch[: stop - start]
            add_column_sums(exact_pow, np.square(np.square(a, out=buf), out=buf))
    return resid, exact_pow


class SweepScorer:
    """Absolute error and paper correlation of every twin Q[:, :k] Re C_k
    of one sketch (Q, P = Q^T V) against exact, C_k being rank k's
    (k, nt + 1) coefficients.

    Q has orthonormal columns, so column j's error splits as

        ||v_j - Q_k Re c_j||^2 = ||v_j - Q p_j||^2 + ||p_j - [Re c_j; 0]||^2.

    One blocked pass per sweep gives the first term and the data's a^4
    (_sketch_sums); the second term is rank space.  Per rank, one
    blocked pass forms the twin rows Q_k Re C_k, rejects non-finite
    entries and tracks the field scale as ModalSum does, and sums (ab)^2
    and b^4.  ModalSum.warn_residue, which reads no data, then checks
    the imaginary residue; Q_k is orthonormal, so its bound is
    max_j ||Im c_j||_2.  The per-rank pass allocates no block buffers.
    """

    def __init__(self, exact, q, proj):
        self._exact = exact
        self._q = q
        self._p1 = np.ascontiguousarray(proj[:, 1:])
        self._resid, self._exact_pow = _sketch_sums(exact.values, q, self._p1)
        rows = min(BLOCK_ROWS, q.shape[0])
        self._twin = np.empty((rows, proj.shape[1]))
        self._scratch = np.empty((rows, proj.shape[1] - 1))

    def scores(self, c):
        """(absolute_error, correlation) of the twin of the (k, nt + 1)
        coefficients c."""
        k = c.shape[0]
        # contiguous, so that the twin rows are one BLAS product
        real = np.ascontiguousarray(c.real)
        modal = ModalSum(self._q[:, :k], real, c.imag)
        values = self._exact.values
        nx, ncols = modal.shape
        cross, twin_pow = np.zeros((2, ncols - 1))
        with _quiet():
            for start, stop in row_blocks(nx):
                a = values[start:stop, 1:]
                b = modal.real_rows(start, stop, self._twin[: stop - start])[:, 1:]
                buf = self._scratch[: stop - start]
                add_column_sums(cross, np.square(np.multiply(a, b, out=buf), out=buf))
                add_column_sums(twin_pow, np.square(np.square(b, out=buf), out=buf))
        modal.warn_residue()
        off = self._p1.copy()
        off[:k] -= real[:, 1:]
        diff_sq = self._resid + np.einsum("ij,ij->j", off, off)
        sums = _Sums(diff_sq, cross, self._exact_pow, twin_pow)
        return _error(sums), _correlation(sums, "paper")


def _model_modal(exact, model):
    """The modal sum of model, which must be on exact's grids."""
    modal = ModalSum.from_model(model)
    _check_matched(exact, modal.shape, model.x, model.t)
    return modal


def absolute_error(exact, twin):
    """Time-averaged Euclidean distance between matching columns."""
    return _error(_snapshot_sums(exact, twin))


def correlation(exact, twin, variant="paper"):
    """Time-averaged per-column correlation in [0, 1].

    variant="paper" uses the elementwise-product ratio
    sum((u v)^2) / (sqrt(sum u^4) sqrt(sum v^4)) per column, which is 1
    exactly when the columns coincide up to positive scaling of |.|.
    variant="cosine" is the squared cosine (sum uv)^2 / (sum u^2 sum v^2).
    Both are scale invariant and bounded by Cauchy-Schwarz.
    """
    _check_variant(variant)
    return _correlation(_snapshot_sums(exact, twin, variant), variant)


def modal_scores(exact, modal, variant="paper"):
    """(absolute_error, correlation) of a ModalSum whose rows are on
    exact's grids, from one pass that never forms the twin."""
    _check_variant(variant)
    sums = _modal_sums(exact, modal, variant)
    return _error(sums), _correlation(sums, variant)


def twin_scores(exact, model):
    """modal_scores of the model's modal sum, with the paper correlation."""
    return modal_scores(exact, _model_modal(exact, model))


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

    One pass over the data gives the error and correlation of the
    model's twin, which is never formed, and the column energies of V0
    (all snapshot columns but the last).  The projection scores are
    those of empirical.compare_projections on V0 from these energies,
    bit for bit, so fourier must decompose exact itself (ValueError
    otherwise).  A field that is not finite, such as the correlation of
    data whose a^4 overflows, raises ValueError naming the field.
    """
    _check_variant(variant)
    sums = _modal_sums(exact, _model_modal(exact, model), variant, energy=True)
    # a zero twin column is reported before a zero data column
    corr = _correlation(sums, variant)
    rho_rod, rho_fourier, _ = _projection_scores(
        model.modes, fourier, exact.values[:, :-1], ip, ip.dx * sums.energy
    )
    report = QualityReport(
        rank=int(model.rank),
        absolute_error=_error(sums),
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
