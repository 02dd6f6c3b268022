"""Fourier empirical orthogonal decomposition and projection comparison.

The baseline expansion writes the data in the left singular vectors of
the full snapshot matrix, rescaled to unit discrete-L2 norm, with
inner-product coefficients.  The projection operator measures how much
of a mode lives along a single data column; averaging its squared norm
over modes and columns gives the score used to compare mode families.
The averaging conventions differ on purpose: the model side divides by
its own mode count, the Fourier side by the full grid dimension with
absent modes contributing zero.

The baseline spans the data columns, so by Parseval every column
projects fully onto it and the Fourier score is the column count over
nx.  The score is computed in that closed form whenever a bound shows
the truncated tail is negligible; the SVD itself runs only when the
basis, its singular values or its coefficients are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import svd_economy
from .rod import _pass

# singular values below RANK_CUTOFF times the largest are discarded
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class FourierModes:
    """Empirical basis of a snapshot matrix, decomposed on first use.

    Holds the decomposed values (by reference, not copied) and the grid
    spacing dx.  psi (unit-norm basis), sigma (singular values) and
    coefficients come from one SVD, run the first time any of them is
    read.  Reconstruction sum_i coefficients[i, j] * psi[:, i]
    reproduces column j of values.
    """

    values: np.ndarray
    dx: float

    @cached_property
    def _expansion(self):
        factors = svd_economy(self.values)
        sigma = factors.sigma
        # zero data keeps one direction, with sigma 0
        r = max(1, int(np.count_nonzero(sigma > RANK_CUTOFF * sigma[0])))
        root_dx = np.sqrt(self.dx)
        psi = factors.U[:, :r] / root_dx
        coeff = root_dx * sigma[:r, None] * factors.W[:, :r].conj().T
        return psi, sigma[:r].copy(), coeff

    @property
    def psi(self):
        return self._expansion[0]

    @property
    def sigma(self):
        return self._expansion[1]

    @property
    def coefficients(self):
        return self._expansion[2]


def fourier_decomposition(snap):
    """Deterministic SVD expansion of a snapshot matrix, computed lazily.

    Keeps the numerical rank: singular values below RANK_CUTOFF times
    the largest are discarded.  Modes are rescaled to unit discrete-L2
    norm and the coefficients absorb the inverse scaling, so the
    reconstruction identity is preserved exactly.
    """
    return FourierModes(values=snap.values, dx=snap.dx)


def project(phi, u, ip):
    """Projection of mode phi along data column u: (<phi,u>/<u,u>) u."""
    uu = ip.dot(u, u).real
    if uu <= 0:
        raise ValueError("cannot project onto a zero data column")
    return (ip.dot(phi, u) / uu) * np.asarray(u)


def _check_energies(col_sq):
    """A zero data column has no direction to project on."""
    zero_cols = np.flatnonzero(col_sq <= 0)
    if zero_cols.size:
        raise ValueError(
            "zero data column(s) at index %s" % zero_cols.tolist()
        )


def _check_baseline(fourier, v0):
    """fourier must decompose v0 plus one final column; read from the
    stored values, so the check never forces the SVD."""
    nx, ncols = fourier.values.shape
    if nx != v0.shape[0] or ncols != v0.shape[1] + 1:
        raise ValueError(
            "Fourier modes of a %dx%d snapshot matrix do not match %dx%d data"
            " plus one final column" % (nx, ncols, v0.shape[0], v0.shape[1])
        )


def _score(modes, v0, ip, col_sq, mode_count):
    """(1/m) * sum_i sum_j |<phi_i, u_j>|^2 / <u_j, u_j> given the column
    energies col_sq.  The data are real, so the real and imaginary parts
    of <phi_i, u_j> come from one real product with modes.real and
    modes.imag stacked."""
    parts = [modes.real.T, modes.imag.T] if np.iscomplexobj(modes) else [modes.T]
    inner = ip.dx * (np.vstack(parts) @ v0)
    return float(np.sum(np.abs(inner) ** 2 / col_sq) / mode_count)


def mean_projection_norm(modes, v0, ip, mode_count=None):
    """Mean over modes of summed squared projection norms onto data columns.

    Equals (1/m) * sum_i sum_j |<phi_i, u_j>|^2 / <u_j, u_j> with m the
    mode count; pass mode_count to average over a nominal mode total
    larger than the columns actually present (the absent ones add zero).
    """
    modes = np.asarray(modes)
    v0 = np.asarray(v0, dtype=float)
    col_sq = ip.dx * _pass(v0, None, (), width=v0.shape[1])[1]
    _check_energies(col_sq)
    m = modes.shape[1] if mode_count is None else int(mode_count)
    if m < modes.shape[1]:
        raise ValueError("mode_count below the number of modes present")
    return _score(modes, v0, ip, col_sq, m)


def compare_projections(rod_modes, fourier, v0, ip, same_rank=False):
    """Score the model modes against the Fourier baseline on V0.

    fourier must decompose the snapshot matrix V whose first columns are
    v0, which has one column more than v0; any other shape raises
    ValueError.  Returns (rho_rod, rho_fourier, dominates), both scores
    from the column energies of v0, summed once by rod._pass as the
    quality report's pass sums them, so both give the same bits.

    By default the Fourier mean runs over the full grid dimension:
    mean_projection_norm(fourier.psi, v0, ip, mode_count=nx).  psi spans
    every column up to the singular directions dropped below
    RANK_CUTOFF * sigma_0, so column j falls short of a full projection
    by at most RANK_CUTOFF^2 sigma_0^2 / ||u_j||^2, and
    sigma_0 <= ||V||_F.  When that bound is within machine epsilon the
    score is the closed form (number of columns) / nx and no SVD runs.
    Otherwise psi is computed and multiplied with v0: the coefficients
    hold <psi_i, u_j> only to rounding relative to sigma_0, which is no
    accuracy at all for a column far smaller than the largest.

    same_rank=True instead truncates the baseline to the model's rank
    and averages both sides over that rank, a like-for-like diagnostic;
    there the truncated basis is scored by the same product as the
    model modes, so a basis compared with itself ties exactly.
    """
    v0 = np.asarray(v0, dtype=float)
    col_sq = ip.dx * _pass(v0, None, (), width=v0.shape[1])[1]
    return _projection_scores(rod_modes, fourier, v0, ip, col_sq, same_rank)


def _projection_scores(rod_modes, fourier, v0, ip, col_sq, same_rank=False):
    """compare_projections given the column energies col_sq of v0."""
    rod_modes = np.asarray(rod_modes)
    _check_baseline(fourier, v0)
    _check_energies(col_sq)
    nx, m = v0.shape[0], rod_modes.shape[1]
    if same_rank:
        k = min(m, fourier.psi.shape[1])
        rho_fourier = _score(fourier.psi[:, :k], v0, ip, col_sq, m)
    else:
        last = fourier.values[:, -1]
        frobenius_sq = col_sq.sum() + ip.dx * float(last @ last)
        if RANK_CUTOFF**2 * frobenius_sq <= np.finfo(float).eps * col_sq.min():
            rho_fourier = v0.shape[1] / nx
        else:
            rho_fourier = _score(fourier.psi, v0, ip, col_sq, nx)
    rho_rod = _score(rod_modes, v0, ip, col_sq, m)
    return rho_rod, rho_fourier, bool(rho_rod > rho_fourier)
