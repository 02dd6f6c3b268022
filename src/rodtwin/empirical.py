"""Fourier empirical orthogonal decomposition and projection comparison.

The baseline expansion writes the data in the left singular vectors of
the full snapshot matrix, rescaled to unit discrete-L2 norm, with
inner-product coefficients.  The projection operator measures how much
of a mode lives along a single data column; averaging its squared norm
over modes and columns gives the score used to compare mode families.
The averaging conventions differ on purpose: the model side divides by
its own mode count, the Fourier side by the full grid dimension with
absent modes contributing zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import svd_economy


@dataclass(frozen=True)
class FourierModes:
    """Unit-norm empirical basis psi with singular values and coefficients.

    Reconstruction sum_i coefficients[i, j] * psi[:, i] reproduces
    column j of the decomposed data.
    """

    psi: np.ndarray
    sigma: np.ndarray
    coefficients: np.ndarray


def fourier_decomposition(snap, rank_cutoff=1e-12):
    """Deterministic SVD expansion of a snapshot matrix.

    Keeps the numerical rank: singular values below rank_cutoff times
    the largest are discarded.  Modes are rescaled to unit discrete-L2
    norm and the coefficients absorb the inverse scaling, so the
    reconstruction identity is preserved exactly.
    """
    factors = svd_economy(snap.values)
    sigma = factors.sigma
    if sigma.size and sigma[0] > 0:
        r = int(np.count_nonzero(sigma > rank_cutoff * sigma[0]))
    else:
        r = 0
    r = max(r, 1)
    root_dx = np.sqrt(snap.dx)
    psi = factors.U[:, :r] / root_dx
    coeff = root_dx * sigma[:r, None] * factors.W[:, :r].conj().T
    return FourierModes(psi=psi, sigma=sigma[:r].copy(), coefficients=coeff)


def project(phi, u, ip):
    """Projection of mode phi along data column u: (<phi,u>/<u,u>) u."""
    uu = ip.dot(u, u).real
    if uu <= 0:
        raise ValueError("cannot project onto a zero data column")
    return (ip.dot(phi, u) / uu) * np.asarray(u)


def _column_energies(v0, ip):
    """<u_j, u_j> of every data column; a zero column is rejected."""
    col_sq = ip.dx * np.einsum("ij,ij->j", v0, v0)
    zero_cols = np.flatnonzero(col_sq <= 0)
    if zero_cols.size:
        raise ValueError(
            "zero data column(s) at index %s" % zero_cols.tolist()
        )
    return col_sq


def _mean_score(inner, col_sq, present, mode_count):
    m = present if mode_count is None else int(mode_count)
    if m < present:
        raise ValueError("mode_count below the number of modes present")
    return float(np.sum(np.abs(inner) ** 2 / col_sq) / m)


def _fourier_inner(fourier, v0):
    """<psi_i, u_j> for the columns of v0, read from the coefficients."""
    coeff = np.asarray(fourier.coefficients)
    if fourier.psi.shape[0] != v0.shape[0] or coeff.shape[1] != v0.shape[1] + 1:
        raise ValueError(
            "Fourier modes of a %dx%d snapshot matrix do not match %dx%d data"
            " plus one final column"
            % (fourier.psi.shape[0], coeff.shape[1], v0.shape[0], v0.shape[1])
        )
    return coeff[:, :-1]


def mean_projection_norm(modes, v0, ip, mode_count=None):
    """Mean over modes of summed squared projection norms onto data columns.

    Equals (1/m) * sum_i sum_j |<phi_i, u_j>|^2 / <u_j, u_j> with m the
    mode count; pass mode_count to average over a nominal mode total
    larger than the columns actually present (the absent ones add zero).
    The data are real, so the real and imaginary parts of <phi_i, u_j>
    come from real products with modes.real and modes.imag.
    """
    modes = np.asarray(modes)
    v0 = np.asarray(v0, dtype=float)
    col_sq = _column_energies(v0, ip)
    parts = [modes.real.T, modes.imag.T] if np.iscomplexobj(modes) else [modes.T]
    inner = ip.dx * (np.vstack(parts) @ v0)
    return _mean_score(inner, col_sq, modes.shape[1], mode_count)


def fourier_projection_norm(fourier, v0, ip):
    """mean_projection_norm(fourier.psi, v0, ip, mode_count=nx), read from
    the coefficients.

    fourier must decompose the snapshot matrix whose first columns are
    v0, which has one column more than v0; any other shape raises
    ValueError.  coefficients[i, j] equals <psi_i, u_j>, so no product
    with the data is needed.
    """
    v0 = np.asarray(v0, dtype=float)
    inner = _fourier_inner(fourier, v0)
    return _mean_score(
        inner, _column_energies(v0, ip), inner.shape[0], v0.shape[0]
    )


def compare_projections(rod_modes, fourier, v0, ip, same_rank=False):
    """Score the model modes against the Fourier baseline on V0.

    fourier decomposes the snapshot matrix whose first columns are v0.
    Returns (rho_rod, rho_fourier, dominates).  By default the Fourier
    mean runs over the full grid dimension and is read from the
    coefficients.  same_rank=True instead truncates the baseline to the
    model's rank and averages both sides over that rank, a like-for-like
    diagnostic; there the truncated basis is scored by the same product
    as the model modes, so a basis compared with itself ties exactly.
    """
    rod_modes = np.asarray(rod_modes)
    v0 = np.asarray(v0, dtype=float)
    if same_rank:
        _fourier_inner(fourier, v0)  # the shape contract of the default path
        k = min(rod_modes.shape[1], fourier.psi.shape[1])
        rho_fourier = mean_projection_norm(
            fourier.psi[:, :k], v0, ip, mode_count=rod_modes.shape[1]
        )
    else:
        rho_fourier = fourier_projection_norm(fourier, v0, ip)
    rho_rod = mean_projection_norm(rod_modes, v0, ip)
    return rho_rod, rho_fourier, bool(rho_rod > rho_fourier)
