"""Fourier empirical orthogonal decomposition and projection comparison.

The baseline basis is the left singular vectors of the full snapshot
matrix, rescaled to unit discrete-L2 norm.  The projection operator
measures how much of a mode lives along a single data column; averaging
its squared norm over modes and columns gives the score used to compare
mode families.
The averaging conventions differ on purpose: the model side divides by
its own mode count, the Fourier side by the full grid dimension with
absent modes contributing zero.

The data are real, so a mode family is scored through its weighted
real basis: a conjugate pair's Re and Im parts carry weight 2 and
stand for both modes.  Its products with the data, like the column
energies, are summed block by block in the walk of rod._pass.

The baseline spans the data columns, so by Parseval every column
projects fully onto it and the Fourier score is the column count over
nx.  The score is computed in that closed form whenever a bound shows
the truncated tail is negligible; the SVD itself runs only when the
basis is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import svd_economy
from .rod import _pass, _quiet

# singular values below RANK_CUTOFF times the largest are discarded
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class FourierModes:
    """Empirical basis of a snapshot matrix, decomposed on first use.

    Holds the decomposed values (by reference, not copied) and the grid
    spacing dx.  psi, the left singular vectors of the values above
    RANK_CUTOFF times the largest singular value, rescaled to unit
    discrete-L2 norm, comes from one SVD, run the first time it is read.
    Zero data keep one direction.
    """

    values: np.ndarray
    dx: float

    @cached_property
    def psi(self):
        factors = svd_economy(self.values)
        sigma = factors.sigma
        r = max(1, int(np.count_nonzero(sigma > RANK_CUTOFF * sigma[0])))
        return factors.U[:, :r] / np.sqrt(self.dx)


def fourier_decomposition(snap):
    """Deterministic SVD basis of a snapshot matrix, computed lazily.

    Keeps the numerical rank: singular values below RANK_CUTOFF times
    the largest are discarded.  Modes are rescaled to unit discrete-L2
    norm, so they are orthonormal in the inner product of dx and span
    every column of the data to that cutoff.
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


def _check_baseline(fourier, v0, ip):
    """fourier must decompose v0 plus one final column, read from the
    stored values so as never to force the SVD, and ip must be its inner
    product: the scores scale with ip.dx, within 1e-12 of fourier.dx."""
    nx, ncols = fourier.values.shape
    if nx != v0.shape[0] or ncols != v0.shape[1] + 1:
        raise ValueError(
            "Fourier modes of a %dx%d snapshot matrix do not match %dx%d data"
            " plus one final column" % (nx, ncols, v0.shape[0], v0.shape[1])
        )
    if abs(ip.dx - fourier.dx) > 1e-12 * abs(fourier.dx):
        raise ValueError(
            "inner product dx %s does not match the data's dx %s" % (ip.dx, fourier.dx)
        )


def _real_basis(modes):
    """(basis, weights): real columns b_c and weights w_c with
    sum_c w_c (b_c . u)^2 = sum_i |phi_i . u|^2 for every real u, phi_i
    the columns of modes.  A real mode gives itself with weight 1, an
    exactly conjugate pair phi, conj(phi) gives Re phi and Im phi with
    weight 2, and any other complex mode gives Re phi and Im phi with
    weight 1."""
    if not np.iscomplexobj(modes):
        return modes, np.ones(modes.shape[1])
    complex_mode = modes.imag.any(axis=0)
    conjugate_next = (modes[:, 1:] == modes[:, :-1].conj()).all(axis=0)
    columns, imag, weights = [], [], []
    j = 0
    while j < modes.shape[1]:
        if not complex_mode[j]:
            columns.append(j)
            weights.append(1.0)
        else:
            pair = j + 1 < modes.shape[1] and bool(conjugate_next[j])
            columns += [j, j]
            imag.append(len(columns) - 1)
            weights += [1.0 + pair] * 2
            j += pair
        j += 1
    # whole rows at a time (column by column read the modes once per column),
    # row-major like a model's left factor, so the products keep L's bits
    basis = modes.real.take(columns, axis=1)
    basis[:, imag] = modes.imag[:, np.take(columns, imag)]
    return basis, np.array(weights)


def _score(product, weights, col_sq, dx, mode_count):
    """(1/m) * sum_i sum_j |<phi_i, u_j>|^2 / <u_j, u_j> from the
    product b^T V0 of the weighted real basis (b, w) of the modes and
    the column energies col_sq."""
    inner = dx * product
    return float(np.sum(weights[:, None] * inner**2 / col_sq) / mode_count)


def _walk(v0, bases):
    """The column energies of v0 under dx = 1 and its products with each
    real basis, from one walk of rod._pass."""
    _, _, energies, products = _pass(v0, width=v0.shape[1], bases=[b for b, _ in bases])
    return energies, products


def mean_projection_norm(modes, v0, ip, mode_count=None):
    """Mean over modes of summed squared projection norms onto data columns.

    Equals (1/m) * sum_i sum_j |<phi_i, u_j>|^2 / <u_j, u_j> with m the
    mode count; pass mode_count to average over a nominal mode total
    larger than the columns actually present (the absent ones add zero).
    """
    modes = np.asarray(modes)
    v0 = np.asarray(v0, dtype=float)
    m = modes.shape[1] if mode_count is None else int(mode_count)
    if m < modes.shape[1]:
        raise ValueError("mode_count below the number of modes present")
    basis = _real_basis(modes)
    energies, (product,) = _walk(v0, [basis])
    col_sq = ip.dx * energies
    _check_energies(col_sq)
    return _score(product, basis[1], col_sq, ip.dx, m)


def compare_projections(rod_modes, fourier, v0, ip, same_rank=False):
    """Score the model modes against the Fourier baseline on V0.

    fourier must decompose the snapshot matrix V, v0 and one final
    column, and ip must be its inner product (ValueError otherwise).
    Returns (rho_rod, rho_fourier, dominates).  One walk of rod._pass
    over v0 sums its column energies and its products with the weighted
    real basis of each mode family, as the quality report's pass does
    over V, so both give the same bits.

    By default the Fourier mean runs over the full grid dimension:
    mean_projection_norm(fourier.psi, v0, ip, mode_count=nx).  psi spans
    every column up to the singular directions dropped below
    RANK_CUTOFF * sigma_0, so column j falls short of a full projection
    by at most RANK_CUTOFF^2 sigma_0^2 / ||u_j||^2, and
    sigma_0 <= ||V||_F.  When that bound is within machine epsilon the
    score is the closed form (number of columns) / nx and no SVD runs.
    Otherwise psi is computed and a second walk multiplies it with v0:
    the SVD's own sigma_i W^H holds <psi_i, u_j> only to rounding
    relative to sigma_0, which is no accuracy at all for a column far
    smaller than the largest.

    same_rank=True instead truncates the baseline to the model's rank
    and averages both sides over that rank, a like-for-like diagnostic;
    there the truncated basis is scored by the same products as the
    model modes, so a basis compared with itself ties exactly.

    A score that is not finite raises ValueError naming it, with
    numpy's overflow warnings silenced, as in the quality report.
    """
    rod_modes = np.asarray(rod_modes)
    v0 = np.asarray(v0, dtype=float)
    m = rod_modes.shape[1]
    _check_baseline(fourier, v0, ip)
    bases = [_real_basis(rod_modes)]
    if same_rank:
        bases.append(_real_basis(fourier.psi[:, :m]))
    energies, products = _walk(v0, bases)
    with _quiet():
        scores = _projection_scores(m, bases, products, ip.dx * energies, fourier, v0, ip)
    for name, value in zip(("rho_rod", "rho_fourier"), scores):
        if not np.isfinite(value):
            raise ValueError("projection score %s is not finite (%r)" % (name, value))
    return scores


def _projection_scores(m, bases, products, col_sq, fourier, v0, ip):
    """compare_projections for m model modes, given the products of v0
    with the weighted real bases and its column energies col_sq."""
    _check_energies(col_sq)
    rho_rod = _score(products[0], bases[0][1], col_sq, ip.dx, m)
    if len(bases) > 1:
        rho_fourier = _score(products[1], bases[1][1], col_sq, ip.dx, m)
    else:
        nx = v0.shape[0]
        last = fourier.values[:, -1]
        frobenius_sq = col_sq.sum() + ip.dx * float(last @ last)
        if RANK_CUTOFF**2 * frobenius_sq <= np.finfo(float).eps * col_sq.min():
            rho_fourier = v0.shape[1] / nx
        else:
            psi = _real_basis(fourier.psi)
            _, (product,) = _walk(v0, [psi])
            rho_fourier = _score(product, psi[1], col_sq, ip.dx, nx)
    return rho_rod, rho_fourier, bool(rho_rod > rho_fourier)
