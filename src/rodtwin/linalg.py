"""Dense linear-algebra kernels used by every other module.

Thin wrappers over LAPACK (through numpy): Householder QR, economy
SVD, a general real eigensolver, and least squares.  The wrappers pin
the conventions the rest of the package relies on: validated finite
inputs, nonincreasing singular values, unit-norm eigenvectors with
conjugate pairs adjacent, and minimum-norm solves for rank-deficient
systems.  `warn` raises the package's RuntimeWarnings on behalf of the
caller outside it, and `integer` takes every count and seed the package
is given.
"""

from __future__ import annotations

import operator
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
# least_squares keeps the singular values above _RCOND * sigma_max
_RCOND = 1e-12


def warn(message):
    """Raise a RuntimeWarning attributed to the first caller outside rodtwin.

    A fixed stacklevel is right for one call path only; walking out of
    the package's files serves every path into it.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def integer(value, name):
    """value as an int, numpy integers included; anything else, 10.9,
    3.0 and "3" included, raises ValueError naming name and value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError("%s %r is not an integer" % (name, value)) from None


class LinalgError(RuntimeError):
    """A kernel could not produce a usable factorization."""


@dataclass(frozen=True)
class SvdFactors:
    """Economy SVD triple: A is approximately U @ diag(sigma) @ W conjugate-transposed.

    U has orthonormal columns spanning the (approximate) range, sigma is
    nonincreasing and nonnegative, and W has orthonormal columns; the
    number of triplets kept is sigma.size.
    """

    U: np.ndarray
    sigma: np.ndarray
    W: np.ndarray


def _checked(a, name="matrix"):
    a = np.asarray(a)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("%s must be a nonempty 2-D array" % name)
    if not np.isfinite(a).all():
        raise ValueError("%s contains non-finite entries" % name)
    return a


def qr_factor(a):
    """Householder QR of a tall (rows >= cols) matrix.

    Returns (Q, R) with Q's columns orthonormal and R upper triangular.
    Rank deficiency does not abort: the factors are still returned and a
    RuntimeWarning reports how many diagonal entries of R are negligible:
    at most 1e-12 of the largest, so all of them for a zero matrix.
    """
    a = _checked(a)
    if a.shape[0] < a.shape[1]:
        raise ValueError("qr_factor needs rows >= cols, got %dx%d" % a.shape)
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    small = int(np.count_nonzero(diag <= 1e-12 * diag.max()))
    if small:
        warn("rank-deficient QR: %d negligible diagonal entries in R" % small)
    return q, r


def svd_economy(a):
    """Economy-size SVD keeping k = min(rows, cols) triplets."""
    a = _checked(a)
    try:
        u, s, wh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise LinalgError("SVD did not converge: %s" % exc) from exc
    return SvdFactors(U=u, sigma=s, W=wh.conj().T)


def eig_general(s):
    """Eigendecomposition of a real square matrix.

    Returns (values, vectors) as np.linalg.eig does: the eigenvalues and
    the matching eigenvector columns, each of unit 2-norm.  Complex
    conjugate pairs are adjacent (the LAPACK ordering for real input),
    and the residual ||S x - lambda x|| of every pair is verified
    against 1e-8 * ||S||_F before returning.
    """
    s = _checked(s)
    if s.shape[0] != s.shape[1]:
        raise ValueError("eig_general needs a square matrix, got %dx%d" % s.shape)
    if np.iscomplexobj(s):
        raise ValueError("eig_general expects a real matrix")
    try:
        values, vectors = np.linalg.eig(s)
    except np.linalg.LinAlgError as exc:
        raise LinalgError("eigensolver did not converge: %s" % exc) from exc
    scale = np.linalg.norm(s)
    if scale > 0:
        resid = np.linalg.norm(s @ vectors - vectors * values, axis=0)
        worst = float(resid.max())
        if worst > 1e-8 * scale:
            raise LinalgError(
                "eigenpair residual %.3e exceeds 1e-8 * ||S||_F" % worst
            )
    return values, vectors


def least_squares(a, b):
    """Minimize ||A X - B||_F over X for a matrix B of right-hand sides.

    Solved through the SVD A = U diag(s) V^H as X = V diag(1/s) U^H B
    over the singular values above 1e-12 * sigma_max, the cutoff of
    numpy's lstsq.  The cut turns rank-deficient and ill-conditioned
    systems into minimum-norm solutions, reported with one warning that
    names the rank and the condition number.  The callers' A is
    rank-sized, so its SVD is cheap, and the many right-hand sides cost
    two matrix products.  A and B must both be 2-D.
    """
    a = _checked(a, "A")
    b = _checked(b, "B")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            "row mismatch: A has %d rows, B has %d" % (a.shape[0], b.shape[0])
        )
    svd = svd_economy(a)
    s = svd.sigma
    rank = int(np.count_nonzero(s > _RCOND * s[0]))
    x = (svd.W[:, :rank] / s[:rank]) @ (svd.U[:, :rank].conj().T @ b)
    if rank < a.shape[1]:
        # a wide A is singular beyond its min(rows, cols) singular values
        cond = s[0] / s[-1] if s.size == a.shape[1] and s[-1] > 0 else np.inf
        warn(
            "rank-deficient least squares (rank %d of %d, condition %.3e):"
            " minimum-norm solution" % (rank, a.shape[1], cond)
        )
    return x
