"""Seeded randomized SVD built on a pinned, self-contained PRNG.

Reproducibility across platforms and library versions is part of the
contract here, so the Gaussian sampling matrix does not come from
numpy's generators.  Draw c of the stream for a given 64-bit seed is

    bits(c) = mix64((seed + (c + 1) * 0x9E3779B97F4A7C15) mod 2^64)

where mix64 is the SplitMix64 finalizer (xor-shift 30, multiply
0xBF58476D1CE4E5B9, xor-shift 27, multiply 0x94D049BB133111EB,
xor-shift 31).  The top 53 bits give uniforms in [0, 1); consecutive
pairs feed the Box-Muller transform.  Matrices fill column by column,
so the first k columns of an (n, k+1) draw equal the (n, k) draw for
the same seed; rank sweeps therefore sample nested subspaces.
"""

from __future__ import annotations

import numpy as np

from .linalg import SvdFactors, integer, qr_factor, svd_economy, warn

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_TWO53 = float(2**53)


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def _uniforms(seed, count):
    """count uniforms in [0, 1) from the counter stream of seed, an
    integer of any type; another seed, 3.0 included, raises ValueError."""
    seed = integer(seed, "seed")
    counters = np.arange(1, count + 1, dtype=np.uint64)
    bits = _mix64(np.uint64(seed % (1 << 64)) + counters * _GAMMA)
    return (bits >> np.uint64(11)).astype(np.float64) / _TWO53


def gaussian_test_matrix(n_rows, k, seed):
    """Deterministic (n_rows, k) matrix of i.i.d. standard normals.

    Same (n_rows, k, seed) always yields the bit-identical matrix.
    """
    n_rows = integer(n_rows, "n_rows")
    k = integer(k, "k")
    if n_rows < k or k < 1:
        raise ValueError("need n_rows >= k >= 1, got (%d, %d)" % (n_rows, k))
    total = n_rows * k
    u = _uniforms(seed, 2 * ((total + 1) // 2))
    # 1 - u lands in (0, 1], keeping the log away from zero
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty(u.size)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:total].reshape((n_rows, k), order="F")


def _all_zero(a):
    return not a.any()


def range_finder(v0, target_rank, seed, oversampling=0):
    """Sketch basis Q of the range of a real matrix: the sampling half of rsvd.

    Draws the Gaussian test matrix M, samples V0 M and orthonormalizes
    it into Q.  The inputs are validated as rsvd documents, V0's NaN and
    inf through the sample, which they reach.  An all-zero matrix has
    no range to sample: a RuntimeWarning is raised and an arbitrary
    orthonormal frame of target_rank columns is returned.

    Returns Q of shape (nx, target_rank + oversampling), or
    (nx, target_rank) for an all-zero matrix.
    """
    v0 = np.asarray(v0, dtype=float)
    if v0.ndim != 2 or v0.size == 0:
        raise ValueError("v0 must be a nonempty 2-D real array")
    nx, nt = v0.shape
    k = integer(target_rank, "target_rank")
    if not 1 <= k <= min(nx, nt):
        raise ValueError(
            "target_rank %d outside [1, %d] for a %dx%d matrix"
            % (k, min(nx, nt), nx, nt)
        )
    p = integer(oversampling, "oversampling")
    if p < 0 or k + p > nt:
        raise ValueError("oversampling must satisfy 0 <= p and k + p <= nt")

    sample = v0 @ gaussian_test_matrix(nt, k + p, seed)
    # only a non-finite or a zero sample pays for a scan of V0; a finite
    # V0 whose sample overflows fails in qr_factor
    if not np.isfinite(sample).all() and not np.isfinite(v0).all():
        raise ValueError("v0 contains non-finite entries")
    if _all_zero(sample) and _all_zero(v0):
        warn("rsvd of an all-zero matrix")
        return qr_factor(gaussian_test_matrix(nx, k, seed))[0]
    return qr_factor(sample)[0]


def rsvd(v0, target_rank, seed, oversampling=0):
    """Randomized economy SVD of a real matrix, truncated to target_rank.

    Pipeline: range_finder draws a Gaussian test matrix M, samples the
    range V0 M and orthonormalizes it into Q; then project P = Q^T V0,
    take the deterministic SVD of the small P, and lift U = Q T.
    Optional oversampling widens the sample.

    Parameters
    ----------
    v0 : array_like, real, shape (nx, nt)
    target_rank : int, 1 <= target_rank <= min(nx, nt)
    seed : int, selects the sampling stream
    oversampling : int, extra sample columns beyond target_rank

    Returns
    -------
    SvdFactors with U (nx, k), sigma (k,) and W (nt, k).
    An all-zero v0 gives zero sigma between arbitrary orthonormal frames.
    """
    v0 = np.asarray(v0, dtype=float)
    q = range_finder(v0, target_rank, seed, oversampling=oversampling)
    k = integer(target_rank, "target_rank")
    inner = svd_economy(q.T @ v0)
    return SvdFactors(
        U=(q @ inner.U)[:, :k],
        sigma=inner.sigma[:k].copy(),
        W=inner.W[:, :k].copy(),
    )
