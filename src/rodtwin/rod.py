"""Twin data models of snapshot matrices.

A twin data model represents a space-time field u(x, t_i) as a short
modal sum u_twin(x, t_i) = sum_j a_j(t_i) phi_j(x).  The construction
used here: split the snapshots into the time-shifted pair (V0, V1),
sketch an orthonormal basis Q of the range of V0 with the seeded
randomized range finder, and project every snapshot column once,
P = Q^T V.  The rest of the fit runs on the rank-sized P: the SVD
P0 = T Sigma W^H of its leading columns, the one-step propagator
S = T^H P1 W Sigma^{-1}, its eigendecomposition S X = X Lambda, the
mode coefficients B = T X at unit discrete-L2 norm, and the amplitudes
A minimizing ||B A - P||_F.  The modes Q B are formed once at the end.
Because Q B lies in range(Q), the amplitudes equal the least-squares
fit of the modes against the full snapshot matrix.  fit is two steps:
sketch returns Q and P, and RankSpace(P).fit returns B, the eigenvalues
and A from P alone.  The sketch is nested in its rank, so a rank sweep
sketches once at its largest rank and runs the rank-space step on the
leading k rows of P for every k, all from one QR factorization of the
leading columns of P (RankSpace).  Real data makes the
eigenvalues come in conjugate pairs, so the modal sum is real up to
rounding; the reconstruction keeps the real part and checks the
imaginary residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SvdFactors,
    eig_general,
    least_squares,
    qr_factor,
    svd_economy,
    warn,
)
from .rsvd import range_finder


NON_FINITE = "snapshot values contain non-finite entries"

# Rows per block wherever a matrix is scanned or a modal sum evaluated
# block by block: a block's temporaries stay in cache.  A constant, so
# the sums do not depend on the machine.
BLOCK_ROWS = 128

# ModalSum.warn_residue warns when the imaginary part of a modal sum
# exceeds this fraction of the field scale.
RESIDUE_THRESHOLD = 1e-6


def row_blocks(nx):
    """(start, stop) of each BLOCK_ROWS-row block of nx rows, in order."""
    for start in range(0, nx, BLOCK_ROWS):
        yield start, min(start + BLOCK_ROWS, nx)


def add_column_sums(total, block):
    """total += the column sums of block, which is overwritten.

    A block of two or more columns sums row by row from total, as
    numpy's axis-0 reduction of a whole matrix does, so the blocked sums
    equal np.add.reduce(values, axis=0) bit for bit.  numpy sums a
    one-column block (nt = 1, nx > BLOCK_ROWS) pairwise: deterministic,
    equal to empirical._column_energies bit for bit, but it can differ
    from the unblocked reduction in the last bits.
    """
    block[0] += total
    np.add.reduce(block, axis=0, out=total)


class FitStageError(RuntimeError):
    """A stage of the fit pipeline failed; the message names the stage."""


class SnapshotFault(ValueError):
    """What SnapshotMatrix rejects, and where: axis "x" or "t" with index
    the first offending grid point, or axis "values" with index the
    first row holding a non-finite entry."""

    def __init__(self, message, axis, index):
        super().__init__(message)
        self.axis = axis
        self.index = index


def _uniform_grid(g, name):
    """g as a float array of at least 2 finite, strictly increasing,
    uniformly spaced points; SnapshotFault on axis name otherwise."""
    g = np.asarray(g, dtype=float)

    def fault(what, index):
        return SnapshotFault("%s grid %s" % (name, what), name, int(index))

    if g.ndim != 1 or g.size < 2:
        raise fault("needs at least 2 points", 0)
    finite = np.isfinite(g)
    if not finite.all():
        raise fault("contains non-finite entries", np.argmin(finite))
    steps = np.diff(g)
    if steps.min() <= 0:
        raise fault("must be strictly increasing", np.argmax(steps <= 0) + 1)
    scale = max(abs(float(g[0])), abs(float(g[-1])), 1.0)
    uneven = np.abs(steps - steps[0]) > 1e-12 * scale
    if uneven.any():
        raise fault("must be uniformly spaced", np.argmax(uneven) + 1)
    return g


@dataclass(frozen=True)
class SnapshotMatrix:
    """Real field samples u(x_i, t_j) with their uniform space/time grids.

    values has shape (nx, nt + 1); column j is the snapshot at t[j].  A
    bad grid or a non-finite value raises SnapshotFault naming where;
    values are scanned BLOCK_ROWS rows at a time, so no mask of the
    whole matrix is made.  A shape that does not match the grids raises
    ValueError.
    """

    values: np.ndarray
    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        x = _uniform_grid(self.x, "x")
        t = _uniform_grid(self.t, "t")
        if values.shape != (x.size, t.size):
            raise ValueError(
                "values shape %s does not match grids (%d, %d)"
                % (values.shape, x.size, t.size)
            )
        for start, stop in row_blocks(x.size):
            block = values[start:stop]
            if not np.isfinite(block).all():
                bad = np.isfinite(block).all(axis=1)
                raise SnapshotFault(NON_FINITE, "values", start + int(np.argmin(bad)))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)

    @property
    def dx(self):
        return float((self.x[-1] - self.x[0]) / (self.x.size - 1))

    @property
    def dt(self):
        return float((self.t[-1] - self.t[0]) / (self.t.size - 1))


@dataclass(frozen=True)
class InnerProduct:
    """Discrete L2 inner product on a uniform grid: <f, g> = dx * sum f conj(g)."""

    dx: float

    def dot(self, f, g):
        return complex(self.dx * np.sum(np.asarray(f) * np.conj(g)))

    def norm(self, f):
        f = np.asarray(f)
        return float(np.sqrt(self.dx * np.sum(np.abs(f) ** 2)))


@dataclass(frozen=True)
class RodModel:
    """Fitted twin data model.

    modes: (nx, rank) complex, unit discrete-L2-norm columns.
    amplitudes: (rank, nt + 1) complex, one row per mode.
    eigenvalues: (rank,) complex spectrum of the propagator.
    """

    modes: np.ndarray
    amplitudes: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    seed: int
    x: np.ndarray
    t: np.ndarray

    dx = SnapshotMatrix.dx
    dt = SnapshotMatrix.dt

    @property
    def gram_deviation(self):
        """mode_gram_deviation of the modes under the grid's inner product."""
        return mode_gram_deviation(self.modes, InnerProduct(self.dx))


def shift_split(snap):
    """Time-shifted pair (V0, V1): columns 0..nt-1 and 1..nt."""
    if snap.values.shape[1] < 2:
        raise ValueError("need at least 2 snapshot columns to shift")
    return snap.values[:, :-1], snap.values[:, 1:]


def _drop_tiny_singular(svd):
    """Directions with negligible singular values cannot be inverted."""
    sigma = svd.sigma
    smax = float(sigma[0]) if sigma.size else 0.0
    keep = sigma > 1e-12 * smax
    if keep.all():
        return svd
    kept = int(np.count_nonzero(keep))
    if kept == 0:
        raise ValueError("all singular values are negligible; nothing to propagate")
    warn(
        "truncating %d near-zero singular directions before inversion"
        % (sigma.size - kept)
    )
    return SvdFactors(U=svd.U[:, :kept], sigma=sigma[:kept], W=svd.W[:, :kept])


def propagator(svd, v1):
    """One-step propagator S = U^H V1 W Sigma^{-1} in the reduced basis.

    Directions with negligible singular values are dropped first (with a
    warning), so S is square in the number of kept directions, which
    are the leading columns of U.  The fit passes the SVD T Sigma Y^T
    of R^T from the QR P0^T = Z R of the projected data, with
    V1 = P1 Z (see RankSpace); W = Z Y, so this is the same S.
    """
    svd = _drop_tiny_singular(svd)
    v1 = np.asarray(v1)
    if v1.shape[0] != svd.U.shape[0] or v1.shape[1] != svd.W.shape[0]:
        raise ValueError("V1 shape does not match the SVD factors")
    return svd.U.conj().T @ v1 @ (svd.W / svd.sigma)


def rod_modes(basis, eig, ip):
    """Spatial modes: basis-weighted eigenvector combinations at unit L2 norm.

    Column i is basis @ X[:, i] scaled to unit norm under ip.  A column
    whose norm underflows (defective pairing) is dropped with a warning.
    Lifting by a Q with orthonormal columns keeps these norms, so the
    fit passes T and gets the coefficients B of the modes Q B.
    Returns (modes, eigenvalues of the kept modes).
    """
    raw = np.asarray(basis) @ eig.vectors
    norms = np.sqrt(ip.dx * np.sum(np.abs(raw) ** 2, axis=0))
    keep = norms > 1e-14 * max(float(norms.max()), 1e-300)
    if not keep.all():
        warn("dropping %d zero-norm mode column(s)" % int((~keep).sum()))
        if not keep.any():
            raise ValueError("all mode columns degenerate")
    return raw[:, keep] / norms[keep], eig.values[keep]


def amplitudes(modes, values):
    """Amplitude matrix minimizing ||modes @ A - values||_F over all columns.

    The least-squares weight is dx-uniform, so the plain solve is
    identical to the weighted one.  Orthonormal modes reduce this to
    inner-product projection.  An ill-conditioned basis (condition
    1e12 or beyond) still yields the minimum-norm solution, with the one
    warning of least_squares.  The fit passes the mode coefficients B
    and the projected data P = Q^T V: Q has orthonormal columns, so
    cond(Q B) = cond(B) and the part of V outside range(Q) does not
    move the minimizer.
    """
    modes = np.asarray(modes)
    values = np.asarray(values)
    if modes.shape[1] > values.shape[1]:
        raise ValueError("more modes than snapshot columns")
    return least_squares(modes, values)


def mode_gram_deviation(modes, ip):
    """Largest off-diagonal magnitude of the mode Gram matrix minus identity.

    Zero for a perfectly orthonormal basis under ip; near-real conjugate
    mode pairs push it toward 1.
    """
    modes = np.asarray(modes)
    gram = ip.dx * (modes.conj().T @ modes)
    off = np.abs(gram - np.eye(gram.shape[0]))
    np.fill_diagonal(off, 0.0)
    return float(off.max()) if off.size > 1 else 0.0


def _stage(name, func, *args):
    """Run one fit stage; a computational failure becomes a FitStageError
    naming the stage, while precondition violations (ValueError) pass."""
    try:
        return func(*args)
    except ValueError:
        raise
    except Exception as exc:
        raise FitStageError("stage '%s' failed: %s" % (name, exc)) from exc


def sketch(snap, rank_max, seed):
    """Sketch step of fit: the basis Q of V0 and the projection P = Q^T V.

    Runs the randomized range finder on V0 at rank_max columns and the
    seed (no oversampling) and projects all nt + 1 snapshot columns
    once.  The test matrix fills column by column and Householder QR
    keeps a column prefix, so Q[:, :k] and P[:k] are the sketch at rank
    k up to rounding: one sketch at rank_max serves every k <= rank_max.
    Returns (Q, P) of shapes (nx, rank_max) and (rank_max, nt + 1).
    """
    rank_max = int(rank_max)
    v0 = shift_split(snap)[0]
    if not 1 <= rank_max <= min(v0.shape):
        raise ValueError(
            "rank %d outside [1, %d] for this snapshot matrix"
            % (rank_max, min(v0.shape))
        )
    q = _stage("rsvd", range_finder, v0, rank_max, seed)
    return q, q.T @ snap.values


class RankSpace:
    """The rank-space step of fit for every leading row block of one
    rank_max x (nt + 1) projection P.

    Householder QR factors P0^T = Z R and G = P1 Z once, with P0 and
    P1 the first and last nt columns of P.  R^T is lower triangular, so
    P0[:k] = R[:k, :k]^T Z[:, :k]^T for every k: the SVD
    R[:k, :k]^T = T Sigma Y^T gives that of P0[:k] with W = Z[:, :k] Y,
    and the propagator T^H P1[:k] W Sigma^{-1} is T^H G[:k, :k] Y
    Sigma^{-1}.  Rank k therefore costs k x k factorizations and the
    amplitude solve against P[:k], whatever nt is.
    """

    def __init__(self, proj):
        self._proj = proj
        z, self._r = _stage("rsvd", np.linalg.qr, proj[:, :-1].T)
        self._g = proj[:, 1:] @ z

    def fit(self, k, ip, reorthonormalize=False):
        """Rank-space step on P[:k]: the SVD of P[:k, :-1], the
        propagator, its eigendecomposition, the mode coefficients B at
        unit norm under ip, the optional reorthonormalization of B, and
        the amplitudes A minimizing ||B A - P[:k]||_F.  Returns (B,
        eigenvalues of the kept modes, A); the modes are Q[:, :k] B."""
        inner = _stage("rsvd", svd_economy, self._r[:k, :k].T)
        prop = _stage("propagator", propagator, inner, self._g[:k, :k])
        eig = _stage("eigendecomposition", eig_general, prop)
        # the propagator keeps the leading directions of T
        kept = inner.U[:, : prop.shape[0]]
        coeff, eigenvalues = _stage("modes", rod_modes, kept, eig, ip)
        if reorthonormalize:
            coeff = qr_factor(coeff)[0] / np.sqrt(ip.dx)
        amp = _stage("amplitudes", amplitudes, coeff, self._proj[:k])
        return coeff, eigenvalues, amp


def fit(snap, rank, seed, reorthonormalize=False):
    """Fit a twin data model of the given rank.

    The sketch step at rank_max = rank (one pass over the data after
    the range finder), the rank-space step on the projection, and the
    lift of the modes Q B, formed once at the end.  With
    reorthonormalize=True the mode basis is replaced by its QR
    orthonormalization (the amplitudes are refit accordingly).

    Raises FitStageError naming the failing stage on computational
    failures; precondition violations raise ValueError directly.
    """
    q, proj = sketch(snap, rank, seed)
    coeff, eigenvalues, amp = RankSpace(proj).fit(
        len(proj), InnerProduct(snap.dx), reorthonormalize
    )
    r = coeff.shape[1]
    lifted = q @ np.hstack([coeff.real, coeff.imag])
    modes = lifted[:, :r] + 1j * lifted[:, r:]
    return RodModel(
        modes=modes,
        amplitudes=amp,
        eigenvalues=eigenvalues,
        rank=r,
        seed=int(seed),
        x=snap.x.copy(),
        t=snap.t.copy(),
    )


class ModalSum:
    """A modal sum L @ (R_re + i R_im) in real arithmetic, evaluated row
    block by row block.

    L is a real (nx, m) left factor, R_re and R_im the real and
    imaginary (m, nt + 1) right factors.  A model gives L = [Mr, Mi]
    with R_re = [Ar; -Ai] and R_im = [Ai; Ar] (from_model); a sweep
    rank gives the sketch basis Q_k with the parts of C = B A.  The sum
    is complex; conjugate eigenpair structure makes it real up to
    rounding.  real_rows() returns the real part of the requested rows,
    rejects non-finite entries as SnapshotMatrix does and tracks the
    field scale over every row it evaluated.  warn_residue() then checks
    the imaginary part against that scale.

    The sum carries the triangular factor R of L = Q R, Q with
    orthonormal columns: the identity for an orthonormal L such as Q_k,
    and for from_model the R of [Mr, Mi].  No row of Q is longer than
    1, so max_j ||R R_im[:, j]||_2 bounds every entry of the imaginary
    part; warn_residue forms that part, one block at a time, only when
    the bound exceeds RESIDUE_THRESHOLD / 2 of the scale.
    """

    def __init__(self, left, right_real, right_imag):
        self._left = left
        self._right = (right_real, right_imag)
        # R of left = Q R; None stands for the identity
        self._tri = None
        self.shape = (left.shape[0], right_real.shape[1])
        self.scale = 0.0

    @classmethod
    def from_model(cls, model):
        mr, mi = model.modes.real, model.modes.imag
        ar, ai = model.amplitudes.real, model.amplitudes.imag
        modal = cls(np.hstack([mr, mi]), np.vstack([ar, -ai]), np.vstack([ai, ar]))
        modal._tri = _triangular_factor(modal._left)
        return modal

    def real_rows(self, start, stop, out):
        """Real part of rows start:stop, written to the (stop - start,
        nt + 1) buffer out; tracks the field scale."""
        real = np.matmul(self._left[start:stop], self._right[0], out=out)
        high, low = float(real.max()), float(real.min())
        if not (math.isfinite(high) and math.isfinite(low)):
            raise ValueError(NON_FINITE)
        self.scale = max(self.scale, high, -low)
        return real

    def _residue_bound(self):
        """max_j ||R R_im[:, j]||_2, an upper bound on every entry of the
        imaginary part."""
        imag = self._right[1] if self._tri is None else self._tri @ self._right[1]
        return float(np.linalg.norm(imag, axis=0).max())

    def _exact_residue(self):
        """The largest magnitude of the imaginary part, formed one block
        at a time; NaN when the part holds a NaN."""
        nx, ncols = self.shape
        imag = np.empty((min(BLOCK_ROWS, nx), ncols))
        residue = 0.0
        for start, stop in row_blocks(nx):
            block = np.matmul(
                self._left[start:stop], self._right[1], out=imag[: stop - start]
            )
            # np.max keeps a NaN residue, which never warns
            residue = float(np.max([residue, block.max(), -block.min()]))
        return residue

    def warn_residue(self):
        """Warn when the imaginary residue, the largest magnitude of the
        imaginary part, exceeds RESIDUE_THRESHOLD of the field scale
        tracked so far.  A bound within half the threshold settles it
        without forming the part."""
        if self._residue_bound() <= RESIDUE_THRESHOLD / 2 * self.scale:
            return
        residue = self._exact_residue()
        if self.scale > 0 and residue > RESIDUE_THRESHOLD * self.scale:
            warn(
                "imaginary residue %.3e exceeds 1e-6 of the field scale %.3e"
                % (residue, self.scale)
            )


def _triangular_factor(left):
    """R of the QR factorization of left, from the QR of R stacked on
    each row block in turn, so no nx-sized copy of left is made."""
    tri = np.zeros((0, left.shape[1]))
    for start, stop in row_blocks(left.shape[0]):
        tri = np.linalg.qr(np.vstack([tri, left[start:stop]]), mode="r")
    return tri


def reconstruct(model):
    """Evaluate the modal sum on the stored grid, returning a SnapshotMatrix.

    The real part of ModalSum is written block by block into the
    result, and an imaginary residue above RESIDUE_THRESHOLD of the
    field scale triggers a warning.
    """
    modal = ModalSum.from_model(model)
    real = np.empty(modal.shape)
    for start, stop in row_blocks(modal.shape[0]):
        modal.real_rows(start, stop, real[start:stop])
    modal.warn_residue()
    return SnapshotMatrix(values=real, x=model.x.copy(), t=model.t.copy())
