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
leading columns of P (RankSpace).  Real data makes the eigenvalues
come in conjugate pairs; the amplitudes are solved in each pair's real
basis (Re b, Im b), and the model holds the twin's real factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import walk
from .linalg import (
    SvdFactors,
    eig_general,
    integer,
    least_squares,
    numerical_rank,
    qr_factor,
    svd_economy,
    warn,
)
from .rsvd import range_finder


class FitStageError(RuntimeError):
    """A stage of the fit pipeline failed; the message names the stage."""


class SnapshotFault(ValueError):
    """What SnapshotMatrix or RodModel rejects, and where: axis "x" or
    "t" and the first offending grid point; the array ("values",
    "left", "right" or "eigenvalues") and its first row holding a
    non-finite entry; or "eigenvalues" and the first one not paired."""

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
    # within 1e-12 of the grid's magnitude, as np.linspace rounds the
    # steps of a grid far from zero by more than 1e-12 of the step, and
    # within 1e-3 of the step, which a grid whose span is tiny next to its
    # magnitude cannot hold
    deviation = np.abs(steps - steps[0])
    magnitude = max(abs(g[0]), abs(g[-1]))
    uneven = (deviation > 1e-12 * magnitude) | (deviation > 1e-3 * steps[0])
    if uneven.any():
        raise fault("must be uniformly spaced", np.argmax(uneven) + 1)
    return g


@dataclass(frozen=True)
class SnapshotMatrix:
    """Real field samples u(x_i, t_j) with their uniform space/time grids.

    values has shape (nx, nt + 1); column j is the snapshot at t[j].  A
    bad grid or a non-finite value raises SnapshotFault naming where;
    values are scanned one block of rows at a time, so no mask of the
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
        row = walk.first_non_finite_row(values)
        if row is not None:
            raise SnapshotFault(walk.NON_FINITE, "values", row)
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


def _conjugate_form(real, eigenvalues, sign):
    """real as complex columns, each entry one of real's, its sign flipped
    or not: a pair's u, v become u + sign iv and u - sign iv."""
    first = np.flatnonzero(eigenvalues.imag > 0)
    out = real.astype(complex)
    out.imag[:, first] = sign * real[:, first + 1]
    out.real[:, first + 1] = real[:, first]
    out.imag[:, first + 1] = -sign * real[:, first + 1]
    return out


def _off_diagonal(gram):
    """Largest off-diagonal magnitude of gram minus the identity."""
    off = np.abs(gram - np.eye(gram.shape[0]))
    np.fill_diagonal(off, 0.0)
    return float(off.max()) if off.size > 1 else 0.0


@dataclass(frozen=True)
class RodModel:
    """Fitted twin data model: the twin is the real product left @ right.

    left: (nx, rank) and right: (rank, nt + 1), both real; eigenvalues:
    (rank,) complex spectrum of the propagator.  A real eigenvalue's
    mode and amplitudes are its column of left and row of right; a
    pair's columns u, v and rows α, β are the modes u ± iv and the
    amplitudes (α ∓ iβ) / 2.  The views modes (columns of unit
    discrete-L2 norm) and amplitudes are formed on each read.

    x and t are grids as SnapshotMatrix takes them.  rank, at least 1,
    is the number of eigenvalues, nx and nt + 1 the sizes of x and t;
    another shape raises ValueError naming the array.  Each eigenvalue
    is real or the first of an adjacent pair, imaginary part positive,
    whose second is its exact conjugate.  SnapshotFault names a grid
    fault, the first row of left, right or the eigenvalues, in that
    order, holding a non-finite entry, or the first eigenvalue not so
    paired.  The model holds what was checked, as
    SnapshotMatrix does: the grids as float64, left and right as float64
    (complex ones raise ValueError), the eigenvalues as complex128 and
    seed as an int (a seed that is not an integer raises ValueError),
    so every model it accepts can be written and read back.
    """

    left: np.ndarray
    right: np.ndarray
    eigenvalues: np.ndarray
    seed: int
    x: np.ndarray
    t: np.ndarray

    dx = SnapshotMatrix.dx
    dt = SnapshotMatrix.dt

    def __post_init__(self):
        x, t = _uniform_grid(self.x, "x"), _uniform_grid(self.t, "t")
        values = np.asarray(self.eigenvalues, dtype=complex)
        rank = values.size
        if rank < 1:
            raise ValueError("model rank must be at least 1")
        left, right = np.asarray(self.left), np.asarray(self.right)
        if np.iscomplexobj(left) or np.iscomplexobj(right):
            raise ValueError("model left and right factors must be real")
        left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
        for axis, name, value, shape in (
            ("left", "modes", left, (x.size, rank)),
            ("right", "amplitudes", right, (rank, t.size)),
            ("eigenvalues", "eigenvalues", values, (rank,)),
        ):
            if value.shape != shape:
                raise ValueError("model %s shape %s is not %s" % (name, value.shape, shape))
            if not np.isfinite(value).all():
                # the row walk runs only on failure: a valid model pays one pass
                row = walk.first_non_finite_row(value.reshape(len(value), -1))
                raise SnapshotFault("model %s contain non-finite entries" % name, axis, row)
        seed = integer(self.seed, "model seed")
        j = 0
        while j < values.size:
            k = j + 1 + (values[j].imag != 0)
            # k - 1 must hold the conjugate of j: j itself, or its partner
            if values[j].imag < 0 or k > values.size or values[k - 1] != values[j].conj():
                what = "mode %d is neither real nor the first of an exactly conjugate pair"
                raise SnapshotFault(what % j, "eigenvalues", j)
            j = k
        checked = dict(left=left, right=right, eigenvalues=values, seed=seed, x=x, t=t)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def rank(self):
        return len(self.eigenvalues)

    @property
    def modes(self):
        return _conjugate_form(self.left, self.eigenvalues, 1)

    @property
    def amplitudes(self):
        half = np.where(self.eigenvalues.imag == 0, 1.0, 0.5)[:, None]
        return _conjugate_form((half * self.right).T, self.eigenvalues, -1).T

    @property
    def gram_deviation(self):
        """mode_gram_deviation of the modes left @ E from the real Gram."""
        e = _conjugate_form(np.eye(self.rank), self.eigenvalues, 1)
        return _off_diagonal(e.conj().T @ (self.dx * (self.left.T @ self.left)) @ e)


def _drop_tiny_singular(svd):
    """Directions with negligible singular values cannot be inverted."""
    sigma = svd.sigma
    kept = numerical_rank(sigma)
    if kept == sigma.size:
        return svd
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
    return svd.U.conj().T @ v1 @ (svd.W / svd.sigma)


def rod_modes(basis, vectors, ip):
    """Spatial modes: basis-weighted eigenvector combinations at unit L2 norm.

    Column i is basis @ vectors[:, i] scaled to unit norm under ip.
    Lifting by a Q with orthonormal columns keeps these norms, so the
    fit passes T and gets the coefficients B of the modes Q B.
    """
    raw = basis @ vectors
    return raw / np.sqrt(ip.dx * np.sum(np.abs(raw) ** 2, axis=0))


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
    return least_squares(modes, values)


def mode_gram_deviation(modes, ip):
    """Largest off-diagonal magnitude of the mode Gram matrix minus identity.

    Zero for a perfectly orthonormal basis under ip; near-real conjugate
    mode pairs push it toward 1.
    """
    modes = np.asarray(modes)
    return _off_diagonal(ip.dx * (modes.conj().T @ modes))


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
    Returns (Q, P) of shapes (nx, rank_max) and (rank_max, nt + 1).  A
    rank_max or a seed that is not an integer (a numpy integer is one)
    raises ValueError naming it, as rank or seed.
    """
    rank_max = integer(rank_max, "rank")
    v0 = snap.values[:, :-1]
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
        z, self._r = _stage("rank-space QR", np.linalg.qr, proj[:, :-1].T)
        self._g = proj[:, 1:] @ z

    def fit(self, k, ip, reorthonormalize=False):
        """Rank-space step on P[:k]: the SVD of P[:k, :-1], the
        propagator, its eigendecomposition, the mode coefficients at unit
        norm under ip, their real basis B (a real eigenvalue keeps its
        column, the pair b, conj(b) gives Re b, Im b), its optional
        reorthonormalization, and the real amplitudes X minimizing
        ||B X - P[:k]||_F.  Returns (B, the propagator's eigenvalues, X);
        the twin is Q[:, :k] B X."""
        inner = _stage("rank-space SVD", svd_economy, self._r[:k, :k].T)
        prop = _stage("propagator", propagator, inner, self._g[:k, :k])
        eigenvalues, vectors = _stage("eigendecomposition", eig_general, prop)
        # the propagator keeps the leading directions of T
        kept = inner.U[:, : prop.shape[0]]
        coeff = _stage("modes", rod_modes, kept, vectors, ip)
        # LAPACK puts a pair's member with the positive imaginary part first
        first = np.flatnonzero(eigenvalues.imag > 0)
        # column-major: OpenBLAS then lifts each column of B to the same
        # bits whatever the columns beside it; with a row-major B the last
        # bits of columns 17 to 20 moved at rank 20
        basis = coeff.real.copy(order="F")
        basis[:, first + 1] = coeff.imag[:, first]
        if reorthonormalize:
            basis = qr_factor(basis)[0] / np.sqrt(ip.dx)
            # orthonormal u, v give the orthonormal modes (u ± iv) / sqrt(2)
            basis[:, eigenvalues.imag != 0] /= np.sqrt(2.0)
        amp = _stage("amplitudes", amplitudes, basis, self._proj[:k])
        return basis, eigenvalues, amp


def fit(snap, rank, seed, reorthonormalize=False):
    """Fit a twin data model of the given rank.

    The sketch step at rank_max = rank (one pass over the data after
    the range finder), the rank-space step on the projection, and the
    lift of the real basis Q B, formed once at the end: the model holds
    Q B and the real amplitudes X as they come.  With reorthonormalize=True
    the real basis is replaced by its QR orthonormalization (the
    amplitudes are refit accordingly).

    Raises FitStageError naming the failing stage on computational
    failures; precondition violations raise ValueError directly.
    """
    q, proj = sketch(snap, rank, seed)
    basis, eigenvalues, amp = RankSpace(proj).fit(
        len(proj), InnerProduct(snap.dx), reorthonormalize
    )
    return RodModel(q @ basis, amp, eigenvalues, seed, snap.x.copy(), snap.t.copy())


def reconstruct(model):
    """Evaluate the modal sum on the stored grid, returning a SnapshotMatrix.

    The twin is the real product left @ right of the model, formed one
    row block at a time from the twin rows that the quality report sums:
    the bits are those rows', and the product of the whole left changed
    them with the BLAS thread count.  No numpy overflow warning is
    shown: SnapshotMatrix rejects a non-finite entry with SnapshotFault.
    """
    values = walk.form(walk.modal_rows(model.left, model.right), (model.x.size, model.t.size))
    return SnapshotMatrix(values=values, x=model.x.copy(), t=model.t.copy())
