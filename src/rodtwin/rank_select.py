"""Rank selection by exhaustive Pareto sweep.

Both fitness values, the reconstruction error j1 and the negated
correlation j2, are fully determined by (data, rank, seed), so the
candidate set is just the integer ranks.  Sweeping them all yields the
exact Pareto front; a selection rule then picks the model order.

The sweep shares one nested sketch: the range finder's test matrix
fills column by column and Householder QR keeps a column prefix, so
the rank-k sketch is the first k columns of the rank-k_max one, up to
rounding (Halko, Martinsson and Tropp, SIAM Review 2011, section 4).
The sweep runs fit's sketch step once at rank_max and its rank-space
step on the leading k rows of the projection for every rank k, through
one rod.RankSpace, and then scores the twins of every rank in one
walk.data_pass over the data, with the terms and formulas of objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, walk
from .linalg import integer
from .rod import InnerProduct, RankSpace, sketch


@dataclass
class ParetoPoint:
    """One sweep candidate: rank, both objectives, dominance flag.

    A failed fit carries the error message and infinite objectives;
    failed points never participate in dominance or selection.
    """

    rank: int
    j1: float
    j2: float
    dominated: bool = False
    error: str = ""

    @property
    def failed(self):
        return bool(self.error)


def objectives(snap, model):
    """(j1, j2) for a fitted model: absolute error and negated correlation,
    streamed from the model without forming its twin."""
    j1, corr = metrics.model_scores(snap, model, "paper")[:2]
    return j1, -corr


def _flag_dominated(points):
    """p is dominated when some other sound point is no worse in both
    objectives and better in one."""
    sound = [p for p in points if not p.failed]
    for p in sound:
        p.dominated = any(
            q.j1 <= p.j1
            and q.j2 <= p.j2
            and (q.j1 < p.j1 or q.j2 < p.j2)
            for q in sound
            if q is not p
        )


# The most floats that the coefficients C_k of one scoring walk hold: a
# constant, as walk.BLOCK_ROWS is, so a sweep's memory is not quadratic in rank.
GROUP_FLOATS = 2**20


def _failed(rank, exc):
    return ParetoPoint(rank=rank, j1=np.inf, j2=np.inf, error=str(exc))


def _score(snap, q, group, by_rank):
    """Score the twins Q[:, :k] C_k of group, a list of (k, C_k), in one
    walk of the data into by_rank; a rank that fails gets an error point."""
    factors = [(q[:, :k], c) for k, c in group]
    twins = [walk.modal_rows(*factor) for factor in factors]
    sums, data_sums, _, _ = walk.data_pass(snap.values, twins, "paper")
    for (rank, _), factor, rank_sums in zip(group, factors, sums):
        try:
            j1, corr = metrics.twin_scores(snap.values, *factor, rank_sums, data_sums, "paper")
            if not (np.isfinite(j1) and np.isfinite(corr)):
                raise ArithmeticError("non-finite objectives j1=%s, j2=%s" % (j1, -corr))
            by_rank[rank] = ParetoPoint(rank=rank, j1=j1, j2=-corr)
        except Exception as exc:
            by_rank[rank] = _failed(rank, exc)


def pareto_sweep(snap, rank_max, seed):
    """Score every rank 1..rank_max at the given seed and flag dominance.

    One sketch of V0 at rank_max serves every rank (see the module
    docstring).  Rank k runs fit's rank-space step on the first k rows
    of the projection P, and its real twin Q[:, :k] C_k, C_k = B_k X_k,
    is scored as objectives scores a model, so the points match
    objectives(snap, fit(snap, k, seed)) up to rounding.  One walk of
    the data scores the ranks whose step succeeded, in order, until
    their C_k would pass GROUP_FLOATS floats.  A per-rank failure, a
    non-finite j1 or j2 included, is recorded in that point's error
    field instead of aborting the sweep; a failed sketch fails every
    point.
    """
    rank_max = integer(rank_max, "rank_max")
    limit = min(snap.values.shape[0], snap.values.shape[1] - 1)
    if not 1 <= rank_max <= limit:
        raise ValueError("rank_max %d outside [1, %d]" % (rank_max, limit))
    ranks = range(1, rank_max + 1)
    try:
        q, proj = sketch(snap, rank_max, seed)
        shared = RankSpace(proj)
    except Exception as exc:
        return [_failed(rank, exc) for rank in ranks]
    ip = InnerProduct(snap.dx)
    by_rank, group = {}, []
    for rank in ranks:
        try:
            coeff, _, amp = shared.fit(rank, ip)
        except Exception as exc:
            by_rank[rank] = _failed(rank, exc)
            continue
        c = coeff @ amp
        if group and sum(held.size for _, held in group) + c.size > GROUP_FLOATS:
            _score(snap, q, group, by_rank)
            group = []
        group.append((rank, c))
    if group:
        _score(snap, q, group, by_rank)
    points = [by_rank[rank] for rank in ranks]
    _flag_dominated(points)
    return points


def select_rank(points, error_tolerance=1e-5):
    """Smallest rank whose error meets the tolerance.

    Scans every successful sweep point, not just the front: when the
    error improves monotonically with rank and the correlation
    saturates, the front degenerates to the single largest rank, yet
    the model order wanted is the cheapest one that is accurate
    enough.  With no point inside the tolerance the fallback is the
    point with the smallest j1 (which is always nondominated).
    """
    sound = [p for p in points if not p.failed]
    if not sound:
        # name the first failure, so that a failed sweep says why
        reason = ""
        if points:
            reason = "; rank %d failed: %s" % (points[0].rank, points[0].error)
        raise ValueError("no successful sweep points" + reason)
    meeting = [p for p in sound if p.j1 <= error_tolerance]
    if meeting:
        return min(meeting, key=lambda p: p.rank).rank
    return min(sound, key=lambda p: (p.j1, p.rank)).rank
