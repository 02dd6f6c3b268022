"""Rank selection by exhaustive Pareto sweep.

Both fitness values, the reconstruction error j1 and the negated
correlation j2, are fully determined by (data, rank, seed), so the
candidate set is just the integer ranks.  Sweeping them all yields the
exact Pareto front; a selection rule then picks the model order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .rod import fit


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
    j1, corr = metrics.twin_scores(snap, model)
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


def pareto_sweep(snap, rank_max, seed):
    """Fit every rank 1..rank_max at the given seed and flag dominance.

    Each rank is a plain fit(snap, rank, seed).  Per-rank failures are
    recorded in the point's error field instead of aborting the sweep.
    """
    rank_max = int(rank_max)
    limit = min(snap.values.shape[0], snap.values.shape[1] - 1)
    if not 1 <= rank_max <= limit:
        raise ValueError("rank_max %d outside [1, %d]" % (rank_max, limit))
    points = []
    for rank in range(1, rank_max + 1):
        try:
            model = fit(snap, rank, seed)
            j1, j2 = objectives(snap, model)
            points.append(ParetoPoint(rank=rank, j1=j1, j2=j2))
        except Exception as exc:
            points.append(
                ParetoPoint(rank=rank, j1=np.inf, j2=np.inf, error=str(exc))
            )
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
        raise ValueError("no successful sweep points")
    meeting = [p for p in sound if p.j1 <= error_tolerance]
    if meeting:
        return min(meeting, key=lambda p: p.rank).rank
    return min(sound, key=lambda p: (p.j1, p.rank)).rank
