"""Weighted breadth-first search (wBFS).

Section 6.1: wBFS is Δ-stepping specialized to graphs with small positive
integer weights (the paper uses weights in ``[1, log n)``), with Δ fixed to 1
so every bucket holds exactly one distance value.  ``wbfs`` runs the
``WBFS`` DSL program (the ``SSSP`` text; only the schedule differs).
"""

from __future__ import annotations

from ..errors import SchedulingError
from ..graph.csr import CSRGraph
from ..lang.programs import WBFS
from ..midend.schedule import Schedule
from .common import ShortestPathResult, run_path_program

__all__ = ["wbfs", "DEFAULT_WBFS_SCHEDULE"]

DEFAULT_WBFS_SCHEDULE = Schedule(
    priority_update="eager_with_fusion",
    delta=1,
    bucket_fusion_threshold=1000,
)


def wbfs(
    graph: CSRGraph,
    source: int,
    schedule: Schedule | None = None,
) -> ShortestPathResult:
    """Δ-stepping with Δ = 1 (one bucket per distance value).

    The schedule may configure any bucketing strategy but must keep
    ``delta == 1``; wBFS is by definition uncoarsened.
    """
    if schedule is None:
        schedule = DEFAULT_WBFS_SCHEDULE
    if schedule.delta != 1:
        raise SchedulingError("wBFS fixes delta to 1 (it is its defining property)")
    return run_path_program(WBFS, "dist", graph, schedule, source)
