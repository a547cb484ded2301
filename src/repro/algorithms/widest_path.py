"""Widest path (maximum bottleneck path) — an extension algorithm.

Table 1 defines ``updatePriorityMax`` and the ``higher_first`` processing
direction, but none of the paper's six benchmarks exercises them (k-core
and SetCover use sums; the shortest-path family uses min).  Widest path is
the natural sixth-plus-one: maximize, over all paths from the source, the
minimum edge weight (capacity) along the path.  It is Δ-stepping mirrored —
buckets are processed from the *highest* capacity down, priorities only
increase, and priority coarsening applies unchanged.  Its DSL program is
``WIDEST`` in :mod:`repro.lang.programs`, and its value semantics are the
:data:`~repro.algorithms.common.MAX` side of the min/max mirror.

``widest_path`` runs ``WIDEST`` under the eager (± fusion), lazy and
relaxed push schedules; ``widest_path_reference`` is the max-heap
Dijkstra-variant oracle.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import SchedulingError
from ..graph.csr import CSRGraph
from ..lang.programs import WIDEST
from ..midend.schedule import Schedule
from .common import MAX, ShortestPathResult, check_source, run_path_program

__all__ = ["widest_path", "widest_path_reference", "DEFAULT_WIDEST_SCHEDULE"]

DEFAULT_WIDEST_SCHEDULE = Schedule(priority_update="eager_with_fusion", delta=8)


def widest_path(
    graph: CSRGraph,
    source: int,
    schedule: Schedule | None = None,
) -> ShortestPathResult:
    """Maximum bottleneck capacity from ``source`` to every vertex.

    The result's ``distances`` array holds the bottleneck widths (the
    source's own entry is a large "infinite" sentinel; unreachable vertices
    hold 0).  Edge weights must be positive.
    """
    schedule = schedule or DEFAULT_WIDEST_SCHEDULE
    if schedule.direction != "SparsePush":
        raise SchedulingError("widest path currently supports push traversal only")
    return run_path_program(
        WIDEST, "width", graph, schedule, source, extremum=MAX
    )


def widest_path_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """Max-heap Dijkstra-variant oracle for widest path."""
    check_source(graph, source)
    widths = np.zeros(graph.num_vertices, dtype=np.int64)
    widths[source] = MAX.source_value
    heap = [(-int(MAX.source_value), source)]
    while heap:
        negative_width, v = heapq.heappop(heap)
        width = -negative_width
        if width != widths[v]:
            continue
        for u, w in graph.out_edges(v):
            candidate = min(width, w)
            if candidate > widths[u]:
                widths[u] = candidate
                heapq.heappush(heap, (-candidate, u))
    return widths
