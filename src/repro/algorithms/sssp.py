"""Single-source shortest paths with Δ-stepping (the paper's running example).

``sssp`` is the public entry point, a wrapper that runs the ``SSSP`` DSL
program of :mod:`repro.lang.programs`; ``dijkstra_reference`` provides the
sequential ground truth the test suite verifies every strategy against.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.properties import INT_MAX
from ..lang.programs import SSSP
from ..midend.schedule import Schedule
from .common import ShortestPathResult, check_source, run_path_program

__all__ = ["sssp", "dijkstra_reference", "DEFAULT_SSSP_SCHEDULE"]

# The hand-tuned schedule family from the paper: eager with bucket fusion,
# push traversal.  Δ is graph-dependent (Section 6.2, "Delta Selection");
# callers tune it per graph or via the autotuner.
DEFAULT_SSSP_SCHEDULE = Schedule(
    priority_update="eager_with_fusion",
    delta=8,
    bucket_fusion_threshold=1000,
)


def sssp(
    graph: CSRGraph,
    source: int,
    schedule: Schedule | None = None,
) -> ShortestPathResult:
    """Compute shortest path distances from ``source`` with Δ-stepping.

    Edge weights must be non-negative.  The bucketing strategy, coarsening
    factor Δ, traversal direction, and thread count all come from
    ``schedule`` (Table 2); ``priority_update="relaxed"`` runs the
    Galois-style approximate priority ordering.  The result carries the
    distances and the execution profile (rounds, synchronizations,
    simulated time).
    """
    return run_path_program(
        SSSP, "dist", graph, schedule or DEFAULT_SSSP_SCHEDULE, source
    )


def dijkstra_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """Sequential Dijkstra; the correctness oracle for all SSSP variants."""
    check_source(graph, source)
    distances = np.full(graph.num_vertices, INT_MAX, dtype=np.int64)
    distances[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d != distances[v]:
            continue
        for u, w in graph.out_edges(v):
            candidate = d + w
            if candidate < distances[u]:
                distances[u] = candidate
                heapq.heappush(heap, (candidate, u))
    return distances
