"""A* search on graphs with planar coordinates.

Section 6.1: A* differs from Δ-stepping only in the priority — instead of
the current distance, a vertex's priority is the *estimated* total length of
a source-target path through it, ``dist[v] + h(v)``, where ``h`` is the
straight-line distance to the target.  Because road edge weights are the
rounded-up Euclidean length of the edge (see :func:`repro.graph.road_grid`),
the straight-line estimate never exceeds any true remaining distance, i.e.
the heuristic is admissible and the computed path length is exact.
``astar`` runs the ``ASTAR`` DSL program with the heuristic as its
``computeHeuristic`` extern.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..graph.csr import CSRGraph
from ..lang.programs import ASTAR
from ..midend.schedule import Schedule
from .common import ShortestPathResult, check_source, run_path_program
from .sssp import DEFAULT_SSSP_SCHEDULE

__all__ = ["astar", "euclidean_heuristic"]


def euclidean_heuristic(graph: CSRGraph, target: int) -> np.ndarray:
    """Admissible lower bound: floored straight-line distance to ``target``."""
    if not graph.has_coordinates:
        raise GraphError("A* requires vertex coordinates (longitude/latitude)")
    check_source(graph, target, "target")
    deltas = graph.coordinates - graph.coordinates[target]
    return np.floor(np.hypot(deltas[:, 0], deltas[:, 1])).astype(np.int64)


def astar(
    graph: CSRGraph,
    source: int,
    target: int,
    schedule: Schedule | None = None,
    heuristic: np.ndarray | None = None,
) -> ShortestPathResult:
    """A* shortest path from ``source`` to ``target``.

    ``heuristic`` may override the default Euclidean bound (it must be
    admissible for the result to be exact).  Priority coarsening applies to
    the estimated distances, as in the paper's implementation.
    """
    check_source(graph, target, "target")
    if heuristic is None:
        heuristic = euclidean_heuristic(graph, target)
    heuristic = np.asarray(heuristic, dtype=np.int64)
    if heuristic.shape != (graph.num_vertices,):
        raise GraphError("heuristic must have one entry per vertex")

    def compute_heuristic(ctx, _target):
        ctx.globals["h"][:] = heuristic

    return run_path_program(
        ASTAR,
        "dist",
        graph,
        schedule or DEFAULT_SSSP_SCHEDULE,
        source,
        target,
        extern_functions={"computeHeuristic": compute_heuristic},
    )
