"""Point-to-point shortest path (PPSP).

Section 6.1: Δ-stepping with priority coarsening, terminating early when the
algorithm enters an iteration whose bucket priority ``iΔ`` is at least the
best distance already found for the destination — at that point no remaining
vertex can improve the destination's distance (weights are non-negative).
``ppsp`` runs the ``PPSP`` DSL program, whose loop carries that test.
"""

from __future__ import annotations

from ..graph.csr import CSRGraph
from ..lang.programs import PPSP
from ..midend.schedule import Schedule
from .common import ShortestPathResult, run_path_program
from .sssp import DEFAULT_SSSP_SCHEDULE

__all__ = ["ppsp"]


def ppsp(
    graph: CSRGraph,
    source: int,
    target: int,
    schedule: Schedule | None = None,
) -> ShortestPathResult:
    """Shortest path distance from ``source`` to ``target`` with early exit.

    The result's ``target_distance`` is exact; distances of vertices whose
    buckets were never reached are left at the unreachable sentinel.
    """
    return run_path_program(
        PPSP, "dist", graph, schedule or DEFAULT_SSSP_SCHEDULE, source, target
    )
