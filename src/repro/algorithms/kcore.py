"""k-core decomposition (coreness of every vertex): a wrapper over the
``KCORE`` DSL program.

Section 6.1: the peeling procedure of Matula and Beck — repeatedly remove
the bucket of minimum-degree vertices; a vertex's *coreness* is the value of
``k`` when it is peeled.  Priorities are induced degrees, priorities only
decrease (clamped at the current ``k``: the ``max(priority - count, k)`` of
Figure 10), and strict ordering is required, so priority coarsening is not
allowed.

:func:`kcore` checks the schedule and runs :data:`repro.lang.programs.KCORE`
through :func:`repro.backend.program.cached_program`; the program's priority
vector ``D`` ends as the coreness.  The schedule picks the Table 7 strategy the compiler
lowers to: ``lazy_constant_sum`` (the paper's best: one histogram-transformed
update per distinct neighbour, no atomics), ``lazy`` (buffered per-edge
atomic decrements) or ``eager_no_fusion`` (every unit decrement an immediate
bucket move), and ``execution="native"`` runs the generated C++ kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.program import cached_program
from ..errors import SchedulingError
from ..graph.csr import CSRGraph
from ..lang.programs import KCORE
from ..midend.schedule import Schedule
from ..runtime.stats import RuntimeStats

__all__ = ["kcore", "KCoreResult", "DEFAULT_KCORE_SCHEDULE", "kcore_reference"]

DEFAULT_KCORE_SCHEDULE = Schedule(priority_update="lazy_constant_sum", delta=1)


@dataclass
class KCoreResult:
    """Per-vertex coreness plus the execution profile."""

    coreness: np.ndarray
    stats: RuntimeStats
    schedule: Schedule | None
    #: What computed it (:attr:`repro.backend.program.RunResult.execution`).
    execution: str = "serial"

    @property
    def degeneracy(self) -> int:
        """The maximum coreness (the graph's degeneracy)."""
        return int(self.coreness.max()) if self.coreness.size else 0


def kcore(graph: CSRGraph, schedule: Schedule | None = None) -> KCoreResult:
    """Compute the coreness of every vertex of a symmetric graph.

    The input must be symmetric (use :meth:`CSRGraph.symmetrized`), matching
    the paper's convention for k-core inputs.  k-core requires strict
    ordering: the schedule's ``delta`` must be 1.
    """
    if schedule is None:
        schedule = DEFAULT_KCORE_SCHEDULE
    if schedule.delta != 1:
        raise SchedulingError(
            "k-core requires strict priority ordering; priority coarsening "
            "(delta > 1) is not allowed (Section 2)"
        )
    if schedule.uses_fusion:
        raise SchedulingError(
            "bucket fusion requires priority coarsening and is not "
            "applicable to k-core"
        )
    result = cached_program(KCORE, schedule).run(["kcore", "-"], graph=graph)
    return KCoreResult(
        coreness=result.globals["D"],
        stats=result.stats,
        schedule=schedule,
        execution=result.execution,
    )


def kcore_reference(graph: CSRGraph) -> np.ndarray:
    """Sequential peeling oracle for correctness tests.

    Matula-Beck peeling with a lazy-deletion heap: repeatedly remove a
    vertex of minimum current degree; its coreness is the running maximum of
    the degrees at removal time.
    """
    import heapq

    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    current = graph.out_degrees().astype(np.int64).copy()
    heap = [(int(current[v]), v) for v in range(n)]
    heapq.heapify(heap)
    coreness = np.zeros(n, dtype=np.int64)
    removed = np.zeros(n, dtype=bool)
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != current[v]:
            continue
        removed[v] = True
        k = max(k, d)
        coreness[v] = k
        for u in graph.out_neighbors(v):
            u = int(u)
            if not removed[u]:
                current[u] -= 1
                heapq.heappush(heap, (int(current[u]), u))
    return coreness
