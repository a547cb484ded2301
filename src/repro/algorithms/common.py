"""What the extremal-path wrappers share: value semantics and the result.

Table 1 defines ``updatePriorityMin`` and ``updatePriorityMax`` as mirror
images: the Δ-stepping family (SSSP, wBFS, PPSP, A*) keeps the minimum of
``dist[src] + w``, widest path the maximum of ``min(width[src], w)``.  An
:class:`Extremum` (:data:`MIN`, :data:`MAX`) captures the difference for the
incremental engine; the traversal is the compiled DSL program, which
:func:`run_path_program` runs for every wrapper.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..backend.program import cached_program
from ..errors import GraphError, SchedulingError
from ..graph.csr import CSRGraph
from ..graph.properties import INT_MAX, NULL_PRIORITY_HIGHER
from ..midend.schedule import Schedule
from ..runtime.stats import RuntimeStats

__all__ = [
    "ShortestPathResult",
    "Extremum",
    "MIN",
    "MAX",
    "check_source",
    "run_path_program",
    "UNREACHABLE",
]

# Public alias for the "no path" sentinel in result distances.
UNREACHABLE = INT_MAX


@dataclass(frozen=True)
class Extremum:
    """One side of the ``updatePriorityMin`` / ``updatePriorityMax`` mirror
    (``offer`` and ``reduce`` work on scalars and arrays alike)."""

    name: str
    # Internal value of a vertex no path reaches (the queue's null priority),
    # and what such a vertex reports in a published result.
    identity: int
    unreached: int
    # The value pinned at the source.
    source_value: int
    # The value an edge of weight ``w`` offers its head given its tail's value.
    offer: Callable
    # The ufunc keeping the better of two values (``.reduce`` folds an array).
    reduce: np.ufunc

    def fresh(self, num_vertices: int, source: int) -> np.ndarray:
        """The value vector before any relaxation: only the source is set."""
        values = np.full(num_vertices, self.identity, dtype=np.int64)
        values[source] = self.source_value
        return values

    def publish(self, values: np.ndarray) -> np.ndarray:
        """A copy of ``values`` in published form (unreached vertices report
        :attr:`unreached`; the internal identity is ambiguous for MAX once
        zero-weight edges exist, so resumable state stays internal)."""
        out = values.copy()
        if self.unreached != self.identity:
            out[out == self.identity] = self.unreached
        return out


MIN = Extremum(
    name="min",
    identity=INT_MAX,
    unreached=UNREACHABLE,
    source_value=0,
    offer=operator.add,
    reduce=np.minimum,
)
MAX = Extremum(
    name="max",
    identity=int(NULL_PRIORITY_HIGHER),
    unreached=0,
    # A source capacity larger than any edge weight ("infinite" bottleneck);
    # the WIDEST program pins the same value.
    source_value=2**40,
    offer=np.minimum,
    reduce=np.maximum,
)


@dataclass
class ShortestPathResult:
    """Distances plus the execution profile of the run."""

    distances: np.ndarray
    stats: RuntimeStats
    schedule: Schedule | None
    source: int
    target: int | None = None

    @property
    def target_distance(self) -> int:
        """Distance to the target (for PPSP / A*); raises without a target."""
        if self.target is None:
            raise GraphError("this run had no target vertex")
        return int(self.distances[self.target])

    def reachable(self) -> np.ndarray:
        """Boolean mask of vertices reachable from the source."""
        return self.distances != UNREACHABLE


def check_source(graph: CSRGraph, vertex: int, name: str = "source") -> None:
    if not 0 <= vertex < graph.num_vertices:
        raise GraphError(
            f"{name} vertex {vertex} out of range [0, {graph.num_vertices})"
        )


def run_path_program(
    program: str,
    vector: str,
    graph: CSRGraph,
    schedule: Schedule,
    *points: int,
    extremum: Extremum = MIN,
    extern_functions: dict | None = None,
) -> ShortestPathResult:
    """Run the compiled path ``program`` from ``points`` (the source, then
    any target) and return its ``vector`` global as the distances."""
    for name, vertex in zip(("source", "target"), points):
        check_source(graph, vertex, name)
    if extremum is MIN and graph.has_negative_weights:
        raise GraphError(
            "Δ-stepping requires non-negative edge weights (a negative "
            "weight would violate the monotone-priority contract)"
        )
    if schedule.uses_histogram:
        raise SchedulingError(
            "lazy_constant_sum requires a constant-difference updatePrioritySum "
            f"UDF; path relaxations are write-{extremum.name} updates"
        )
    result = cached_program(program, schedule).run(
        ["path", "-", *map(str, points)], graph=graph, extern_functions=extern_functions
    )
    return ShortestPathResult(result.globals[vector], result.stats, schedule, *points)
