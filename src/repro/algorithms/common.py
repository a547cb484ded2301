"""The library's extremal-path engine: one relaxer, one driver.

Table 1 defines ``updatePriorityMin`` and ``updatePriorityMax`` as mirror
images, and every path algorithm here is one of the two: the Δ-stepping
family (SSSP, wBFS, PPSP, A*) keeps the minimum of ``dist[src] + w``, widest
path keeps the maximum of ``min(width[src], w)``.  An :class:`Extremum`
captures the whole difference (:data:`MIN`, :data:`MAX`);
:func:`make_relaxer` builds the vectorized edge relaxation for either, push
or pull; and :func:`resume_extremal` builds the scheduled queue, seeds it,
and drives the matching :mod:`repro.core.executors` loop to the fixpoint.  A
from-scratch run is a resume whose only seed is the source, which is how
:func:`run_delta_stepping`, ``widest_path`` and the incremental engine's
first run and every later resume all share this one function.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..buckets.eager import EagerBucketQueue
from ..buckets.interface import NULL_PRIORITY_HIGHER
from ..buckets.lazy import LazyBucketQueue
from ..buckets.relaxed import RelaxedPriorityQueue
from ..core.executors import Relaxer, run_eager, run_lazy, run_lazy_pull, run_relaxed
from ..errors import GraphError, SchedulingError
from ..graph.csr import CSRGraph
from ..graph.properties import INT_MAX
from ..midend.schedule import Schedule
from ..runtime.frontier import gather_in_edges, gather_out_edges, scatter_extremum
from ..runtime.stats import RuntimeStats
from ..runtime.threads import VirtualThreadPool

__all__ = [
    "ShortestPathResult",
    "Extremum",
    "MIN",
    "MAX",
    "make_relaxer",
    "resume_extremal",
    "run_delta_stepping",
    "check_source",
    "UNREACHABLE",
]

# Public alias for the "no path" sentinel in result distances.
UNREACHABLE = INT_MAX


@dataclass(frozen=True)
class Extremum:
    """One side of the ``updatePriorityMin`` / ``updatePriorityMax`` mirror.

    ``offer`` and ``reduce`` work on scalars and on arrays alike, so the
    vectorized relaxer and the incremental engine's per-edge classification
    read the same definition.
    """

    name: str
    # Internal value of a vertex no path reaches (the queue's null priority),
    # and what such a vertex reports in a published result.
    identity: int
    unreached: int
    # The value pinned at the source.
    source_value: int
    # The value an edge of weight ``w`` offers its head given its tail's value.
    offer: Callable
    # The numpy ufunc that keeps the better of two values (what
    # ``scatter_extremum`` scatters with; ``.reduce`` folds an array).
    reduce: np.ufunc
    # Bucket processing order of the priority queue.
    direction: str

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
    direction="lower_first",
)
MAX = Extremum(
    name="max",
    identity=int(NULL_PRIORITY_HIGHER),
    unreached=0,
    # A source capacity larger than any edge weight ("infinite" bottleneck).
    source_value=2**40,
    offer=np.minimum,
    reduce=np.maximum,
    direction="higher_first",
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


def make_relaxer(
    graph: CSRGraph,
    values: np.ndarray,
    queue,
    stats: RuntimeStats,
    extremum: Extremum = MIN,
    heuristic: np.ndarray | None = None,
    frontier_map: np.ndarray | None = None,
) -> Relaxer:
    """Vectorized edge relaxation with write-min / write-max semantics.

    Implements the ``updateEdge`` UDF of Figure 3 (and its max mirror): for
    each edge ``(src, dst, w)`` of the chunk, propose ``extremum.offer(
    values[src], w)`` and keep the better.  Destinations whose value improved
    are routed into the queue's buckets — eagerly into the calling thread's
    local bins for an :class:`EagerBucketQueue`, or through the dedup-flagged
    update buffer for a :class:`LazyBucketQueue`.

    Parameters
    ----------
    heuristic:
        Optional per-vertex lower bound to the target (A* search): the
        queue's priority vector is then ``values + heuristic`` rather than
        ``values`` itself, and is refreshed for every improved vertex.
    frontier_map:
        Selects pull traversal (Figure 9(b), DensePull): chunks are
        *destination* vertices whose in-edges are scanned, accepting
        contributions only from sources set in this boolean map (the executor
        refreshes it each round).  No atomics are charged: a destination is
        written exclusively by its owner (the paper's dependence analysis
        drops the ``atomicWriteMin`` here).
    """
    eager = isinstance(queue, EagerBucketQueue)
    pull = frontier_map is not None
    gather_edges = gather_in_edges if pull else gather_out_edges
    priorities = queue.priority_vector
    if eager:
        route = queue.insert_changed_batch
    else:
        # Shared structures take no thread id: the relaxed queue's bins, or
        # the lazy queue's dedup-flagged update buffer.
        shared_insert = (
            queue.insert_changed_batch
            if isinstance(queue, RelaxedPriorityQueue)
            else queue.buffer_changed_batch
        )

        def route(thread_id: int, changed: np.ndarray) -> None:
            shared_insert(changed)

    def gather(chunk: np.ndarray, thread_id: int):
        # Pure produce phase: reads only the immutable CSR topology/weights,
        # so it is safe to run concurrently with other produces and with the
        # coordinator's commits.
        return gather_edges(graph, chunk)

    def relax(chunk: np.ndarray, thread_id: int, prefetched) -> int:
        if eager:
            # Re-filter against the current priority: another thread of this
            # round may have already moved a vertex past this bucket (the
            # ``dist >= Δ * bucket`` check in GAPBS).
            live = chunk[
                np.asarray(queue.order_of_value(priorities[chunk]))
                == queue.current_order
            ]
            if live.size != chunk.size:
                chunk, prefetched = live, None
        if prefetched is None:
            prefetched = gather_edges(graph, chunk)
        sources, dests, weights = prefetched
        scanned = int(sources.size)
        if scanned == 0:
            return 0
        stats.relaxations += scanned
        if pull:
            on_frontier = frontier_map[sources]
            sources = sources[on_frontier]
            dests = dests[on_frontier]
            weights = weights[on_frontier]
            if sources.size == 0:
                return scanned
        else:
            stats.atomic_ops += scanned
        changed = scatter_extremum(
            values, dests, extremum.offer(values[sources], weights), extremum.reduce
        )
        if changed.size:
            stats.priority_updates += int(changed.size)
            if heuristic is not None:
                priorities[changed] = values[changed] + heuristic[changed]
            route(thread_id, changed)
        return scanned + int(changed.size)

    relax.gather = gather
    return relax


def resume_extremal(
    graph: CSRGraph,
    source: int,
    schedule: Schedule,
    extremum: Extremum,
    values: np.ndarray,
    seeds,
    stats: RuntimeStats | None = None,
    heuristic: np.ndarray | None = None,
    target: int | None = None,
    relaxed_ordering: bool = False,
) -> ShortestPathResult:
    """Relax to the fixpoint from a partially-converged value vector.

    ``values`` is the live vector in internal form (``extremum.identity`` for
    unreached vertices), mutated in place; ``seeds`` are the vertices whose
    out-edges may still be tense — the scheduled queue is seeded with them at
    their *current* priorities.  With an empty seed set the state is already
    a fixpoint and the call returns immediately.

    Parameters
    ----------
    heuristic:
        Per-vertex admissible lower bound to ``target`` (A*): bucket
        priorities become ``values + heuristic`` instead of ``values``.
    target:
        Enables early termination once the current bucket's priority bound
        reaches the best known value (+ heuristic) of the target — the
        PPSP/A* stop condition from Section 6.1.
    relaxed_ordering:
        Replace strict bucketing with the approximate (Galois-style) queue.
    """
    check_source(graph, source)
    if target is not None:
        check_source(graph, target, "target")
    n = graph.num_vertices
    if values.shape != (n,):
        raise GraphError("values must have one entry per vertex")
    if heuristic is not None:
        if target is None:
            raise GraphError("a heuristic requires a target vertex")
        heuristic = np.asarray(heuristic, dtype=np.int64)
        if heuristic.shape != (n,):
            raise GraphError("heuristic must have one entry per vertex")
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
    if extremum is MAX and schedule.direction != "SparsePush":
        raise SchedulingError("widest path currently supports push traversal only")

    if stats is None:
        stats = RuntimeStats(num_threads=schedule.num_threads)
    stats.execution = schedule.execution
    result = ShortestPathResult(
        distances=values, stats=stats, schedule=schedule, source=source, target=target
    )
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        return result

    pool = VirtualThreadPool(
        schedule.num_threads,
        schedule.parallelization,
        schedule.chunk_size,
        execution=schedule.execution,
    )
    if heuristic is None:
        priorities = values
    else:
        priorities = np.full(n, extremum.identity, dtype=np.int64)
        priorities[seeds] = values[seeds] + heuristic[seeds]
    queue_args = dict(
        direction=extremum.direction,
        delta=schedule.delta,
        stats=stats,
        initial_vertices=seeds,
    )
    frontier_map = None
    if relaxed_ordering:
        queue = RelaxedPriorityQueue(priorities, slack=4, **queue_args)
    elif schedule.is_eager:
        queue = EagerBucketQueue(
            priorities, num_threads=schedule.num_threads, **queue_args
        )
    else:
        queue = LazyBucketQueue(
            priorities, num_open_buckets=schedule.num_buckets, **queue_args
        )
        if schedule.direction == "DensePull":
            frontier_map = np.zeros(n, dtype=bool)

    should_stop = None
    if target is not None:

        def should_stop() -> bool:
            best = values[target]
            if best == extremum.identity:
                return False
            bound = best if heuristic is None else best + heuristic[target]
            # The current bucket is at or past the target's priority.
            return extremum.reduce(queue.get_current_priority(), bound) == bound

    relax = make_relaxer(graph, values, queue, stats, extremum, heuristic, frontier_map)
    if relaxed_ordering:
        run_relaxed(graph, queue, relax, pool, stats, should_stop)
    elif schedule.is_eager:
        threshold = schedule.bucket_fusion_threshold if schedule.uses_fusion else 0
        run_eager(graph, queue, relax, pool, stats, threshold, should_stop)
    elif frontier_map is not None:
        run_lazy_pull(graph, queue, relax, pool, stats, frontier_map, should_stop)
    else:
        run_lazy(graph, queue, relax, pool, stats, should_stop)
    return result


def run_delta_stepping(
    graph: CSRGraph,
    source: int,
    schedule: Schedule,
    heuristic: np.ndarray | None = None,
    target: int | None = None,
    relaxed_ordering: bool = False,
) -> ShortestPathResult:
    """Run Δ-stepping (Figures 5-7) from scratch under the given schedule;
    see :func:`resume_extremal` for ``heuristic`` / ``target`` /
    ``relaxed_ordering``."""
    check_source(graph, source)
    return resume_extremal(
        graph,
        source,
        schedule,
        MIN,
        MIN.fresh(graph.num_vertices, source),
        [source],
        heuristic=heuristic,
        target=target,
        relaxed_ordering=relaxed_ordering,
    )
