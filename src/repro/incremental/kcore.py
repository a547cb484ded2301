"""Incremental k-core: capped h-index local fixpoint (Lü et al. 2016).

Coreness admits a local characterization: it is the unique vector reached
by iterating the capped h-index operator

    T(s)[x] = min(s[x], H_x(s)),   H_x(s) = max k with #{w in N(x): s[w] >= k} >= k

from any vector sandwiched between the true coreness and the degree
vector (both are fixpoint barriers: ``T`` is monotone, iterating from
degrees converges to coreness, and coreness itself is a fixpoint).  So an
incremental step only needs a valid *upper bound* ``s`` plus a worklist of
potentially-violating vertices:

- **Deletion** ``(u, v)``: coreness only decreases, so the old coreness
  is a valid upper bound; only the endpoints can violate initially (no
  other vertex's neighborhood changed), and decreases propagate through
  the worklist.
- **Insertion** ``(u, v)``: with ``K = min(core(u), core(v))``, a single
  insertion raises coreness by at most 1, and only for vertices with
  coreness exactly ``K`` reachable from an endpoint via vertices with
  coreness ``>= K`` (a superset of Sarıyüce's purecore — deliberately
  conservative).  Those candidates get ``s = min(core + 1, degree)``.
- **Weight update**: coreness is degree-based; nothing to do.

Mutations are processed one at a time (each step's coreness is exact for
the graph at that point), applied symmetrically to preserve the
undirected invariant k-core requires.  Correctness is bit-exact against
re-peeling because coreness is unique per graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.mutations import Mutation, apply_mutations
from ..midend.schedule import Schedule
from ..obs import metrics, span
from ..runtime.stats import RuntimeStats

__all__ = ["initial_coreness", "apply_kcore_batch"]


def initial_coreness(graph: CSRGraph, schedule: Schedule):
    """The from-scratch peeling run establishing the session state."""
    from ..algorithms.kcore import kcore

    result = kcore(graph, schedule)
    return np.asarray(result.coreness, dtype=np.int64), result.stats, result.execution


def _h_index(values: np.ndarray) -> int:
    """Largest ``k`` with at least ``k`` entries ``>= k`` (multiset H-index)."""
    if values.size == 0:
        return 0
    descending = np.sort(values)[::-1]
    ks = np.arange(1, descending.size + 1, dtype=np.int64)
    # descending[i] - (i+1) is non-increasing, so the comparison mask is a
    # prefix of Trues and its count is the H-index.
    return int(np.count_nonzero(descending >= ks))


def _insertion_candidates(
    graph: CSRGraph, core: np.ndarray, u: int, v: int
) -> list[int]:
    """Vertices whose coreness may rise after inserting ``(u, v)``.

    BFS from both endpoints over vertices with coreness ``>= K``,
    collecting those with coreness exactly ``K`` (the only ones a single
    insertion can promote).
    """
    K = min(int(core[u]), int(core[v]))
    visited: set[int] = set()
    stack = [u, v]
    bumped: list[int] = []
    while stack:
        x = stack.pop()
        if x in visited:
            continue
        visited.add(x)
        if core[x] == K:
            bumped.append(x)
        for w in graph.out_neighbors(x):
            w = int(w)
            if w not in visited and core[w] >= K:
                stack.append(w)
    return bumped


def _local_fixpoint(
    graph: CSRGraph, s: np.ndarray, worklist: set[int], touched: np.ndarray
) -> None:
    """Drive ``s`` down to the greatest fixpoint of the capped h-operator.

    ``s`` must be a pointwise upper bound on the true coreness; every
    initially-violating vertex must be in ``worklist``.  When a vertex's
    value drops, its neighbors are re-examined — chaotic iteration of a
    monotone operator, terminating because values only decrease.
    """
    queue = deque(sorted(worklist))
    pending = set(queue)
    while queue:
        x = queue.popleft()
        pending.discard(x)
        touched[x] = True
        neighbors = graph.out_neighbors(x)
        h = _h_index(s[neighbors])
        new_value = min(int(s[x]), h)
        if new_value < s[x]:
            s[x] = new_value
            for w in np.unique(neighbors):
                w = int(w)
                if w not in pending:
                    pending.add(w)
                    queue.append(w)


def apply_kcore_batch(session, mutations: list[Mutation]):
    """Apply a batch symmetrically and maintain coreness incrementally."""
    from .engine import IncrementalResult

    graph = session.graph
    core = session._values
    n = graph.num_vertices
    touched = np.zeros(n, dtype=bool)
    seeds_total = 0
    invalidated_total = 0

    with span("incremental.kcore", "incremental", mutations=len(mutations)):
        for mutation in mutations:
            apply_mutations(graph, [mutation], symmetric=True)
            if mutation.kind == "update":
                continue  # coreness is degree-based; weights are irrelevant
            u, v = mutation.src, mutation.dst
            s = core.copy()
            degrees = graph.out_degrees()
            if mutation.kind == "add":
                bumped = _insertion_candidates(graph, core, u, v)
                if bumped:
                    bumped_arr = np.asarray(bumped, dtype=np.int64)
                    s[bumped_arr] = np.minimum(
                        core[bumped_arr] + 1, degrees[bumped_arr]
                    )
                worklist = set(bumped) | {u, v}
                invalidated_total += len(bumped)
            else:
                # No pre-capping: H_x <= deg(x) already, so examining the
                # endpoints applies the degree cap *with* propagation (a
                # silent pre-cap would be a decrease the fixpoint never
                # pushes to neighbors).  For x outside {u, v} nothing in
                # N(x) or s changed, so initial violations are endpoints.
                worklist = {u, v}
                invalidated_total += len({u, v})
            seeds_total += len(worklist)
            _local_fixpoint(graph, s, worklist, touched)
            metrics.counter("incremental.kcore_fixpoints").inc()
            touched |= s != core
            core[:] = s

    metrics.counter("incremental.batches").inc()
    metrics.histogram("incremental.seeds").observe(seeds_total)
    metrics.histogram("incremental.invalidated").observe(invalidated_total)
    stats = RuntimeStats(num_threads=session.schedule.num_threads)
    stats.execution = session.schedule.execution
    stats.incremental_runs += 1
    stats.incremental_mutations += len(mutations)
    stats.incremental_seeds += seeds_total
    stats.incremental_invalidated += invalidated_total
    stats.incremental_vertices_touched += int(np.count_nonzero(touched))
    return IncrementalResult(
        values=core.copy(),
        stats=stats,
        incremental=True,
        seeds=seeds_total,
        invalidated=invalidated_total,
        vertices_touched=int(np.count_nonzero(touched)),
    )
