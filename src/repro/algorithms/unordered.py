"""Unordered baselines (Bellman-Ford and unordered k-core).

These are the algorithms the paper's Figure 1 and the "GraphIt (unordered)" /
"Ligra" rows of Table 4 run: frontier-based processing with *no* priority
ordering.  Every active vertex is processed every round regardless of its
priority, so work explodes on graphs where ordering prunes redundant
relaxations (weighted graphs, and most dramatically road networks).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.properties import INT_MAX
from ..runtime.frontier import gather_out_edges
from ..runtime.stats import RuntimeStats
from .common import ShortestPathResult, check_source
from .kcore import KCoreResult

__all__ = ["bellman_ford", "unordered_kcore"]


def bellman_ford(
    graph: CSRGraph,
    source: int,
    num_threads: int = 8,
    target: int | None = None,
    frontier_overhead: int = 0,
) -> ShortestPathResult:
    """Frontier-based Bellman-Ford SSSP (the unordered baseline).

    Each round relaxes all out-edges of the vertices whose distance changed
    in the previous round, in arbitrary order.  ``frontier_overhead`` adds
    that many work units per frontier vertex per round (used by the Ligra
    emulation to model its generic frontier bookkeeping).

    ``target`` is accepted for interface parity with PPSP but cannot enable
    early exit: without ordering there is no round at which the target's
    distance is known to be final (the reason unordered PPSP costs the same
    as full SSSP in Table 4).
    """
    check_source(graph, source)
    n = graph.num_vertices
    stats = RuntimeStats(num_threads=num_threads)
    distances = np.full(n, INT_MAX, dtype=np.int64)
    distances[source] = 0
    degrees = graph.out_degrees()
    frontier = np.array([source], dtype=np.int64)

    while frontier.size:
        stats.begin_round()
        stats.charge(degrees[frontier] + 1 + frontier_overhead)
        # Every offer reads the distances of the round's start (a
        # synchronous round, not an ordered one).
        sources, dests, weights = gather_out_edges(graph, frontier)
        stats.relaxations += int(sources.size)
        stats.atomic_ops += int(dests.size)
        candidates = distances[sources] + weights
        old = distances[dests].copy()
        np.minimum.at(distances, dests, candidates)
        frontier = np.unique(dests[distances[dests] < old])
        stats.end_round(syncs=1)

    return ShortestPathResult(
        distances=distances,
        stats=stats,
        schedule=None,
        source=source,
        target=target,
    )


def unordered_kcore(graph: CSRGraph, num_threads: int = 8) -> KCoreResult:
    """Unordered k-core: repeated whole-graph threshold peeling.

    The classic unordered formulation (the one the paper's Figure 1 compares
    against): for each ``k`` in increasing order, repeatedly remove *all*
    remaining vertices with induced degree <= ``k``, **recomputing the
    induced degrees with a full edge scan every round** — the unordered
    model has no per-vertex update ordering to maintain degree counters
    against, so each round pays an edges-wide apply.  Bucketed peeling
    eliminates exactly this redundancy.
    """
    n = graph.num_vertices
    stats = RuntimeStats(num_threads=num_threads)
    sources, dests, _ = graph.edge_list()
    out_degrees = graph.out_degrees()
    alive = np.ones(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    k = 0
    remaining = n
    while remaining > 0:
        stats.begin_round()
        # Full-edge-scan recomputation of induced degrees (the unordered
        # version's defining inefficiency).
        live_edges = alive[sources] & alive[dests]
        stats.relaxations += int(sources.size)
        degrees = np.bincount(sources[live_edges], minlength=n).astype(np.int64)
        # The scan reads every edge; a live vertex costs one more unit.
        stats.charge(out_degrees + alive)
        peelable = alive & (degrees <= k)
        count = int(np.count_nonzero(peelable))
        if count:
            coreness[peelable] = k
            alive[peelable] = False
            remaining -= count
        else:
            k += 1
        stats.end_round(syncs=1)

    return KCoreResult(coreness=coreness, stats=stats, schedule=None)
