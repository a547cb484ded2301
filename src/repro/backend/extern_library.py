"""The extern functions the DSL programs call, and nothing the DSL can say.

The paper notes that A* search and SetCover "need to use long extern
functions" (Section 6.2); these are this reproduction's equivalents.  They
hold the only copy of SetCover's round: :func:`repro.setcover` is a wrapper
that runs the ``SETCOVER`` DSL program with them.  Each binding has the extern calling
convention ``f(ctx, *args)`` where ``ctx`` is the generated program's
:class:`~repro.backend.runtime_support.Context`:

- ``computeHeuristic`` — fills the A* program's ``h`` vector with the
  floored straight-line distance to the target (admissible on road graphs).
- ``initRatios`` / ``processBucket`` — SetCover's setup and its one round
  body (Blelloch et al.; Julienne).  Every vertex is a set covering its
  closed neighbourhood; sets are bucketed by ``floor(log2(uncovered
  elements))`` and the program dequeues the highest bucket.  A round
  retires exhausted sets, lazily re-buckets sets whose count fell below the
  bucket (the rebucketing traffic that favours the lazy strategy, Section
  7), and runs one randomized claim round among the rest: every uncovered
  element picks its smallest-rank claimant, and a set that wins at least
  ``retention`` of its elements joins the cover; losers retry next round.

``astar_externs()`` / ``setcover_externs()`` return ready-to-pass dicts.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.astar import euclidean_heuristic
from ..errors import GraphItError
from ..graph.csr import CSRGraph
from ..runtime.frontier import gather_out_edges
from ..runtime.stats import RuntimeStats

__all__ = ["astar_externs", "setcover_externs", "collect_setcover_result"]


def astar_externs() -> dict:
    """Externs for the A* DSL program (``computeHeuristic``)."""

    def compute_heuristic(ctx, target):
        graph = ctx.globals.get("edges")
        if graph is None or not graph.has_coordinates:
            raise GraphItError(
                "computeHeuristic requires the loaded graph to carry "
                "vertex coordinates"
            )
        ctx.globals["h"][:] = euclidean_heuristic(graph, int(target))

    return {"computeHeuristic": compute_heuristic}


def setcover_externs(seed: int = 0, retention: float = 0.5) -> dict:
    """Externs for the SetCover DSL program (``initRatios``,
    ``processBucket``)."""

    def init_ratios(ctx):
        graph = ctx.globals["edges"]
        # Initial ratio: closed-neighbourhood size (degree + 1); all uncovered.
        ctx.globals["ratio"][:] = _log_bucket(
            graph.out_degrees().astype(np.int64) + 1
        )
        ctx.setcover_state = {
            "covered": np.zeros(graph.num_vertices, dtype=bool),
            "cover": [],
            "rng": np.random.default_rng(seed),
        }

    def process_bucket(ctx, bucket):
        bucket = np.asarray(bucket, dtype=np.int64)
        if bucket.size == 0:
            return  # an empty bucket is not a round
        graph = ctx.globals["edges"]
        queue = ctx.queues[0]
        state = ctx.setcover_state
        covered = state["covered"]
        stats = ctx.stats
        bucket_value = queue.get_current_priority()
        stats.begin_round()
        counts, set_index, elements = _closed_neighborhood_uncovered(
            graph, bucket, covered
        )
        stats.relaxations += int(elements.size)
        # A set's work is its uncovered closed neighbourhood, plus one.
        ctx.charge(counts)
        exhausted = bucket[counts == 0]
        if exhausted.size:
            queue.remove_batch(exhausted)
        log_buckets = _log_bucket(counts)
        downgraded_mask = (counts > 0) & (log_buckets < bucket_value)
        downgraded = bucket[downgraded_mask]
        if downgraded.size:
            # Lazy re-bucketing: write the new (lower) priority and buffer.
            ctx.globals["ratio"][downgraded] = log_buckets[downgraded_mask]
            stats.priority_updates += int(downgraded.size)
            queue.buffer_changed_batch(downgraded)
        active_mask = (counts > 0) & (log_buckets >= bucket_value)
        if active_mask.any():
            winners = _resolve_conflicts(
                bucket,
                active_mask,
                counts,
                set_index,
                elements,
                retention,
                state["rng"],
                stats,
                graph.num_vertices,
            )
            chosen = bucket[winners]
            if chosen.size:
                state["cover"].append(chosen)
                # A chosen set covers all of its uncovered elements.
                covered[elements[winners[set_index]]] = True
                queue.remove_batch(chosen)
            losers = bucket[active_mask & ~winners]
            if losers.size:
                # Losers stay at their bucket and retry next round with
                # fresh random ranks (lazy reinsertion).
                queue.requeue_batch(losers)
        stats.end_round(syncs=2)

    return {"initRatios": init_ratios, "processBucket": process_bucket}


def collect_setcover_result(run_result) -> tuple[np.ndarray, np.ndarray]:
    """Extract ``(cover, covered)`` from a SetCover DSL run."""
    state = getattr(run_result.context, "setcover_state", None)
    if state is None:
        raise GraphItError("the program did not run the SetCover externs")
    cover = (
        np.sort(np.concatenate(state["cover"]))
        if state["cover"]
        else np.empty(0, dtype=np.int64)
    )
    return cover, state["covered"]


def _closed_neighborhood_uncovered(
    graph: CSRGraph, sets: np.ndarray, covered: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-set uncovered element count, plus the flat (set-index, element)
    incidence restricted to uncovered elements."""
    sources, dests, _ = gather_out_edges(graph, sets)
    set_index = np.searchsorted(sets, sources)
    # Closed neighbourhood: each set also covers itself.
    self_index = np.arange(sets.size, dtype=np.int64)
    set_index = np.concatenate([set_index, self_index])
    elements = np.concatenate([dests, sets])
    uncovered_mask = ~covered[elements]
    set_index = set_index[uncovered_mask]
    elements = elements[uncovered_mask]
    counts = np.bincount(set_index, minlength=sets.size).astype(np.int64)
    return counts, set_index, elements


def _log_bucket(counts: np.ndarray) -> np.ndarray:
    """floor(log2(count)) for positive counts (bucket of a set's ratio)."""
    result = np.zeros_like(counts)
    positive = counts > 0
    result[positive] = np.floor(np.log2(counts[positive])).astype(np.int64)
    return result


def _resolve_conflicts(
    candidates: np.ndarray,
    active_mask: np.ndarray,
    counts: np.ndarray,
    set_index: np.ndarray,
    elements: np.ndarray,
    retention: float,
    rng: np.random.Generator,
    stats: RuntimeStats,
    num_elements: int,
) -> np.ndarray:
    """One randomized claim round; returns a winner mask over candidates.

    Every uncovered element picks the incident active candidate with the
    smallest random rank; a candidate wins if it claims at least
    ``retention`` of its uncovered elements.
    """
    ranks = rng.permutation(candidates.size).astype(np.int64)
    active_pairs = active_mask[set_index]
    pair_sets = set_index[active_pairs]
    pair_elements = elements[active_pairs]

    best_rank = np.full(num_elements, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(best_rank, pair_elements, ranks[pair_sets])
    stats.atomic_ops += int(pair_elements.size)

    won_pairs = ranks[pair_sets] == best_rank[pair_elements]
    wins = np.bincount(
        pair_sets[won_pairs], minlength=candidates.size
    ).astype(np.int64)
    needed = np.maximum(1, np.ceil(retention * counts).astype(np.int64))
    return active_mask & (wins >= needed)
