"""Frontier construction helpers: edge gathering for vectorized traversal
and the one extremal relax kernel every write-min / write-max path scatters
through.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "gather_segments",
    "gather_out_edges",
    "gather_in_edges",
    "scatter_extremum",
]

def gather_segments(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Flattened index array covering ``[starts[i], ends[i])`` for every i.

    The standard vectorized segment-gather: positions within the output are
    offset by each segment's start minus the running output offset.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_offsets = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=out_offsets[1:])
    return np.repeat(starts - out_offsets, lengths) + np.arange(total, dtype=np.int64)


def scatter_extremum(
    values: np.ndarray, dests: np.ndarray, candidates: np.ndarray, reduce: np.ufunc
) -> np.ndarray:
    """*The* write-min / write-max relax kernel: offer ``candidates[i]`` to
    ``values[dests[i]]``, keep the better under ``reduce`` (``np.minimum`` or
    ``np.maximum``), and return the sorted distinct vertices that improved.

    Chunk-snapshot semantics: every candidate was computed before any write
    of this call lands, and a vertex offered several improvements counts
    once — "vertices whose value changed", the only update accounting a
    CAS-based native kernel reproduces deterministically.  ``reduce.at``
    folds the improving offers in a scratch array (every one of them beats
    the old value, so their best *is* the new value); ``values`` itself is
    only indexed — one gather, one store of the improved entries — so a
    ``SanitizedVector`` records the read and the write with their indices
    like any other access.
    """
    old = values[dests]
    improving = reduce(candidates, old) != old
    touched, slot = np.unique(dests[improving], return_inverse=True)
    if touched.size:
        offers = candidates[improving]
        best = np.empty(touched.size, dtype=values.dtype)
        best[slot] = offers
        reduce.at(best, slot, offers)
        values[touched] = best
    return touched


def gather_out_edges(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All out-edges of ``vertices`` as ``(sources, destinations, weights)``.

    Sources are repeated per edge so the three arrays align; this is the
    vectorized equivalent of the nested source/edge loop in the generated
    push-direction code.

    Overlay-aware without compaction: on a graph with pending mutations
    the base segments are gathered, removed slots filtered, and pending
    inserts appended — O(frontier edges + overlay), so a resume over a
    freshly-mutated graph never pays an O(E) rebuild.  Filtering the
    stream by a source subset yields exactly the subset's own gather
    (pending edges keep overlay order, not frontier order), which is the
    property the parallel prefetch filter relies on.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    if not graph.has_pending_mutations:
        starts = graph.indptr[vertices]
        ends = graph.indptr[vertices + 1]
        edge_index = gather_segments(starts, ends)
        sources = np.repeat(vertices, ends - starts)
        return sources, graph.indices[edge_index], graph.weights[edge_index]
    indptr, indices, weights = graph.base_csr()
    starts = indptr[vertices]
    ends = indptr[vertices + 1]
    edge_index = gather_segments(starts, ends)
    sources = np.repeat(vertices, ends - starts)
    removed = graph.removed_mask()
    if removed is not None:
        keep = ~removed[edge_index]
        edge_index = edge_index[keep]
        sources = sources[keep]
    dests = indices[edge_index]
    edge_weights = weights[edge_index]
    extra_src, extra_dst, extra_w = graph.pending_out_edges(vertices)
    if extra_src.size:
        sources = np.concatenate([sources, extra_src])
        dests = np.concatenate([dests, extra_dst])
        edge_weights = np.concatenate([edge_weights, extra_w])
    return sources, dests, edge_weights


def gather_in_edges(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All in-edges of ``vertices`` as ``(sources, destinations, weights)``.

    Destinations are the given vertices (repeated per edge); used by the
    pull-direction traversal.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    indptr, indices, weights = graph.in_csr()
    if vertices.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    starts = indptr[vertices]
    ends = indptr[vertices + 1]
    edge_index = gather_segments(starts, ends)
    dests = np.repeat(vertices, ends - starts)
    return indices[edge_index], dests, weights[edge_index]
