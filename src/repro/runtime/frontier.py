"""Frontier construction helpers: edge gathering for vectorized traversal
and the segmented scans behind the sequential-exact batch kernels.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "gather_segments",
    "gather_out_edges",
    "gather_in_edges",
    "segmented_running_extrema",
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
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_offsets, lengths)
        + np.repeat(starts, lengths)
    )


def segmented_running_extrema(
    values: np.ndarray, boundary: np.ndarray, maximum: bool = False
) -> np.ndarray:
    """Inclusive running min (or max) of ``values`` within each segment.

    Segments are contiguous runs; ``boundary[i]`` is True at the first
    position of each segment (``boundary[0]`` must be True).  This is the
    scan primitive behind the sequential-exact vectorized apply operators:
    feeding it the *previous* value of each position (seeded with the
    destination's current priority at segment starts) yields, for every
    position, exactly the value the scalar interpreter would observe just
    before processing that position.

    Implemented with the rank-bias trick: values are replaced by their ranks
    (order-isomorphic, so min/max commute with the mapping), each segment's
    ranks are offset so no segment can leak into the next under a global
    ``np.minimum.accumulate``/``np.maximum.accumulate``, and the result is
    mapped back.  Ranks keep the bias products small; an overflow guard
    falls back to a per-segment Python loop for pathological inputs.
    """
    values = np.asarray(values)
    if values.size == 0:
        return values.copy()
    boundary = np.asarray(boundary, dtype=bool)
    segment = np.cumsum(boundary, dtype=np.int64) - 1
    num_segments = int(segment[-1]) + 1
    # Fast path: bias the raw values directly when the value span is small
    # enough that per-segment offsets cannot overflow (the common case —
    # priorities are bounded by the graph's weighted diameter).  Falls back
    # to rank compression, and from there to a per-segment loop.
    vmin = int(values.min())
    vmax = int(values.max())
    span = vmax - vmin + 1
    if (num_segments + 1) * span < 2**62:
        shifted = values.astype(np.int64) - vmin
        if maximum:
            biased = shifted + segment * span
            running = np.maximum.accumulate(biased) - segment * span
        else:
            biased = shifted - segment * span
            running = np.minimum.accumulate(biased) + segment * span
        return (running + vmin).astype(values.dtype, copy=False)
    unique, ranks = np.unique(values, return_inverse=True)
    ranks = ranks.astype(np.int64)
    stride = int(unique.size) + 1
    if (num_segments + 1) * stride >= 2**62:  # pragma: no cover - guard
        out = np.empty_like(values)
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], values.size)
        op = np.maximum if maximum else np.minimum
        for start, end in zip(starts.tolist(), ends.tolist()):
            out[start:end] = op.accumulate(values[start:end])
        return out
    if maximum:
        biased = ranks + segment * stride
        running = np.maximum.accumulate(biased) - segment * stride
    else:
        biased = ranks - segment * stride
        running = np.minimum.accumulate(biased) + segment * stride
    return unique[running]


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
