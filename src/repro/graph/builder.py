"""Incremental construction of :class:`~repro.graph.csr.CSRGraph` objects.

The builder accumulates edges in coordinate form and converts them to CSR in
one sort, with optional deduplication of parallel edges and self-loop removal.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph, stable_order

__all__ = ["GraphBuilder", "from_edges"]

_DEDUP_MODES = ("none", "min", "max", "first", "sum")


class GraphBuilder:
    """Accumulates edges and produces a CSR graph.

    Parameters
    ----------
    num_vertices:
        The number of vertices in the graph being built.  All edge endpoints
        must be in ``[0, num_vertices)``.
    """

    def __init__(self, num_vertices: int):
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._num_vertices = int(num_vertices)
        self._sources: list[np.ndarray] = []
        self._dests: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_pending_edges(self) -> int:
        """Number of edges added so far (before deduplication)."""
        return sum(arr.size for arr in self._sources)

    def add_edge(self, source: int, dest: int, weight: int = 1) -> "GraphBuilder":
        """Add a single directed edge. Returns ``self`` for chaining."""
        return self.add_edges([source], [dest], [weight])

    def add_edges(
        self,
        sources: Sequence[int] | np.ndarray,
        dests: Sequence[int] | np.ndarray,
        weights: Sequence[int] | np.ndarray | None = None,
    ) -> "GraphBuilder":
        """Add a batch of directed edges. Returns ``self`` for chaining."""
        sources = np.asarray(sources, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        if sources.shape != dests.shape or sources.ndim != 1:
            raise GraphError("sources and dests must be 1-D arrays of equal length")
        if weights is None:
            weights = np.ones(sources.size, dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != sources.shape:
                raise GraphError("weights must align with sources/dests")
        if sources.size:
            for name, arr in (("source", sources), ("destination", dests)):
                if arr.min() < 0 or arr.max() >= self._num_vertices:
                    raise GraphError(
                        f"{name} vertex out of range [0, {self._num_vertices})"
                    )
        self._sources.append(sources)
        self._dests.append(dests)
        self._weights.append(weights)
        return self

    def build(
        self,
        deduplicate: str = "none",
        remove_self_loops: bool = False,
        coordinates: np.ndarray | None = None,
    ) -> CSRGraph:
        """Assemble the accumulated edges into a :class:`CSRGraph`.

        Parameters
        ----------
        deduplicate:
            How to handle parallel edges: ``"none"`` keeps them all,
            ``"min"``/``"max"``/``"sum"`` combine their weights, ``"first"``
            keeps the weight of the earliest-added copy.
        remove_self_loops:
            Drop edges whose endpoints coincide.
        coordinates:
            Optional vertex coordinates forwarded to the graph.
        """
        if deduplicate not in _DEDUP_MODES:
            raise GraphError(
                f"unknown deduplicate mode {deduplicate!r}; expected one of {_DEDUP_MODES}"
            )
        if self._sources:
            sources = np.concatenate(self._sources)
            dests = np.concatenate(self._dests)
            weights = np.concatenate(self._weights)
        else:
            sources = np.empty(0, dtype=np.int64)
            dests = np.empty(0, dtype=np.int64)
            weights = np.empty(0, dtype=np.int64)

        if remove_self_loops and sources.size:
            keep = sources != dests
            sources, dests, weights = sources[keep], dests[keep], weights[keep]

        # Stable sort by (source, dest) so parallel edges are adjacent and the
        # "first" dedup mode sees them in insertion order.  The key is one
        # fused int64 ``source * n + dest`` (vertex ids fit in 31 bits: a
        # larger graph does not fit in this process).
        n = self._num_vertices
        order = stable_order(sources * n + dests, n * n)
        # One array at a time: each unsorted copy is freed before the next
        # sorted one is made (set-up is where the process peaks in memory).
        sources = sources[order]
        dests = dests[order]
        weights = weights[order]

        if deduplicate != "none" and sources.size:
            sources, dests, weights = _deduplicate(sources, dests, weights, deduplicate)

        counts = np.bincount(sources, minlength=self._num_vertices).astype(np.int64)
        indptr = np.zeros(self._num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(indptr, dests, weights, coordinates=coordinates)


def _deduplicate(
    sources: np.ndarray, dests: np.ndarray, weights: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Combine adjacent parallel edges in (source, dest)-sorted arrays."""
    new_group = np.empty(sources.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (sources[1:] != sources[:-1]) | (dests[1:] != dests[:-1])
    starts = np.flatnonzero(new_group)
    if mode == "first":
        combined = weights[starts]
    elif mode == "sum":
        group_ids = np.cumsum(new_group) - 1
        combined = np.bincount(group_ids, weights=weights, minlength=starts.size).astype(
            np.int64
        )
    else:
        reducer = np.minimum if mode == "min" else np.maximum
        combined = np.empty(starts.size, dtype=np.int64)
        reducer.reduceat(weights, starts, out=combined)
    return sources[starts], dests[starts], combined


def from_edges(
    num_vertices: int,
    edges: Iterable[tuple[int, int] | tuple[int, int, int]],
    deduplicate: str = "none",
    remove_self_loops: bool = False,
    coordinates: np.ndarray | None = None,
) -> CSRGraph:
    """Build a graph from an iterable of ``(src, dst)`` or ``(src, dst, w)``.

    A convenience wrapper over :class:`GraphBuilder` for tests and examples.
    """
    builder = GraphBuilder(num_vertices)
    for edge in edges:
        if len(edge) == 2:
            builder.add_edge(edge[0], edge[1])
        else:
            builder.add_edge(edge[0], edge[1], edge[2])
    return builder.build(
        deduplicate=deduplicate,
        remove_self_loops=remove_self_loops,
        coordinates=coordinates,
    )
