"""Compressed sparse row (CSR) graph representation.

The CSR graph is the storage substrate every other component builds on.  It
stores the out-adjacency in three numpy arrays (``indptr``, ``indices``,
``weights``) and lazily materializes the in-adjacency (needed for pull-style
traversals) on first use.  Vertices are dense integers ``0 .. n-1``; weights
are 64-bit integers, matching the paper's use of integer edge weights.

Loaded graphs are mutable through a small delta overlay: ``add_edge``,
``remove_edge`` and ``update_weight`` (single or batched) record pending
inserts per source and a removal mask over base edge slots instead of
rebuilding the arrays per call.  The overlay compacts back into contiguous
CSR on an explicit :meth:`CSRGraph.compact`, or eagerly once it crosses a
size threshold — so a batch of k mutations costs one rebuild, not k.  Reads
never compact: point readers (``out_neighbors``, ``out_edges``,
``out_degree``, ``num_edges``) answer through the overlay, and whole-array
readers (``indptr`` / ``indices`` / ``weights``, ``edge_list``,
``in_csr``) see a folded read-only copy.  Every mutation bumps
``mutation_version`` and drops the memoized folded, in-CSR and degree
arrays, so no consumer can observe a stale cache.  The vertex set is
fixed: mutations may only reference existing vertex ids.

Each graph object owns its overlay, not its arrays.  Base arrays are never
written in place (compaction replaces them, and weights are copied before
their first write), so :meth:`CSRGraph.share` hands another graph
read-only views of them, and the in-base index, in O(1).

Every index over random keys (the builder's ``(source, dest)`` order, the
in-CSR, the in-base index) is built by :func:`stable_order`, one packed
in-place sort that returns exactly the stable argsort's permutation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import GraphError

__all__ = ["CSRGraph", "COMPACTION_THRESHOLD", "stable_order"]


# Pending overlay edges tolerated before compaction happens eagerly at
# mutation time (instead of on an explicit ``compact()``).
COMPACTION_THRESHOLD = 4096


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Exactly ``np.argsort(keys, kind="stable")``, by one packed sort.

    ``keys`` are non-negative integers below ``bound``.  Each is packed
    with its position as ``key << shift | position``: the packed keys are
    distinct, so one unstable in-place sort puts them in the stable order
    of the keys, and masking off the key leaves the positions.  Random
    keys sort several times faster this way than through a stable
    argsort.  When key and position bits together exceed 63, this falls
    back to the stable argsort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    shift = max(keys.size - 1, 0).bit_length()
    if max(bound - 1, 0).bit_length() + shift > 63:
        return np.argsort(keys, kind="stable")
    # A fresh array, not the caller's buffer: packing in place raised the
    # set-up peak through allocator reuse.
    packed = np.left_shift(keys, shift)
    packed |= np.arange(keys.size, dtype=np.int64)
    packed.sort()
    packed &= (1 << shift) - 1
    return packed


class CSRGraph:
    """A directed graph in compressed sparse row form with a mutation overlay.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; ``indptr[v]`` is the
        offset of vertex ``v``'s first out-edge in ``indices``/``weights``.
    indices:
        ``int64`` array of destination vertex ids, one per directed edge.
    weights:
        Optional ``int64`` array of edge weights aligned with ``indices``.
        When omitted the graph is unweighted and every edge has weight 1.
    coordinates:
        Optional ``float64`` array of shape ``(num_vertices, 2)`` giving a
        planar embedding (used by A* search on road networks).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
        coordinates: np.ndarray | None = None,
    ):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphError("indptr must be a non-empty 1-D array")
        if indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1] ({int(indptr[-1])}) must equal the number of edges ({indices.size})"
            )
        num_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise GraphError("edge destination out of range")
        if weights is None:
            weights = np.ones(indices.size, dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.shape != indices.shape:
                raise GraphError("weights must align with indices")
        if coordinates is not None:
            coordinates = np.asarray(coordinates, dtype=np.float64)
            if coordinates.shape != (num_vertices, 2):
                raise GraphError(
                    f"coordinates must have shape ({num_vertices}, 2), got {coordinates.shape}"
                )

        self._adopt(
            indptr,
            indices,
            weights,
            coordinates,
            negative_count=int(np.count_nonzero(weights < 0)),
        )

    def _adopt(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        coordinates: np.ndarray | None,
        negative_count: int,
    ) -> None:
        """Take validated base arrays with an empty overlay."""
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._coordinates = coordinates
        self._in_csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Degree arrays are memoized (and frozen): the apply operators ask
        # for them every round.  Mutations invalidate them.
        self._out_degrees: np.ndarray | None = None
        self._in_degrees: np.ndarray | None = None
        # Mutation overlay: pending inserts per source, a removal mask over
        # base edge slots, and copy-on-first-write ownership of weights.
        self._pending: dict[int, list[tuple[int, int]]] = {}
        self._pending_count = 0
        self._removed: np.ndarray | None = None
        self._removed_count = 0
        self._weights_owned = False
        self._mutation_version = 0
        # Live count of negative-weight edges, maintained through every
        # mutation so the executors' non-negativity guard costs O(1)
        # instead of an O(E) scan (which would also force compaction).
        self._negative_count = negative_count
        # Base in-adjacency (indptr, sources, base-slot order), kept valid
        # across overlay mutations: queries filter through the removal
        # mask and append pending inserts.  Only compaction (which
        # replaces the base arrays) invalidates it.
        self._in_base: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # The arrays a whole-array read sees while the overlay is pending
        # (read-only; dropped by the next mutation).
        self._folded: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (dense ids ``0 .. num_vertices - 1``)."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges (overlay-aware, no compaction)."""
        return self._indices.size - self._removed_count + self._pending_count

    @property
    def mutation_version(self) -> int:
        """Counter bumped by every mutation (cache-key for derived state)."""
        return self._mutation_version

    @property
    def has_pending_mutations(self) -> bool:
        """True when the overlay holds uncompacted inserts or removals."""
        return bool(self._pending) or self._removed is not None

    @property
    def has_negative_weights(self) -> bool:
        """Whether any live edge has a negative weight (O(1), no scan)."""
        return self._negative_count > 0

    @property
    def indptr(self) -> np.ndarray:
        """Out-adjacency offsets, overlay included (see :meth:`_view`)."""
        return self._view()[0]

    @property
    def indices(self) -> np.ndarray:
        """Out-edge destinations, overlay included (see :meth:`_view`)."""
        return self._view()[1]

    @property
    def weights(self) -> np.ndarray:
        """Out-edge weights, overlay included (see :meth:`_view`)."""
        return self._view()[2]

    def _view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR arrays with any pending overlay folded in.

        A read leaves the overlay in place: the folded arrays are a
        read-only copy kept until the next mutation, so reading a property
        never throws away the retained in-adjacency an incremental resume
        relies on.  :meth:`compact` folds the overlay for good.
        """
        if not self.has_pending_mutations:
            return self._indptr, self._indices, self._weights
        if self._folded is None:
            folded = self._fold()
            for array in folded:
                array.setflags(write=False)
            self._folded = folded
        return self._folded

    def share(self) -> "CSRGraph":
        """A new graph over read-only views of this graph's arrays.

        Costs O(1) in the edge count: nothing is copied or validated, and
        the built in-base index (:meth:`ensure_in_base`) is reused.  The
        new graph has its own empty overlay, so mutating either graph
        never shows in the other: base arrays are never written in place,
        and a weight write copies the weights first on whichever graph
        makes it.  The in-CSR is not shared, because it embeds weights.
        A pending overlay on this graph is shared folded (and then the
        in-base index is not, as it maps this graph's base slots).
        """
        arrays = []
        for array in self._view():
            view = array.view()
            view.setflags(write=False)
            arrays.append(view)
        shared = object.__new__(CSRGraph)
        shared._adopt(*arrays, self._coordinates, self._negative_count)
        if not self.has_pending_mutations:
            shared._in_base = self._in_base
        # The views alias this graph's weights: its next write must copy.
        self._weights_owned = False
        return shared

    @property
    def coordinates(self) -> np.ndarray | None:
        """Planar coordinates per vertex, or ``None`` when absent."""
        return self._coordinates

    @property
    def has_coordinates(self) -> bool:
        return self._coordinates is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------
    # Degree queries
    # ------------------------------------------------------------------
    def out_degree(self, v: int) -> int:
        """Out-degree of vertex ``v`` (overlay-aware, no compaction)."""
        self._check_vertex(v)
        degree = int(self._indptr[v + 1] - self._indptr[v])
        if self._removed is not None:
            degree -= int(
                np.count_nonzero(self._removed[self._indptr[v] : self._indptr[v + 1]])
            )
        if self._pending:
            degree += len(self._pending.get(v, ()))
        return degree

    def out_degrees(self) -> np.ndarray:
        """Array of all out-degrees (memoized, read-only).

        Overlay-aware without compacting: the base degrees are adjusted by
        the removal mask and pending inserts, so the executors' per-round
        degree reads never trigger an O(E) rebuild mid-resume.
        """
        if self._out_degrees is None:
            degrees = np.diff(self._indptr)
            if self.has_pending_mutations:
                if self._removed is not None:
                    removed_src = np.searchsorted(
                        self._indptr, np.flatnonzero(self._removed), side="right"
                    ) - 1
                    np.subtract.at(degrees, removed_src, 1)
                for src, edges in self._pending.items():
                    degrees[src] += len(edges)
            degrees.setflags(write=False)
            self._out_degrees = degrees
        return self._out_degrees

    def in_degree(self, v: int) -> int:
        """In-degree of vertex ``v`` (materializes the in-CSR on first use)."""
        self._check_vertex(v)
        indptr, _, _ = self.in_csr()
        return int(indptr[v + 1] - indptr[v])

    def in_degrees(self) -> np.ndarray:
        """Array of all in-degrees (memoized, read-only)."""
        if self._in_degrees is None:
            indptr, _, _ = self.in_csr()
            degrees = np.diff(indptr)
            degrees.setflags(write=False)
            self._in_degrees = degrees
        return self._in_degrees

    # ------------------------------------------------------------------
    # Neighbourhood access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Destinations of ``v``'s out-edges (overlay-aware)."""
        self._check_vertex(v)
        if not self.has_pending_mutations:
            return self._indices[self._indptr[v] : self._indptr[v + 1]]
        neighbors, _ = self._overlay_slice(v)
        return neighbors

    def out_weights(self, v: int) -> np.ndarray:
        """Weights of ``v``'s out-edges, aligned with :meth:`out_neighbors`."""
        self._check_vertex(v)
        if not self.has_pending_mutations:
            return self._weights[self._indptr[v] : self._indptr[v + 1]]
        _, weights = self._overlay_slice(v)
        return weights

    def out_edges(self, v: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(destination, weight)`` pairs for ``v``'s out-edges."""
        neighbors = self.out_neighbors(v)
        weights = self.out_weights(v)
        for dst, weight in zip(neighbors, weights):
            yield int(dst), int(weight)

    def _overlay_slice(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``v``'s out-edges merged with the overlay (base order, adds last)."""
        start, end = self._indptr[v], self._indptr[v + 1]
        neighbors = self._indices[start:end]
        weights = self._weights[start:end]
        if self._removed is not None:
            keep = ~self._removed[start:end]
            neighbors = neighbors[keep]
            weights = weights[keep]
        added = self._pending.get(v)
        if added:
            neighbors = np.concatenate(
                [neighbors, np.fromiter((d for d, _ in added), np.int64, len(added))]
            )
            weights = np.concatenate(
                [weights, np.fromiter((w for _, w in added), np.int64, len(added))]
            )
        return neighbors, weights

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of ``v``'s in-edges."""
        self._check_vertex(v)
        indptr, indices, _ = self.in_csr()
        return indices[indptr[v] : indptr[v + 1]]

    def in_weights(self, v: int) -> np.ndarray:
        """Weights of ``v``'s in-edges, aligned with :meth:`in_neighbors`."""
        self._check_vertex(v)
        indptr, _, weights = self.in_csr()
        return weights[indptr[v] : indptr[v + 1]]

    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The in-adjacency as ``(indptr, indices, weights)``.

        Built lazily by one stable sort over destinations
        (:func:`stable_order`), so the in-neighbors of each vertex appear
        in order of their source id.
        """
        if self._in_csr is None:
            out_indptr, indices, weights = self._view()
            n = self.num_vertices
            counts = np.bincount(indices, minlength=n).astype(np.int64)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            order = stable_order(indices, n)
            sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(out_indptr))
            self._in_csr = (indptr, sources[order], weights[order])
        return self._in_csr

    # ------------------------------------------------------------------
    # Overlay-aware bulk access (no compaction)
    # ------------------------------------------------------------------
    def base_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The base CSR arrays *without* folding the overlay.

        The returned arrays may still contain edges flagged in
        :meth:`removed_mask` and never contain pending inserts — pair with
        :meth:`removed_mask` and :meth:`pending_out_edges` for an exact
        overlay-aware view.  Mutations never write ``indptr``/``indices``
        in place (a compaction replaces them wholesale), so the references
        double as stable snapshots; only ``update_weight`` writes through
        the weights array (copying it first unless this graph already
        owns a private copy).
        """
        return self._indptr, self._indices, self._weights

    def removed_mask(self) -> np.ndarray | None:
        """Boolean mask over base edge slots, or ``None`` when no removals."""
        return self._removed

    def pending_snapshot(self) -> dict[int, list[tuple[int, int]]]:
        """A copy of the pending-insert overlay (``src -> [(dst, w), ...]``)."""
        return {src: list(edges) for src, edges in self._pending.items()}

    def pending_out_edges(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pending (uncompacted) inserts whose source is in ``vertices``.

        Returned in overlay order (dict insertion order, per-source append
        order), independent of the order of ``vertices`` — so filtering a
        superset's stream by source equals querying the subset directly.
        """
        empty = np.empty(0, dtype=np.int64)
        if not self._pending:
            return empty, empty.copy(), empty.copy()
        members = np.zeros(self.num_vertices, dtype=bool)
        members[np.asarray(vertices, dtype=np.int64)] = True
        sources: list[int] = []
        dests: list[int] = []
        weights: list[int] = []
        for src, edges in self._pending.items():
            if members[src]:
                for dst, weight in edges:
                    sources.append(src)
                    dests.append(dst)
                    weights.append(weight)
        if not sources:
            return empty, empty.copy(), empty.copy()
        return (
            np.asarray(sources, dtype=np.int64),
            np.asarray(dests, dtype=np.int64),
            np.asarray(weights, dtype=np.int64),
        )

    def ensure_in_base(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build (or fetch) the base in-adjacency index.

        Returns ``(in_indptr, in_sources, in_order)`` over the *base*
        arrays: ``in_order[j]`` is the base out-slot of the j-th in-edge,
        so queries can filter removals and read current weights through
        it.  Stays valid across overlay mutations; compaction rebuilds it
        on next use.  Incremental sessions call this once up front so no
        per-batch resume pays the O(E log E) construction.
        """
        if self._in_base is None:
            n = self.num_vertices
            counts = np.bincount(self._indices, minlength=n).astype(np.int64)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            order = stable_order(self._indices, n)
            sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
            in_base = (indptr, sources[order], order)
            for array in in_base:  # shared between graphs by share()
                array.setflags(write=False)
            self._in_base = in_base
        return self._in_base

    def in_edges_of(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``v``'s live in-edges as ``(tails, weights)`` (overlay-aware).

        Uses the retained base in-adjacency plus the overlay, so the cost
        is O(in-degree + pending overlay), never a full in-CSR rebuild.
        """
        self._check_vertex(v)
        indptr, sources, order = self.ensure_in_base()
        slots = order[indptr[v] : indptr[v + 1]]
        tails = sources[indptr[v] : indptr[v + 1]]
        if self._removed is not None:
            keep = ~self._removed[slots]
            slots = slots[keep]
            tails = tails[keep]
        weights = self._weights[slots]
        if self._pending:
            extra_tails = [
                src
                for src, edges in self._pending.items()
                for dst, _ in edges
                if dst == v
            ]
            if extra_tails:
                extra_weights = [
                    w
                    for src, edges in self._pending.items()
                    for dst, w in edges
                    if dst == v
                ]
                tails = np.concatenate(
                    [tails, np.asarray(extra_tails, dtype=np.int64)]
                )
                weights = np.concatenate(
                    [weights, np.asarray(extra_weights, dtype=np.int64)]
                )
        return tails, weights

    # ------------------------------------------------------------------
    # Mutation API (delta overlay + periodic compaction)
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int, weight: int = 1) -> None:
        """Insert a directed edge ``src -> dst``.

        Parallel copies are allowed (the graph is a multigraph under
        mutation, exactly as :class:`GraphBuilder` permits duplicates).
        The insert lands in the overlay; compaction is deferred until
        :meth:`compact` or the overlay crosses :data:`COMPACTION_THRESHOLD`.
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        self._pending.setdefault(src, []).append((int(dst), int(weight)))
        self._pending_count += 1
        if weight < 0:
            self._negative_count += 1
        self._note_mutation()
        if self._pending_count > COMPACTION_THRESHOLD:
            self.compact()

    def remove_edge(self, src: int, dst: int) -> None:
        """Remove every copy of the directed edge ``src -> dst``.

        Raises :class:`GraphError` when no such edge exists (removals must
        name live edges — silent no-ops would mask caller bugs).
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        removed = 0
        start, end = int(self._indptr[src]), int(self._indptr[src + 1])
        slots = start + np.flatnonzero(self._indices[start:end] == dst)
        if self._removed is not None and slots.size:
            slots = slots[~self._removed[slots]]
        if slots.size:
            if self._removed is None:
                self._removed = np.zeros(self._indices.size, dtype=bool)
            self._removed[slots] = True
            self._removed_count += slots.size
            removed += int(slots.size)
            self._negative_count -= int(np.count_nonzero(self._weights[slots] < 0))
        added = self._pending.get(src)
        if added:
            kept = [(d, w) for d, w in added if d != dst]
            removed += len(added) - len(kept)
            self._pending_count -= len(added) - len(kept)
            self._negative_count -= sum(
                1 for d, w in added if d == dst and w < 0
            )
            if kept:
                self._pending[src] = kept
            else:
                del self._pending[src]
        if not removed:
            raise GraphError(f"no edge {src} -> {dst} to remove")
        self._note_mutation()

    def update_weight(self, src: int, dst: int, weight: int) -> None:
        """Set the weight of every copy of the edge ``src -> dst``.

        Raises :class:`GraphError` when no such edge exists.
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        updated = 0
        start, end = int(self._indptr[src]), int(self._indptr[src + 1])
        slots = start + np.flatnonzero(self._indices[start:end] == dst)
        if self._removed is not None and slots.size:
            slots = slots[~self._removed[slots]]
        if slots.size:
            self._ensure_owned_weights()
            self._negative_count -= int(np.count_nonzero(self._weights[slots] < 0))
            self._weights[slots] = int(weight)
            if weight < 0:
                self._negative_count += int(slots.size)
            updated += int(slots.size)
        added = self._pending.get(src)
        if added:
            for i, (d, w) in enumerate(added):
                if d == dst:
                    added[i] = (d, int(weight))
                    self._negative_count += (weight < 0) - (w < 0)
                    updated += 1
        if not updated:
            raise GraphError(f"no edge {src} -> {dst} to update")
        self._note_mutation()

    def add_edges(
        self, sources: np.ndarray, dests: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Batched :meth:`add_edge` (one compaction for the whole batch)."""
        sources = np.asarray(sources, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        if weights is None:
            weights = np.ones(sources.size, dtype=np.int64)
        else:
            weights = np.asarray(weights, dtype=np.int64)
        if sources.shape != dests.shape or sources.shape != weights.shape:
            raise GraphError("add_edges arrays must align")
        for src, dst, weight in zip(sources, dests, weights):
            self.add_edge(int(src), int(dst), int(weight))

    def remove_edges(self, sources: np.ndarray, dests: np.ndarray) -> None:
        """Batched :meth:`remove_edge`."""
        for src, dst in zip(np.asarray(sources), np.asarray(dests)):
            self.remove_edge(int(src), int(dst))

    def update_weights(
        self, sources: np.ndarray, dests: np.ndarray, weights: np.ndarray
    ) -> None:
        """Batched :meth:`update_weight`."""
        for src, dst, weight in zip(
            np.asarray(sources), np.asarray(dests), np.asarray(weights)
        ):
            self.update_weight(int(src), int(dst), int(weight))

    def _note_mutation(self) -> None:
        """Bump the version and drop every memoized derived structure."""
        self._mutation_version += 1
        self._folded = None
        self._in_csr = None
        self._out_degrees = None
        self._in_degrees = None

    def _ensure_owned_weights(self) -> None:
        # Copy-on-first-write: views handed out before the first mutation
        # keep observing the pre-mutation weights.
        if not self._weights_owned:
            self._weights = self._weights.copy()
            self._weights_owned = True

    def compact(self) -> None:
        """Fold the overlay back into contiguous CSR arrays."""
        if not self.has_pending_mutations:
            return
        self._indptr, self._indices, self._weights = self._fold()
        self._folded = None
        self._weights_owned = True
        self._pending = {}
        self._pending_count = 0
        self._removed = None
        self._removed_count = 0
        # The base arrays just changed wholesale: the retained in-base
        # index maps stale slots and must be rebuilt on next use.
        self._in_base = None

    def _fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base and overlay merged into fresh CSR arrays.

        The merge keeps base-slot order first and overlay inserts last
        within each source (stable sort over the source column), so edge
        iteration order stays deterministic across compactions.
        """
        n = self.num_vertices
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        indices, weights = self._indices, self._weights
        if self._removed is not None:
            keep = ~self._removed
            sources, indices, weights = sources[keep], indices[keep], weights[keep]
        if self._pending:
            add_src = np.fromiter(
                (s for s, edges in self._pending.items() for _ in edges),
                np.int64,
                self._pending_count,
            )
            add_dst = np.fromiter(
                (d for edges in self._pending.values() for d, _ in edges),
                np.int64,
                self._pending_count,
            )
            add_w = np.fromiter(
                (w for edges in self._pending.values() for _, w in edges),
                np.int64,
                self._pending_count,
            )
            sources = np.concatenate([sources, add_src])
            indices = np.concatenate([indices, add_dst])
            weights = np.concatenate([weights, add_w])
        order = np.argsort(sources, kind="stable")
        counts = np.bincount(sources, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return (
            indptr,
            np.ascontiguousarray(indices[order]),
            np.ascontiguousarray(weights[order]),
        )

    # ------------------------------------------------------------------
    # Whole-graph transforms
    # ------------------------------------------------------------------
    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as ``(sources, destinations, weights)`` arrays."""
        indptr, indices, weights = self._view()
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(indptr))
        return sources, indices.copy(), weights.copy()

    def reversed(self) -> "CSRGraph":
        """The transpose graph (every edge direction flipped)."""
        indptr, indices, weights = self.in_csr()
        return CSRGraph(
            indptr.copy(), indices.copy(), weights.copy(), coordinates=self._coordinates
        )

    def symmetrized(self) -> "CSRGraph":
        """The undirected version: for every edge (u, v) both directions exist.

        Parallel edges arising from symmetrization are deduplicated, keeping
        the minimum weight, matching the convention the paper uses when
        symmetrizing inputs for k-core and SetCover.
        """
        from .builder import GraphBuilder

        sources, dests, weights = self.edge_list()
        builder = GraphBuilder(self.num_vertices)
        builder.add_edges(sources, dests, weights)
        builder.add_edges(dests, sources, weights)
        return builder.build(
            deduplicate="min", remove_self_loops=False, coordinates=self._coordinates
        )

    def is_symmetric(self) -> bool:
        """True when every edge has a reverse edge of equal weight."""
        sources, dests, weights = self.edge_list()
        forward = set(zip(sources.tolist(), dests.tolist(), weights.tolist()))
        return all((d, s, w) in forward for s, d, w in forward)

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """A copy of this graph with the given per-edge weights."""
        indptr, indices, _ = self._view()
        return CSRGraph(
            indptr.copy(),
            indices.copy(),
            np.asarray(weights, dtype=np.int64).copy(),
            coordinates=self._coordinates,
        )

    def with_coordinates(self, coordinates: np.ndarray) -> "CSRGraph":
        """A copy of this graph with the given vertex coordinates."""
        return CSRGraph(
            *(array.copy() for array in self._view()), coordinates=coordinates
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
