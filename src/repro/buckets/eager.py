"""Eager bucket queue with bucket fusion (Sections 3.2 and 3.3 of the paper).

A priority update immediately inserts the vertex into the local bucket for
its new priority (``local_bins`` in the generated code, Figure 9(c)) — no
buffering, no dedup flags.  Extracting the next bucket takes the minimum
open order and gathers its bucket into a global frontier (one global
synchronization).  The interpreter runs one chunk per round, so it keeps
one set of local bins; per-thread bins are the native kernel's.

Bucket fusion (Figure 7) keeps processing the local bucket for the current
priority without synchronizing, as long as that bucket stays below a size
threshold; a large bucket is left for the global gather.  The executor
drives fusion via :meth:`pop_local_bucket`.
"""

from __future__ import annotations

import numpy as np

from ..errors import PriorityQueueError
from ..obs import span as trace_span
from ..runtime.stats import RuntimeStats
from .interface import (
    AbstractPriorityQueue,
    PriorityDirection,
    sorted_distinct,
    split_by_order,
)

__all__ = ["EagerBucketQueue"]


class EagerBucketQueue(AbstractPriorityQueue):
    """Bucketing structure with immediate (eager) bucket updates."""

    def __init__(
        self,
        priority_vector: np.ndarray,
        direction: PriorityDirection | str = PriorityDirection.LOWER_FIRST,
        delta: int = 1,
        allow_coarsening: bool = True,
        stats: RuntimeStats | None = None,
        initial_vertices: np.ndarray | list[int] | None = None,
    ):
        super().__init__(
            priority_vector,
            direction=direction,
            delta=delta,
            allow_coarsening=allow_coarsening,
            stats=stats,
            initial_vertices=initial_vertices,
        )
        # order -> list of vertex-id arrays.
        self._bins: dict[int, list[np.ndarray]] = {}
        # Smallest open order (None = no bins): maintained on insert and
        # recomputed only when the minimum bin is popped.
        self._min_order: int | None = None
        if self._initial_vertices.size:
            orders = np.asarray(
                self.order_of_value(self.priority_vector[self._initial_vertices])
            )
            self._insert_split(self._initial_vertices, orders)

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    def finished(self) -> bool:
        return not self._bins

    def min_order(self) -> int | None:
        """Smallest bucket order present in the local bins."""
        return self._min_order

    def _note_insert(self, order: int) -> None:
        if self._min_order is None or order < self._min_order:
            self._min_order = order

    def _pop_bin(self, order: int) -> list[np.ndarray] | None:
        chunks = self._bins.pop(order, None)
        if self._min_order == order:
            self._min_order = min(self._bins) if self._bins else None
        return chunks

    def dequeue_ready_set(self) -> np.ndarray:
        """Pick the minimum bucket and gather it into one frontier
        (Figure 6, line 8).

        Costs one global synchronization per call, charged by the executor.
        """
        with trace_span("bucket.advance", "bucket", strategy="eager") as sp:
            while True:
                order = self._min_order
                if order is None:
                    return np.empty(0, dtype=np.int64)
                if self._cur_order is not None and order < self._cur_order:
                    # Purely stale bins below the current bucket: drop them
                    # without moving the current priority backwards.
                    self._pop_bin(order)
                    continue
                self._cur_order = order
                # Distinct open priority orders, sampled before the gather
                # empties the current one.
                occupancy = len(self._bins)
                chunks = self._pop_bin(order)
                members = sorted_distinct(np.concatenate(chunks))
                live = self._filter_and_mark_live(members, order)
                if live.size:
                    self._note_dequeue(sp, order, live.size, occupancy)
                    return live

    def pop_local_bucket(self, max_size: int) -> np.ndarray | None:
        """Fusion support: pop the local bucket for the *current* priority
        if it is non-empty and below ``max_size``.

        Returns ``None`` when the local bucket is empty or too large (a large
        bucket is left in place for the next global round — the threshold of
        Figure 7, line 16).
        """
        if self._cur_order is None:
            raise PriorityQueueError("pop_local_bucket before any dequeue")
        chunks = self._bins.get(self._cur_order)
        if not chunks:
            return None
        if sum(chunk.size for chunk in chunks) >= max_size:
            return None
        self._pop_bin(self._cur_order)
        members = sorted_distinct(np.concatenate(chunks))
        live = self._filter_and_mark_live(members, self._cur_order)
        if live.size == 0:
            return None
        self.stats.vertices_processed += int(live.size)
        return live

    # ------------------------------------------------------------------
    # Batch update (used by the vectorized executors)
    # ------------------------------------------------------------------
    def insert_changed_batch(self, vertices: np.ndarray) -> None:
        """Insert a batch of vertices whose priorities the caller already
        updated, into the local bins by their new priority.

        Unlike the lazy queue there is no deduplication: every changed vertex
        costs a bucket insertion (the eager tradeoff the paper measures).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return
        orders = np.asarray(self.order_of_value(self.priority_vector[vertices]))
        if self._cur_order is not None:
            below = orders < self._cur_order
            self.priority_inversions += int(np.count_nonzero(below))
            orders = np.maximum(orders, self._cur_order)
        self._insert_split(vertices, orders)

    def insert_batch_at(self, vertices: np.ndarray, orders: np.ndarray) -> None:
        """Raw insertion at explicit orders (no clamping, no priority read).

        Used by eager constant-sum algorithms (k-core): every unit decrement
        of a vertex's priority is a separate bucket insertion, so the vertex
        leaves a stale copy in each intermediate bucket — the churn that
        makes eager k-core slow (Table 7).  Callers must pass orders that are
        not below the current bucket.
        """
        self._insert_split(
            np.asarray(vertices, dtype=np.int64),
            np.asarray(orders, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _insert_split(self, vertices: np.ndarray, orders: np.ndarray) -> None:
        self.stats.bucket_inserts += int(vertices.size)
        for order, members in split_by_order(vertices, orders):
            self._bins.setdefault(order, []).append(members)
            self._note_insert(order)

    def _enqueue_changed(self, vertex: int, new_value: int) -> None:
        order = self._clamped_order(int(self.order_of_value(new_value)))
        self.stats.bucket_inserts += 1
        self._bins.setdefault(order, []).append(np.array([vertex], dtype=np.int64))
        self._note_insert(order)
