"""Approximate (relaxed) priority ordering, emulating Galois' ordered list.

Galois (Section 7, "Approximate Priority Ordering") processes work from
several relaxed priority queues without synchronizing globally after each
priority: threads may run ahead on slightly-out-of-order work.  The win is
far fewer global synchronizations; the cost is lost work-efficiency, because
a vertex processed before its priority is final gets re-processed after a
better update arrives.

The emulation keeps order-indexed bins like the eager queue but dequeues a
bounded *chunk* spanning the ``slack`` smallest orders, without any
stale-entry filtering and without a per-priority barrier — a round costs a
global synchronization only when the window of orders moves
(:meth:`RelaxedPriorityQueue.round_syncs`).  Strict
ordering is unavailable, which is why this queue (like Galois) cannot run
k-core or SetCover; it raises on ``updatePrioritySum``.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import PriorityQueueError
from ..obs import instant as trace_instant
from ..obs import metrics
from ..obs import span as trace_span
from ..runtime.stats import RuntimeStats
from .interface import AbstractPriorityQueue, PriorityDirection, split_by_order

__all__ = ["RelaxedPriorityQueue"]

_WINDOW_ADVANCES = metrics.counter("bucket.window_advances")


class RelaxedPriorityQueue(AbstractPriorityQueue):
    """A relaxed multi-bin queue: approximately ordered, cheaply synchronized."""

    finalizes = False

    def __init__(
        self,
        priority_vector: np.ndarray,
        direction: PriorityDirection | str = PriorityDirection.LOWER_FIRST,
        delta: int = 1,
        allow_coarsening: bool = True,
        slack: int = 2,
        chunk_size: int = 1024,
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
        if slack < 1:
            raise PriorityQueueError("slack must be >= 1")
        if chunk_size < 1:
            raise PriorityQueueError("chunk_size must be >= 1")
        self.slack = int(slack)
        self.chunk_size = int(chunk_size)
        self._bins: dict[int, list[np.ndarray]] = {}
        # Relaxed synchronization contract: threads run ahead on
        # approximately-ordered work without a per-priority barrier; the only
        # synchronization is when the window of open orders moves or a batch
        # of insertions lands in the shared bins.  One lock guards both.
        # Under the parallel engine every commit runs on the coordinating
        # thread; this lock keeps the queue safe for direct users driving it
        # from real threads.
        self._window_lock = threading.Lock()
        self.window_advances = 0
        # Sync bookkeeping for round_syncs(): did the last dequeue move the
        # window, and how many rounds ran since the last charged sync.
        self._window_moved = False
        self._rounds_since_sync = 0
        if self._initial_vertices.size:
            orders = np.asarray(
                self.order_of_value(self.priority_vector[self._initial_vertices])
            )
            for order, members in split_by_order(self._initial_vertices, orders):
                self._bins[order] = [members]

    def finished(self) -> bool:
        return not self._bins

    def dequeue_ready_set(self) -> np.ndarray:
        """Pop up to ``chunk_size`` vertices from the ``slack`` smallest
        orders — approximately ordered, duplicates and stale entries kept
        (they are the work-efficiency loss the paper attributes to Galois)."""
        with trace_span(
            "bucket.dequeue_chunk", "bucket", strategy="relaxed"
        ) as sp, self._window_lock:
            if not self._bins:
                return np.empty(0, dtype=np.int64)
            window = sorted(self._bins)[: self.slack]
            if self._cur_order != window[0]:
                # The priority window moved: this is the only point the
                # relaxed strategy synchronizes at (charged by round_syncs).
                self.window_advances += 1
                self._window_moved = True
                _WINDOW_ADVANCES.inc()
                trace_instant(
                    "bucket.window_advance",
                    "bucket",
                    strategy="relaxed",
                    order=int(window[0]),
                )
            self._cur_order = window[0]
            popped: list[np.ndarray] = []
            budget = self.chunk_size
            for order in window:
                chunks = self._bins[order]
                while chunks and budget > 0:
                    chunk = chunks.pop()
                    if chunk.size > budget:
                        chunks.append(chunk[budget:])
                        chunk = chunk[:budget]
                    popped.append(chunk)
                    budget -= chunk.size
                if not chunks:
                    del self._bins[order]
                if budget == 0:
                    break
            members = (
                np.concatenate(popped) if popped else np.empty(0, dtype=np.int64)
            )
            if members.size:
                # Aggregate metrics only (no occupancy, so no per-round
                # series): chunk order is scheduling-dependent by design.
                self._note_dequeue(sp, self._cur_order, members.size)
            return members

    def round_syncs(self) -> int:
        """Global synchronizations the round just processed costs.

        There is no per-priority barrier: one synchronization when the
        priority window advanced, and one every 8 rounds for distributed
        termination detection (Galois' scheduler is cheap but not free).
        """
        self._rounds_since_sync += 1
        if self._window_moved or self._rounds_since_sync >= 8:
            self._window_moved = False
            self._rounds_since_sync = 0
            return 1
        return 0

    def _is_finalized(self, vertex: int) -> bool:
        return False  # no strict order, so nothing is ever final

    def update_priority_sum(
        self, vertex: int, sum_diff: int, min_threshold: int | None = None
    ) -> bool:
        raise PriorityQueueError(
            "approximate priority ordering cannot run algorithms that need "
            "strict per-priority synchronization (k-core, SetCover) — "
            "matching Galois' limitation described in the paper"
        )

    def insert_updates(self, vertices: np.ndarray, values: np.ndarray) -> None:
        """One bucket entry per priority update, in update order (``vertices``
        may repeat): the bins the scalar path's one insert per update leaves,
        stale copies included."""
        orders = np.asarray(self.order_of_value(values))
        with self._window_lock:
            self.stats.bucket_inserts += int(vertices.size)
            for order, members in split_by_order(vertices, orders):
                # Dequeue pops a bin's newest entry first: one chunk in
                # reverse update order pops like the scalar singletons.
                self._bins.setdefault(order, []).append(members[::-1].copy())

    def _enqueue_changed(self, vertex: int, new_value: int) -> None:
        with self._window_lock:
            self.stats.bucket_inserts += 1
            self._bins.setdefault(int(self.order_of_value(new_value)), []).append(
                np.array([vertex], dtype=np.int64)
            )
