"""Eager bucket queue with thread-local buckets and bucket fusion
(Sections 3.2 and 3.3 of the paper).

Each virtual thread owns a set of local buckets (``local_bins`` in the
generated code, Figure 9(c)); a priority update immediately inserts the
vertex into the updating thread's local bucket for its new priority — no
buffering, no dedup flags.  Extracting the next bucket takes a global
minimum across threads and gathers their local buckets into a global
frontier (one global synchronization).

Bucket fusion (Figure 7) lets a thread keep processing its *own* local
bucket for the current priority without synchronizing, as long as that local
bucket stays below a size threshold; large local buckets are left for the
global gather so the work gets redistributed.  The executor drives fusion via
:meth:`pop_local_bucket`.
"""

from __future__ import annotations

import threading

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
    """Bucketing structure with immediate (eager) thread-local bucket updates."""

    def __init__(
        self,
        priority_vector: np.ndarray,
        direction: PriorityDirection | str = PriorityDirection.LOWER_FIRST,
        delta: int = 1,
        allow_coarsening: bool = True,
        num_threads: int = 8,
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
        if num_threads < 1:
            raise PriorityQueueError("num_threads must be positive")
        self.num_threads = int(num_threads)
        self.stats.num_threads = self.num_threads
        # local_bins[t] maps order -> list of vertex-id arrays.
        self._local_bins: list[dict[int, list[np.ndarray]]] = [
            {} for _ in range(self.num_threads)
        ]
        # Cached per-thread minimum open order (None = thread has no bins).
        # Maintained on insert (cheap monotone min) and invalidated only
        # when a thread's minimum bin is popped, so ``min_order`` no longer
        # rescans every thread's dict on each dequeue.
        self._min_cache: list[int | None] = [None] * self.num_threads
        self._active_thread = 0
        # The bucket-fusion synchronization contract (Figure 7): the ONLY
        # lock in the eager queue guards the global bucket advancement —
        # picking the global minimum order and gathering every thread's
        # local bucket.  Inserts target a single thread's local bins and
        # ``pop_local_bucket`` (a fused run) touches only the calling
        # thread's bins, so neither takes the lock.  Under the parallel
        # engine all queue mutation is additionally serialized on the
        # coordinator; the lock is the strategy-faithful contract and
        # protects direct library users driving the queue from real threads.
        self._advance_lock = threading.Lock()
        self.global_advances = 0

        if self._initial_vertices.size:
            orders = np.asarray(
                self.order_of_value(self.priority_vector[self._initial_vertices])
            )
            self._cur_order = None
            # Initial contents are dealt round-robin across threads so the
            # first round has work for everyone.
            for offset, (vertex, order) in enumerate(
                zip(self._initial_vertices.tolist(), orders.tolist())
            ):
                self._insert(offset % self.num_threads, int(vertex), int(order))

    # ------------------------------------------------------------------
    # Thread context
    # ------------------------------------------------------------------
    def set_thread(self, thread_id: int) -> None:
        """Select which virtual thread's local bins subsequent updates target."""
        if not 0 <= thread_id < self.num_threads:
            raise PriorityQueueError(
                f"thread {thread_id} out of range [0, {self.num_threads})"
            )
        self._active_thread = thread_id

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    def finished(self) -> bool:
        return all(not bins for bins in self._local_bins)

    def min_order(self) -> int | None:
        """Smallest bucket order present in any thread's local bins.

        Served from the per-thread minimum cache; no per-call scan over
        every thread's bin dictionary.
        """
        candidates = [order for order in self._min_cache if order is not None]
        return min(candidates) if candidates else None

    def _note_insert(self, thread_id: int, order: int) -> None:
        """Update thread ``thread_id``'s cached minimum after an insert."""
        cached = self._min_cache[thread_id]
        if cached is None or order < cached:
            self._min_cache[thread_id] = order

    def _note_removal(self, thread_id: int, order: int) -> None:
        """Recompute thread ``thread_id``'s cached minimum after its bin
        for ``order`` was removed (only needed when it was the minimum)."""
        if self._min_cache[thread_id] != order:
            return
        bins = self._local_bins[thread_id]
        self._min_cache[thread_id] = min(bins) if bins else None

    def dequeue_ready_set(self) -> np.ndarray:
        """Pick the global minimum bucket and gather every thread's local
        bucket of that priority into one frontier (Figure 6, line 8).

        Costs one global synchronization per call, charged by the executor.
        The advancement runs under :attr:`_advance_lock` — the single lock
        site of the eager strategy (Figure 7's contract: no locking inside a
        fused run, one lock at global bucket advancement).
        """
        with trace_span("bucket.advance", "bucket", strategy="eager") as sp:
            with self._advance_lock:
                self.global_advances += 1
                while True:
                    order = self.min_order()
                    if order is None:
                        return np.empty(0, dtype=np.int64)
                    if self._cur_order is not None and order < self._cur_order:
                        # Purely stale bins below the current bucket: drain
                        # and drop them without moving the current priority
                        # backwards.
                        self._gather_order(order)
                        continue
                    self._cur_order = order
                    # Distinct priority orders across every thread's local
                    # bins, sampled before the gather empties the current one.
                    occupancy = len(
                        {o for bins in self._local_bins for o in bins}
                    )
                    members = self._gather_order(order)
                    live = self._filter_and_mark_live(members, order)
                    if live.size:
                        self._note_dequeue(sp, order, live.size, occupancy)
                        return live

    def pop_local_bucket(self, thread_id: int, max_size: int) -> np.ndarray | None:
        """Fusion support: pop thread ``thread_id``'s local bucket for the
        *current* priority if it is non-empty and below ``max_size``.

        Returns ``None`` when the local bucket is empty or too large (a large
        bucket is left in place so the global gather redistributes it across
        threads — the load-balance threshold of Figure 7, line 16).

        Deliberately takes **no lock**: a fused run reads and writes only the
        calling thread's local bins, which is the whole point of bucket
        fusion (synchronization-free processing of small local buckets).
        """
        if self._cur_order is None:
            raise PriorityQueueError("pop_local_bucket before any dequeue")
        bins = self._local_bins[thread_id]
        chunks = bins.get(self._cur_order)
        if not chunks:
            return None
        size = sum(chunk.size for chunk in chunks)
        if size >= max_size:
            return None
        del bins[self._cur_order]
        self._note_removal(thread_id, self._cur_order)
        members = sorted_distinct(np.concatenate(chunks))
        live = self._filter_and_mark_live(members, self._cur_order)
        if live.size == 0:
            return None
        self.stats.vertices_processed += int(live.size)
        return live

    # ------------------------------------------------------------------
    # Batch update (used by the vectorized executors)
    # ------------------------------------------------------------------
    def insert_changed_batch(self, thread_id: int, vertices: np.ndarray) -> None:
        """Insert a batch of vertices whose priorities the caller already
        updated, into ``thread_id``'s local bins by their new priority.

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
        self._insert_split(thread_id, vertices, orders)

    def insert_batch_at(
        self, thread_id: int, vertices: np.ndarray, orders: np.ndarray
    ) -> None:
        """Raw insertion at explicit orders (no clamping, no priority read).

        Used by eager constant-sum algorithms (k-core): every unit decrement
        of a vertex's priority is a separate bucket insertion, so the vertex
        leaves a stale copy in each intermediate bucket — the churn that
        makes eager k-core slow (Table 7).  Callers must pass orders that are
        not below the current bucket.
        """
        self._insert_split(
            thread_id,
            np.asarray(vertices, dtype=np.int64),
            np.asarray(orders, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _insert_split(
        self, thread_id: int, vertices: np.ndarray, orders: np.ndarray
    ) -> None:
        bins = self._local_bins[thread_id]
        self.stats.bucket_inserts += int(vertices.size)
        for order, members in split_by_order(vertices, orders):
            bins.setdefault(order, []).append(members)
            self._note_insert(thread_id, order)

    def _enqueue_changed(self, vertex: int, new_value: int) -> None:
        order = self._clamped_order(int(self.order_of_value(new_value)))
        self._insert(self._active_thread, vertex, order)

    def _insert(self, thread_id: int, vertex: int, order: int) -> None:
        self.stats.bucket_inserts += 1
        self._local_bins[thread_id].setdefault(order, []).append(
            np.array([vertex], dtype=np.int64)
        )
        self._note_insert(thread_id, order)

    def _gather_order(self, order: int) -> np.ndarray:
        chunks: list[np.ndarray] = []
        for thread_id, bins in enumerate(self._local_bins):
            thread_chunks = bins.pop(order, None)
            if thread_chunks:
                chunks.extend(thread_chunks)
            self._note_removal(thread_id, order)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return sorted_distinct(np.concatenate(chunks))
