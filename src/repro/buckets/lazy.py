"""Lazy bucket queue (Julienne-style, Section 3.1 of the paper).

The lazy approach buffers bucket updates: a priority update immediately
mutates the priority vector but only appends the vertex (once, guarded by a
deduplication flag — the CAS on ``dedup_flags`` in Figure 9(a)) to an update
buffer.  At the next ``dequeue_ready_set`` the buffer is reduced — each
vertex is bucketed once, by its *final* priority — and the buckets are
updated in bulk.  This makes each vertex pay a single bucket insertion per
round no matter how many of its incoming edges fired, which is why lazy wins
for k-core (Table 7).

Only ``num_open_buckets`` buckets are materialized at a time; vertices whose
order falls beyond the open window go to an overflow bucket, which is
re-bucketed when the window is exhausted — Julienne's design.
"""

from __future__ import annotations

import numpy as np

from ..errors import PriorityQueueError
from ..obs import metrics
from ..obs import span as trace_span
from ..runtime.stats import RuntimeStats
from .interface import (
    AbstractPriorityQueue,
    PriorityDirection,
    sorted_distinct,
    split_by_order,
)

__all__ = ["LazyBucketQueue"]

_REBUCKETS = metrics.counter("bucket.rebucket_overflows")
_REDUCE_BATCHES = metrics.counter("bucket.reduce_batches")


class LazyBucketQueue(AbstractPriorityQueue):
    """Bucketing structure with buffered (lazy) bucket updates."""

    def __init__(
        self,
        priority_vector: np.ndarray,
        direction: PriorityDirection | str = PriorityDirection.LOWER_FIRST,
        delta: int = 1,
        allow_coarsening: bool = True,
        num_open_buckets: int = 128,
        stats: RuntimeStats | None = None,
        initial_vertices: np.ndarray | list[int] | None = None,
        priority_fn=None,
    ):
        super().__init__(
            priority_vector,
            direction=direction,
            delta=delta,
            allow_coarsening=allow_coarsening,
            stats=stats,
            initial_vertices=initial_vertices,
        )
        if num_open_buckets < 1:
            raise PriorityQueueError("num_open_buckets must be positive")
        self.num_open_buckets = int(num_open_buckets)
        # Julienne's *original* interface computes priorities through a
        # user-supplied function called once per buffered vertex; the
        # paper's redesign (the default, priority_fn=None) reads the
        # priority vector directly, "eliminating extra function calls"
        # (Section 5.1).  The lambda mode exists to measure that redesign.
        self.priority_fn = priority_fn

        # Open window: buckets with orders [base, base + num_open_buckets).
        self._base: int = 0
        self._buckets: list[list[np.ndarray]] = [
            [] for _ in range(self.num_open_buckets)
        ]
        self._overflow: list[np.ndarray] = []
        # Non-empty open slots, kept by _bulk_insert / _pop_bucket.
        self._open_slots = 0

        # Update buffer with per-vertex dedup flags.
        self._pending: list[np.ndarray] = []
        self._pending_flags = np.zeros(self.num_vertices, dtype=bool)

        if self._initial_vertices.size:
            orders = self.order_of_value(
                self.priority_vector[self._initial_vertices]
            )
            self._base = int(orders.min())
            self._bulk_insert(self._initial_vertices, orders)

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    def finished(self) -> bool:
        return not (self._pending or self._overflow or self._open_slots)

    def dequeue_ready_set(self) -> np.ndarray:
        """Reduce the update buffer, bulk-update buckets, and pop the next
        non-empty bucket (``getNextBucket`` in the generated code)."""
        with trace_span("bucket.advance", "bucket", strategy="lazy") as sp:
            self._flush_pending()
            while True:
                order = self._next_nonempty_order()
                if order is None:
                    if not self._overflow:
                        return np.empty(0, dtype=np.int64)
                    self._rebucket_overflow()
                    continue
                self._cur_order = order
                members = self._pop_bucket(order)
                live = self._filter_and_mark_live(members, order)
                if live.size == 0:
                    continue
                occupancy = 1 + self._open_slots + (1 if self._overflow else 0)
                self._note_dequeue(sp, order, live.size, occupancy)
                return live

    # ------------------------------------------------------------------
    # Priority update operators (batch, used by vectorized executors)
    # ------------------------------------------------------------------
    def buffer_changed_batch(self, vertices: np.ndarray) -> int:
        """Buffer a batch of *distinct changed* vertices whose priorities the
        caller already updated in the priority vector.

        Deduplicates against the pending flags; returns how many entries were
        actually appended.  Accounting is per *vertex*, not per attempt: only
        fresh (previously unflagged) vertices charge a buffer append, and
        already-flagged vertices count as dedup hits.  This is what every
        compiled extremal kernel and the histogram operator
        (Figure 10) use: each changed vertex is buffered once per chunk.
        The scalar interpreter charges an append per *attempt* instead;
        only the constant-sum batch kernel still reproduces that, through
        :meth:`buffer_attempts_batch`.
        """
        vertices = sorted_distinct(np.asarray(vertices, dtype=np.int64))
        if vertices.size == 0:
            return 0
        fresh_mask = ~self._pending_flags[vertices]
        fresh = vertices[fresh_mask]
        self.stats.dedup_hits += int(vertices.size - fresh.size)
        if fresh.size:
            self._pending_flags[fresh] = True
            self._pending.append(fresh)
            self.stats.buffer_appends += int(fresh.size)
        return int(fresh.size)

    def buffer_attempts_batch(self, vertices: np.ndarray) -> int:
        """Buffer a stream of successful-update attempts, scalar-exactly.

        ``vertices`` is the multiset of vertices whose updates succeeded, one
        entry per successful update (duplicates allowed).  Every attempt
        charges a buffer append (the unconditional append counter of
        Figure 9(a)) and every attempt on an already-flagged vertex —
        including the second and later occurrences within this very batch —
        counts as a dedup hit, exactly as if :meth:`_enqueue_changed` had run
        once per attempt.  This is what the vectorized constant-sum operator
        uses to keep ``RuntimeStats`` bit-identical to the scalar interpreter.

        Returns how many distinct vertices were freshly appended.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return 0
        self.stats.buffer_appends += int(vertices.size)
        unique = sorted_distinct(vertices)
        fresh = unique[~self._pending_flags[unique]]
        self.stats.dedup_hits += int(vertices.size - fresh.size)
        if fresh.size:
            self._pending_flags[fresh] = True
            self._pending.append(fresh)
        return int(fresh.size)

    def apply_histogram_updates(
        self,
        vertices: np.ndarray,
        counts: np.ndarray,
        constant: int,
        threshold: int | None,
    ) -> np.ndarray:
        """The lazy-with-constant-sum path (Figure 10, vectorized).

        Applies ``priority += constant * count`` (clamped at ``threshold``)
        to each vertex, skipping finalized vertices, and buffers the changed
        ones.  Returns the changed vertices.
        """
        self._check_sum_sign(constant)
        vertices = np.asarray(vertices, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        old = self.priority_vector[vertices]
        alive = old != self.null_priority
        if self._cur_order is not None:
            alive &= self.order_of_value(old) >= self._cur_order
        vertices, counts, old = vertices[alive], counts[alive], old[alive]
        if vertices.size == 0:
            return vertices
        new_values = old + constant * counts
        if threshold is not None:
            if constant < 0:
                new_values = np.maximum(new_values, threshold)
            else:
                new_values = np.minimum(new_values, threshold)
        changed = new_values != old
        changed_vertices = vertices[changed]
        self.priority_vector[changed_vertices] = new_values[changed]
        self.stats.priority_updates += int(changed_vertices.size)
        self.buffer_changed_batch(changed_vertices)
        return changed_vertices

    def requeue_batch(self, vertices: np.ndarray) -> int:
        """Re-buffer vertices for another pass at their *unchanged* priority.

        A plain buffered update would be dropped at dequeue by the
        processed-at-value filter; requeuing clears that marker first.  Used
        by SetCover for candidate sets that lost a conflict-resolution round
        and must be retried in the same bucket.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        self._processed_value[vertices] = np.iinfo(np.int64).min
        return self.buffer_changed_batch(vertices)

    def remove_batch(self, vertices: np.ndarray) -> None:
        """Retire vertices from the queue by nulling their priority.

        Stale bucket entries are filtered at dequeue time (their priority no
        longer maps to any bucket).  Used by SetCover when a set is chosen
        for the cover or has no uncovered elements left.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        self.priority_vector[vertices] = self.null_priority

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enqueue_changed(self, vertex: int, new_value: int) -> None:
        """Append once per round, guarded by the dedup flag (the CAS in
        Figure 9(a), line 21)."""
        self.stats.buffer_appends += 1
        if self._pending_flags[vertex]:
            self.stats.dedup_hits += 1
            return
        self._pending_flags[vertex] = True
        self._pending.append(np.array([vertex], dtype=np.int64))

    def _flush_pending(self) -> None:
        """Reduce the buffer and bulk-update buckets (Figure 5, lines 12-13)."""
        if not self._pending:
            return
        _REDUCE_BATCHES.inc()
        with trace_span("bucket.reduce", "bucket", strategy="lazy") as sp:
            self._flush_pending_traced(sp)

    def _flush_pending_traced(self, sp: dict) -> None:
        # The dedup flags made the chunks disjoint and a bucket is sorted
        # when it is popped, so the reduce is a concatenation; only the
        # lambda interface is owed ascending call order.
        pending = self._pending[0]
        if len(self._pending) > 1:
            pending = np.concatenate(self._pending)
        if self.priority_fn is not None:
            pending = np.sort(pending)
        sp["buffered"] = int(pending.size)
        self._pending.clear()
        self._pending_flags[pending] = False
        self.stats.buffer_reductions += int(pending.size)
        priorities = self.priority_vector[pending]
        alive = priorities != self.null_priority
        live = pending[alive]
        if self.priority_fn is not None:
            # Lambda interface: one Python call per vertex per reduction.
            orders = np.fromiter(
                (
                    self.order_of_value(int(self.priority_fn(int(v))))
                    for v in live
                ),
                dtype=np.int64,
                count=live.size,
            )
        else:
            orders = self.order_of_value(priorities[alive])
        if self._cur_order is not None:
            below = orders < self._cur_order
            self.priority_inversions += int(np.count_nonzero(below))
            orders = np.maximum(orders, self._cur_order)
        self._bulk_insert(live, orders)

    def _bulk_insert(self, vertices: np.ndarray, orders: np.ndarray) -> None:
        if vertices.size == 0:
            return
        self.stats.bucket_inserts += int(vertices.size)
        window_end = self._base + self.num_open_buckets
        in_window = (orders >= self._base) & (orders < window_end)
        if not in_window.all():
            self._overflow.append(vertices[~in_window])
            vertices, orders = vertices[in_window], orders[in_window]
        for order, members in split_by_order(vertices, orders):
            bucket = self._buckets[order - self._base]
            if not bucket:
                self._open_slots += 1
            bucket.append(members)

    def _next_nonempty_order(self) -> int | None:
        start = self._base if self._cur_order is None else max(self._base, self._cur_order)
        for order in range(start, self._base + self.num_open_buckets):
            if self._buckets[order - self._base]:
                return order
        return None

    def _rebucket_overflow(self) -> None:
        """Open a new window at the smallest overflow order and redistribute."""
        _REBUCKETS.inc()
        with trace_span("bucket.rebucket_overflow", "bucket", strategy="lazy") as sp:
            self._rebucket_overflow_traced(sp)

    def _rebucket_overflow_traced(self, sp: dict) -> None:
        overflow = np.concatenate(self._overflow)
        sp["overflow"] = int(overflow.size)
        sp["old_base"] = int(self._base)
        self._overflow.clear()
        priorities = self.priority_vector[overflow]
        alive = priorities != self.null_priority
        live = overflow[alive]
        orders = np.asarray(self.order_of_value(priorities[alive]))
        if self._cur_order is not None:
            keep = orders >= self._cur_order
            live, orders = live[keep], orders[keep]
        if live.size == 0:
            return
        self._base = int(orders.min())
        sp["new_base"] = self._base
        self._buckets = [[] for _ in range(self.num_open_buckets)]
        self._open_slots = 0
        self._bulk_insert(live, orders)

    def _pop_bucket(self, order: int) -> np.ndarray:
        slot = order - self._base
        chunks = self._buckets[slot]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        self._buckets[slot] = []
        self._open_slots -= 1
        members = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return sorted_distinct(members)
