"""Abstract priority queue: the Table 1 operator vocabulary.

Both bucketing strategies (lazy, Section 3.1; eager, Section 3.2) implement
this interface.  The queue does not own the priorities: it references a
*priority vector* (e.g. the ``dist`` array in SSSP) and maps values to bucket
indices with the coarsening factor Δ, exactly as the paper's redesigned
Julienne interface does ("computes the priorities using a priority vector and
Δ value ... eliminating extra function calls").

Internally all implementations work in *order space*: an ascending integer
sequence of buckets to process.  For ``lower_first`` queues the order of a
priority value ``p`` is ``p // Δ``; for ``higher_first`` queues it is
``-(p // Δ)``, so that ascending order always means "process next".  This
lets one implementation serve SSSP (lower first) and SetCover (higher first).

Monotonicity contract (Section 2): priorities move in one direction only.
Updates that would move a vertex into an already-processed bucket are a
priority inversion; with priority coarsening the implementations clamp such
updates into the current bucket (counted in ``stats``), which is what both
GAPBS and the paper's Figure 10 transformed function do.  Updates to vertices
whose bucket has already been finalized are ignored.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod

import numpy as np

from ..errors import PriorityQueueError
from ..graph.properties import NULL_PRIORITY_HIGHER, NULL_PRIORITY_LOWER
from ..obs import metrics
from ..runtime.stats import RuntimeStats

__all__ = [
    "PriorityDirection",
    "AbstractPriorityQueue",
    "NULL_PRIORITY_LOWER",
    "NULL_PRIORITY_HIGHER",
    "sorted_distinct",
    "split_by_order",
]


_DEQUEUES = metrics.counter("bucket.dequeues")
_FRONTIER_SIZE = metrics.histogram("bucket.frontier_size")
_OCCUPANCY = metrics.histogram("bucket.occupancy")
_DELTA = metrics.gauge("bucket.delta")


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a`` (``numpy.unique``'s result) without
    the hash or the sort when ``a`` does not need them: a strictly increasing
    array comes back untouched (not copied), a non-decreasing one only loses
    its repeats."""
    if a.size < 2:
        return a
    rising = a[1:] > a[:-1]
    if rising.all():
        return a
    if not (a[1:] >= a[:-1]).all():
        a = np.sort(a)
        rising = a[1:] > a[:-1]
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    keep[1:] = rising
    return a[keep]


def split_by_order(
    vertices: np.ndarray, orders: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """Group ``vertices`` by ``orders``: ``(order, members)`` pairs in
    ascending order, members in input order, always fresh arrays — one
    stable partition instead of one boolean mask per distinct order."""
    if vertices.size == 0:
        return []
    low, high = int(orders.min()), int(orders.max())
    if low == high:
        return [(low, vertices.copy())]
    # A narrow key turns the stable sort into a radix sort.
    keys = (orders - low).astype(np.uint16) if high - low < 1 << 16 else orders
    perm = np.argsort(keys, kind="stable")
    ranked = orders[perm]
    grouped = vertices[perm]
    cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
    return [
        (int(ranked[lo]), grouped[lo:hi])
        for lo, hi in zip([0, *cuts], [*cuts, perm.size])
    ]


class PriorityDirection(enum.Enum):
    """Which end of the priority range is processed first."""

    LOWER_FIRST = "lower_first"
    HIGHER_FIRST = "higher_first"

    @classmethod
    def parse(cls, value: "PriorityDirection | str") -> "PriorityDirection":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise PriorityQueueError(
            f"unknown priority direction {value!r}; "
            f"expected 'lower_first' or 'higher_first'"
        )


class AbstractPriorityQueue(ABC):
    """Common state and the Table 1 operator set.

    Parameters
    ----------
    priority_vector:
        int64 numpy array of per-vertex priority values; the queue keeps a
        live reference (updates through the queue mutate it in place).
    direction:
        ``lower_first`` or ``higher_first`` processing order.
    delta:
        Priority-coarsening factor Δ; bucket of value ``p`` is ``p // Δ``.
    allow_coarsening:
        Mirrors the constructor flag in Table 1.  When False, ``delta`` must
        be 1 (strict ordering, required by k-core and SetCover).
    stats:
        Statistics sink (a fresh one is created when omitted).
    initial_vertices:
        The vertices initially present in the queue.  ``None`` means "every
        vertex whose priority is non-null" (the k-core/SetCover pattern);
        SSSP passes ``[start_vertex]``.
    """

    def __init__(
        self,
        priority_vector: np.ndarray,
        direction: PriorityDirection | str = PriorityDirection.LOWER_FIRST,
        delta: int = 1,
        allow_coarsening: bool = True,
        stats: RuntimeStats | None = None,
        initial_vertices: np.ndarray | list[int] | None = None,
    ):
        if priority_vector.dtype != np.int64 or priority_vector.ndim != 1:
            raise PriorityQueueError("priority_vector must be a 1-D int64 array")
        if delta < 1:
            raise PriorityQueueError("delta must be >= 1")
        self.direction = PriorityDirection.parse(direction)
        if not allow_coarsening and delta != 1:
            raise PriorityQueueError(
                "delta coarsening requested on a queue with coarsening disabled"
            )
        self.priority_vector = priority_vector
        self.delta = int(delta)
        self.allow_coarsening = bool(allow_coarsening)
        self.stats = stats if stats is not None else RuntimeStats()
        self.num_vertices = priority_vector.size
        self.priority_inversions = 0
        # Order of the bucket currently being processed; buckets with order
        # strictly below this are finalized.
        self._cur_order: int | None = None

        if self.direction is PriorityDirection.LOWER_FIRST:
            self.null_priority = NULL_PRIORITY_LOWER
        else:
            self.null_priority = NULL_PRIORITY_HIGHER

        if initial_vertices is None:
            initial = np.flatnonzero(priority_vector != self.null_priority).astype(
                np.int64
            )
        else:
            initial = np.asarray(initial_vertices, dtype=np.int64)
        self._initial_vertices = initial
        # Priority value each vertex was last processed at; the sentinel is a
        # value no real priority (or null sentinel) can take.
        self._processed_value = np.full(
            self.num_vertices, np.iinfo(np.int64).min, dtype=np.int64
        )

    # ------------------------------------------------------------------
    # Order-space mapping
    # ------------------------------------------------------------------
    def order_of_value(self, value: int | np.ndarray) -> int | np.ndarray:
        """Map priority value(s) to order space (ascending = next to process)."""
        bucket = value // self.delta
        if self.direction is PriorityDirection.LOWER_FIRST:
            return bucket
        return -bucket

    def value_of_order(self, order: int) -> int:
        """The smallest-magnitude priority value mapping to ``order``."""
        if self.direction is PriorityDirection.LOWER_FIRST:
            return order * self.delta
        return -order * self.delta

    @property
    def current_order(self) -> int | None:
        """Order of the bucket being processed (None before first dequeue)."""
        return self._cur_order

    # ------------------------------------------------------------------
    # Table 1 operators
    # ------------------------------------------------------------------
    def get_current_priority(self) -> int:
        """Priority value of the current bucket (``pq.getCurrentPriority()``)."""
        if self._cur_order is None:
            raise PriorityQueueError("no bucket has been dequeued yet")
        return self.value_of_order(self._cur_order)

    def finished_vertex(self, vertex: int) -> bool:
        """True when ``vertex``'s priority can no longer change
        (``pq.finishedVertex(v)``): its bucket has already been processed."""
        if self._cur_order is None:
            return False
        priority = self.priority_vector[vertex]
        if priority == self.null_priority:
            return False
        return self.order_of_value(int(priority)) < self._cur_order

    # The update operators ignore finalized vertices; the relaxed queue,
    # which finalizes nothing, overrides this (and ``finalizes``, which the
    # batch kernels read instead of testing the queue's class).
    _is_finalized = finished_vertex
    finalizes = True

    def round_syncs(self) -> int:
        """Global synchronizations one lazy apply round costs: the update
        buffer's reduction and the round barrier (Figure 5)."""
        return 2

    @abstractmethod
    def finished(self) -> bool:
        """True when no bucket remains to process (``pq.finished()``)."""

    @abstractmethod
    def dequeue_ready_set(self) -> np.ndarray:
        """Extract the next ready bucket as an array of vertex ids
        (``pq.dequeueReadySet()``)."""

    def update_priority_min(self, vertex: int, new_value: int) -> bool:
        """Decrease ``vertex``'s priority to ``new_value`` if smaller
        (``pq.updatePriorityMin``).  Returns True when the priority changed."""
        if new_value >= int(self.priority_vector[vertex]):
            return False
        return self._commit_update(vertex, new_value)

    def update_priority_max(self, vertex: int, new_value: int) -> bool:
        """Increase ``vertex``'s priority to ``new_value`` if larger
        (``pq.updatePriorityMax``).  Returns True when the priority changed."""
        old = int(self.priority_vector[vertex])
        if old != self.null_priority and new_value <= old:
            return False
        return self._commit_update(vertex, new_value)

    def update_priority_sum(
        self, vertex: int, sum_diff: int, min_threshold: int | None = None
    ) -> bool:
        """Add ``sum_diff`` to ``vertex``'s priority, clamped at
        ``min_threshold`` (``pq.updatePrioritySum``)."""
        self._check_sum_sign(sum_diff)
        old = int(self.priority_vector[vertex])
        if old == self.null_priority:
            raise PriorityQueueError(
                "updatePrioritySum on a vertex with null priority"
            )
        new_value = old + sum_diff
        if min_threshold is not None:
            if sum_diff < 0:
                new_value = max(new_value, min_threshold)
            else:
                new_value = min(new_value, min_threshold)
        if new_value == old:
            return False
        return self._commit_update(vertex, new_value)

    def _commit_update(self, vertex: int, new_value: int) -> bool:
        """Store a changed priority and hand the vertex to the strategy;
        updates to finalized vertices are ignored (k-core correctness)."""
        if self._is_finalized(vertex):
            return False
        self.priority_vector[vertex] = new_value
        self.stats.priority_updates += 1
        self._enqueue_changed(vertex, new_value)
        return True

    @abstractmethod
    def _enqueue_changed(self, vertex: int, new_value: int) -> None:
        """Bucket (eager, relaxed) or buffer (lazy) one changed vertex."""

    # ------------------------------------------------------------------
    # Shared helpers for implementations
    # ------------------------------------------------------------------
    def _note_dequeue(
        self, sp: dict, order: int, frontier_size: int, occupancy: int | None = None
    ) -> None:
        """Record one non-empty dequeue: stats, registry, and the span's
        late args.  ``occupancy`` (open buckets at the dequeue) also turns
        on the per-round series; the relaxed queue passes none because its
        chunk order is scheduling-dependent (sums stay deterministic,
        sequences would not)."""
        frontier_size = int(frontier_size)
        self.stats.vertices_processed += frontier_size
        if occupancy is not None:
            self.stats.frontier_per_round.append(frontier_size)
            self.stats.bucket_occupancy_per_round.append(occupancy)
            _OCCUPANCY.observe(occupancy)
        _DEQUEUES.inc()
        _FRONTIER_SIZE.observe(frontier_size)
        _DELTA.set(self.delta)
        sp["order"] = int(order)
        sp["frontier"] = frontier_size

    def _clamped_order(self, order: int) -> int:
        """Clamp a target order into the unprocessed range, counting inversions."""
        if self._cur_order is not None and order < self._cur_order:
            self.priority_inversions += 1
            return self._cur_order
        return order

    def _filter_and_mark_live(self, members: np.ndarray, order: int) -> np.ndarray:
        """Select the live entries of a popped bucket and mark them processed.

        An entry is live when its vertex's current priority still maps to
        this bucket or an earlier one (later-mapping copies are early stale
        duplicates; at-or-earlier covers inversion-clamped insertions), its
        priority is not null (removed vertices), and the vertex has not
        already been processed at this exact priority value (the stale-copy
        filter — the role of GAPBS' ``dist >= Δ * bucket`` check).
        """
        if members.size == 0:
            return members
        values = self.priority_vector[members]
        orders = np.asarray(self.order_of_value(values))
        live_mask = (
            (orders <= order)
            & (values != self.null_priority)
            & (values != self._processed_value[members])
        )
        live = members[live_mask]
        self._processed_value[live] = values[live_mask]
        return live

    _sum_sign: int = 0

    def _check_sum_sign(self, sum_diff: int) -> None:
        """Enforce Section 2's monotonic-change contract for sum updates.

        ``updatePriorityMin``/``Max`` are inherently monotone (a larger/smaller
        value is simply a no-op, like the writeMin in the generated code), but
        ``updatePrioritySum`` could move priorities both ways; the contract
        requires one direction per queue, so the first update's sign is pinned.
        """
        if sum_diff == 0:
            return
        sign = 1 if sum_diff > 0 else -1
        if self._sum_sign == 0:
            self._sum_sign = sign
        elif self._sum_sign != sign:
            raise PriorityQueueError(
                "updatePrioritySum changed direction; priorities must change "
                "monotonically (Section 2)"
            )
