"""Deterministic virtual-thread work partitioning.

The eager bucketing runtime is defined in terms of thread-local state (each
thread owns its local buckets — Figures 6 and 7 of the paper), so the notion
of "which thread processes which vertex" must exist even though Python
executes sequentially.  :class:`VirtualThreadPool` deterministically assigns
frontier vertices to virtual threads using the same policies GraphIt's
scheduling language exposes through ``configApplyParallelization``:

- ``static-vertex-parallel``: contiguous block partitioning (OpenMP static).
- ``dynamic-vertex-parallel``: chunks of ``chunk_size`` vertices dealt
  round-robin (OpenMP ``schedule(dynamic, 64)`` under a deterministic
  serialization).
- ``edge-aware-dynamic-vertex-parallel``: chunks balanced by out-degree sum,
  emulating GraphIt's edge-aware load balancing.

Since PR 3 the pool is no longer purely virtual: constructed with
``execution="parallel"`` it owns a :class:`ParallelExecutionEngine` that runs
the per-thread partitions on *real* worker threads (``run_round``), while
``execution="serial"`` (the default) preserves the historical inline loop
bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..errors import SchedulingError
from .parallel import EXECUTION_MODES, ParallelExecutionEngine

__all__ = ["VirtualThreadPool", "PARALLELIZATION_POLICIES", "EXECUTION_MODES"]

PARALLELIZATION_POLICIES = (
    "static-vertex-parallel",
    "dynamic-vertex-parallel",
    "edge-aware-dynamic-vertex-parallel",
)


class VirtualThreadPool:
    """Partitions work items across a fixed number of virtual threads."""

    def __init__(
        self,
        num_threads: int = 8,
        policy: str = "dynamic-vertex-parallel",
        chunk_size: int = 64,
        execution: str = "serial",
    ):
        if num_threads < 1:
            raise SchedulingError("num_threads must be positive")
        if policy not in PARALLELIZATION_POLICIES:
            raise SchedulingError(
                f"unknown parallelization policy {policy!r}; "
                f"expected one of {PARALLELIZATION_POLICIES}"
            )
        if chunk_size < 1:
            raise SchedulingError("chunk_size must be positive")
        if execution not in EXECUTION_MODES:
            raise SchedulingError(
                f"unknown execution mode {execution!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        self.num_threads = int(num_threads)
        self.policy = policy
        self.chunk_size = int(chunk_size)
        self.execution = execution
        self.engine = ParallelExecutionEngine(self.num_threads, execution)

    @property
    def is_parallel(self) -> bool:
        """True when rounds run on real worker threads."""
        return self.engine.is_parallel

    def bind_stats(self, stats) -> None:
        """Attach a RuntimeStats sink for barrier/wall-time observables."""
        self.engine.stats = stats

    def run_round(
        self,
        chunks: Sequence[np.ndarray],
        produce: Callable[[np.ndarray, int], Any],
        commit: Callable[[np.ndarray, int, Any], None],
    ) -> None:
        """Execute one round's chunks via the execution engine.

        See :meth:`ParallelExecutionEngine.run_round` for the produce/commit
        contract.  In serial mode this is exactly the historical inline loop.
        """
        self.engine.run_round(chunks, produce, commit)

    def partition(
        self, items: np.ndarray, degrees: np.ndarray | None = None
    ) -> list[np.ndarray]:
        """Split ``items`` into one array per thread.

        Parameters
        ----------
        items:
            The work items (vertex ids) of the current round.
        degrees:
            Out-degrees aligned with ``items``; required by (and only used
            for) the edge-aware policy.
        """
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            # Uniform empty split for every policy (previously the static and
            # edge-aware paths could return differently-shaped empties).
            return [np.empty(0, dtype=np.int64) for _ in range(self.num_threads)]
        if self.policy == "static-vertex-parallel":
            return self._partition_static(items)
        if self.policy == "dynamic-vertex-parallel":
            return self._partition_chunked(items)
        if degrees is None:
            raise SchedulingError(
                "edge-aware partitioning requires per-item degrees"
            )
        return self._partition_edge_aware(items, np.asarray(degrees, dtype=np.int64))

    def _partition_static(self, items: np.ndarray) -> list[np.ndarray]:
        # np.array_split gives contiguous, nearly equal blocks.
        return [np.ascontiguousarray(part) for part in np.array_split(items, self.num_threads)]

    def _partition_chunked(self, items: np.ndarray) -> list[np.ndarray]:
        # Edge case: a chunk_size larger than the frontier used to funnel the
        # whole round onto thread 0 as one oversized chunk.  Cap the chunk so
        # such a frontier still spreads across the pool.  Frontiers bigger
        # than chunk_size keep the historical dealing bit-for-bit.
        effective_chunk = self.chunk_size
        if items.size <= self.chunk_size:
            effective_chunk = max(1, -(-items.size // self.num_threads))
        parts: list[list[np.ndarray]] = [[] for _ in range(self.num_threads)]
        for chunk_index, start in enumerate(range(0, items.size, effective_chunk)):
            thread = chunk_index % self.num_threads
            parts[thread].append(items[start : start + effective_chunk])
        return [
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            for chunks in parts
        ]

    def _partition_edge_aware(
        self, items: np.ndarray, degrees: np.ndarray
    ) -> list[np.ndarray]:
        """Contiguous partition with (approximately) equal degree sums.

        The boundaries are placed where the running degree sum crosses each
        thread's fair share — GraphIt's edge-aware split.  A single
        high-degree vertex still binds to one thread (vertices are the unit
        of work distribution), but the remaining vertices spread so no
        thread carries a hub *plus* a full share of light vertices.
        """
        if degrees.shape != items.shape:
            raise SchedulingError("degrees must align with items")
        if items.size == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(self.num_threads)]
        # Each vertex costs its degree plus one unit of frontier overhead.
        costs = degrees + 1
        cumulative = np.cumsum(costs)
        total = int(cumulative[-1])
        # Greedy fair-share boundaries: each thread takes vertices until its
        # cost reaches (remaining cost) / (remaining threads).  Unlike the
        # old one-shot searchsorted against the *global* fair share, this
        # re-balances after a hub vertex blows one thread's budget, so a
        # degree distribution like [100, 0, 0, 0] across 4 threads yields
        # [hub], [v1], [v2], [v3] rather than [hub], [], [], [v1 v2 v3] —
        # and an all-zero-degree frontier (costs all 1) degenerates to an
        # even contiguous split instead of a skewed one.
        bounds: list[int] = []
        start = 0
        for parts_left in range(self.num_threads, 1, -1):
            if start >= items.size:
                bounds.append(start)
                continue
            consumed = int(cumulative[start - 1]) if start > 0 else 0
            fair = (total - consumed) / parts_left
            end = int(np.searchsorted(cumulative, consumed + fair, side="left")) + 1
            end = min(max(end, start + 1), items.size)
            # Never strand remaining threads with nothing while items remain.
            max_end = items.size - (parts_left - 1)
            if max_end > start:
                end = min(end, max_end)
            bounds.append(end)
            start = end
        pieces = np.split(items, bounds)
        return [np.ascontiguousarray(piece) for piece in pieces]
