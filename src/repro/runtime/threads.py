"""The cost model's virtual threads.

The interpreter runs one chunk per round; virtual threads are the cost
model's split.  :func:`split_work` is the one place that knows how a relax
call's work divides across ``Schedule.num_threads`` threads under the
policies GraphIt's ``configApplyParallelization`` exposes:

- ``static-vertex-parallel``: contiguous, nearly equal blocks of items
  (OpenMP static).
- ``dynamic-vertex-parallel``: chunks of ``chunk_size`` items dealt
  round-robin (OpenMP ``schedule(dynamic, 64)`` under a deterministic
  serialization); a frontier no larger than one chunk is cut into
  ``num_threads`` chunks instead of landing on one thread.
- ``edge-aware-dynamic-vertex-parallel``: contiguous blocks of
  (approximately) equal cost, GraphIt's edge-aware load balancing.

Real threads run only on the native path (OpenMP).
"""

from __future__ import annotations

import numpy as np

from ..errors import SchedulingError

__all__ = ["PARALLELIZATION_POLICIES", "split_work"]

PARALLELIZATION_POLICIES = (
    "static-vertex-parallel",
    "dynamic-vertex-parallel",
    "edge-aware-dynamic-vertex-parallel",
)


def split_work(
    costs: np.ndarray,
    num_threads: int,
    policy: str = "dynamic-vertex-parallel",
    chunk_size: int = 64,
) -> np.ndarray:
    """Each virtual thread's total of ``costs`` (one cost per work item, in
    frontier order; a vertex costs its degree + 1) under ``policy``."""
    if num_threads < 1 or chunk_size < 1:
        raise SchedulingError("num_threads and chunk_size must be positive")
    if policy not in PARALLELIZATION_POLICIES:
        raise SchedulingError(
            f"unknown parallelization policy {policy!r}; "
            f"expected one of {PARALLELIZATION_POLICIES}"
        )
    costs = np.asarray(costs, dtype=np.int64)
    n = costs.size
    totals = np.zeros(num_threads, dtype=np.int64)
    if num_threads == 1 or n <= 1:
        totals[0] = costs.sum()
        return totals
    if policy == "edge-aware-dynamic-vertex-parallel":
        cumulative = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(costs, out=cumulative[1:])
        edges = np.concatenate(([0], _edge_aware_bounds(cumulative, num_threads), [n]))
        return cumulative[edges[1:]] - cumulative[edges[:-1]]
    if n <= num_threads:
        # One item per thread under both the static and the dynamic split.
        totals[:n] = costs
        return totals
    if policy == "static-vertex-parallel":
        # np.array_split's blocks: the first ``n % num_threads`` get one more.
        index = np.arange(num_threads)
        starts = index * (n // num_threads) + np.minimum(index, n % num_threads)
        return np.add.reduceat(costs, starts)
    if n <= chunk_size:
        # A frontier no larger than one chunk is cut into num_threads chunks.
        chunk = -(-n // num_threads)
        starts = np.arange(0, n, chunk)
        totals[: starts.size] = np.add.reduceat(costs, starts)
        return totals
    chunk_totals = np.add.reduceat(costs, np.arange(0, n, chunk_size))
    # Chunk i goes to thread i % num_threads.
    rows = -(-chunk_totals.size // num_threads)
    dealt = np.zeros(rows * num_threads, dtype=np.int64)
    dealt[: chunk_totals.size] = chunk_totals
    return dealt.reshape(rows, num_threads).sum(axis=0)


def _edge_aware_bounds(cumulative: np.ndarray, num_threads: int) -> np.ndarray:
    """Greedy fair-share block ends: each thread takes items until its cost
    reaches (remaining cost) / (remaining threads), so a hub that blows one
    thread's budget re-balances the rest ([100, 0, 0, 0] over 4 threads is
    one item each) and equal costs split evenly."""
    n = cumulative.size - 1
    total = int(cumulative[-1])
    bounds = []
    start = 0
    for parts_left in range(num_threads, 1, -1):
        if start < n:
            consumed = int(cumulative[start])
            # The first block end whose cost reaches the fair share (an
            # integer ceiling, so the search stays on int64).
            fair = consumed - (consumed - total) // parts_left
            end = int(cumulative.searchsorted(fair))
            # At least one item, and never strand the remaining threads.
            end = min(max(end, start + 1), n)
            if n - (parts_left - 1) > start:
                end = min(end, n - (parts_left - 1))
            start = end
        bounds.append(start)
    return np.asarray(bounds, dtype=np.int64)
