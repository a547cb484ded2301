"""Direct tests of the eager ordered-processing executor (repro.core).

The lazy and relaxed strategies have no executor: their loop is the
generated while loop (``tests/test_compiled_resume.py``).
"""

import numpy as np
import pytest

from repro.buckets import EagerBucketQueue
from repro.core.executors import run_eager
from repro.errors import CompileError
from repro.graph import rmat
from repro.graph.properties import INT_MAX
from repro.runtime import RuntimeStats, VirtualThreadPool
from repro.runtime.frontier import gather_out_edges, scatter_extremum


def setup_sssp(graph, source, queue_class, **kwargs):
    distances = np.full(graph.num_vertices, INT_MAX, dtype=np.int64)
    distances[source] = 0
    stats = RuntimeStats(num_threads=kwargs.get("num_threads", 2))
    queue = queue_class(distances, stats=stats, initial_vertices=[source], **kwargs)
    return distances, stats, queue


def make_relaxer(graph, distances, queue, stats):
    """A minimal write-min chunk relaxer, the shape the compiled eager
    operator hands :func:`run_eager`."""

    def gather(chunk, thread_id):
        return gather_out_edges(graph, chunk)

    def relax(chunk, thread_id, prefetched):
        sources, dests, weights = prefetched or gather(chunk, thread_id)
        stats.relaxations += int(dests.size)
        offers = distances[sources] + weights
        changed = scatter_extremum(distances, dests, offers, np.minimum)
        queue.insert_changed_batch(thread_id, changed)
        return int(dests.size + changed.size)

    relax.gather = gather
    return relax


@pytest.fixture
def graph():
    return rmat(8, 8, seed=4)


@pytest.fixture
def source(graph):
    return int(np.argmax(graph.out_degrees()))


@pytest.fixture
def reference(graph, source):
    from repro.algorithms import dijkstra_reference

    return dijkstra_reference(graph, source)


class TestRunEager:
    def test_basic(self, graph, source, reference):
        distances, stats, queue = setup_sssp(
            graph, source, EagerBucketQueue, delta=8, num_threads=2
        )
        pool = VirtualThreadPool(2)
        relax = make_relaxer(graph, distances, queue, stats)
        run_eager(graph, queue, relax, pool, stats)
        assert np.array_equal(distances, reference)
        assert stats.global_syncs == stats.rounds

    def test_fusion_counts_fused_rounds(self, graph, source, reference):
        distances, stats, queue = setup_sssp(
            graph, source, EagerBucketQueue, delta=8, num_threads=2
        )
        pool = VirtualThreadPool(2)
        relax = make_relaxer(graph, distances, queue, stats)
        run_eager(graph, queue, relax, pool, stats, fusion_threshold=1000)
        assert np.array_equal(distances, reference)
        assert stats.fused_rounds > 0

    def test_thread_count_mismatch_rejected(self, graph, source):
        distances, stats, queue = setup_sssp(
            graph, source, EagerBucketQueue, delta=8, num_threads=2
        )
        pool = VirtualThreadPool(3)
        relax = make_relaxer(graph, distances, queue, stats)
        with pytest.raises(CompileError):
            run_eager(graph, queue, relax, pool, stats)

    def test_stop_condition_halts(self, graph, source):
        distances, stats, queue = setup_sssp(
            graph, source, EagerBucketQueue, delta=8, num_threads=2
        )
        pool = VirtualThreadPool(2)
        relax = make_relaxer(graph, distances, queue, stats)
        calls = []

        def stop():
            calls.append(1)
            return len(calls) >= 2

        run_eager(graph, queue, relax, pool, stats, should_stop=stop)
        assert stats.rounds <= 2


class TestPartitionEdgeCases:
    """Regression tests for the VirtualThreadPool.partition fixes that came
    with the real parallel engine: empty frontiers, frontiers smaller than
    one chunk, and degenerate degree distributions under the edge-aware
    policy."""

    POLICIES = (
        "static-vertex-parallel",
        "dynamic-vertex-parallel",
        "edge-aware-dynamic-vertex-parallel",
    )

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("threads", (1, 3, 8))
    def test_empty_frontier_uniform_shape(self, policy, threads):
        pool = VirtualThreadPool(threads, policy)
        empty = np.empty(0, dtype=np.int64)
        parts = pool.partition(empty, degrees=empty)
        assert len(parts) == threads
        for part in parts:
            assert part.size == 0
            assert part.dtype == np.int64

    @pytest.mark.parametrize("policy", POLICIES)
    def test_partition_preserves_items_in_order(self, policy):
        items = np.arange(100, 123, dtype=np.int64)
        degrees = (items * 7) % 5
        pool = VirtualThreadPool(4, policy, chunk_size=3)
        parts = pool.partition(items, degrees=degrees)
        assert len(parts) == 4
        assert np.array_equal(np.concatenate(parts), items) or np.array_equal(
            np.sort(np.concatenate(parts)), items
        )
        # No item lost, none duplicated.
        assert sum(p.size for p in parts) == items.size

    def test_chunk_size_larger_than_frontier_spreads(self):
        """A frontier smaller than one chunk used to land entirely on thread
        0; it must now spread across the pool."""
        pool = VirtualThreadPool(4, "dynamic-vertex-parallel", chunk_size=1024)
        items = np.arange(8, dtype=np.int64)
        parts = pool.partition(items)
        nonempty = [p for p in parts if p.size]
        assert len(nonempty) == 4
        assert max(p.size for p in nonempty) == 2

    def test_single_item_frontier(self):
        pool = VirtualThreadPool(4, "dynamic-vertex-parallel", chunk_size=64)
        parts = pool.partition(np.array([42], dtype=np.int64))
        assert [p.size for p in parts] == [1, 0, 0, 0]
        assert parts[0][0] == 42

    def test_large_frontier_keeps_historical_dealing(self):
        """Frontiers bigger than chunk_size must keep the historical
        round-robin dealing bit-for-bit (stats invariance across PRs)."""
        pool = VirtualThreadPool(2, "dynamic-vertex-parallel", chunk_size=2)
        items = np.arange(10, dtype=np.int64)
        parts = pool.partition(items)
        assert np.array_equal(parts[0], [0, 1, 4, 5, 8, 9])
        assert np.array_equal(parts[1], [2, 3, 6, 7])

    def test_edge_aware_all_zero_degrees_even_split(self):
        """An all-zero-degree frontier must degenerate to an even contiguous
        split, not a skewed one."""
        pool = VirtualThreadPool(4, "edge-aware-dynamic-vertex-parallel")
        items = np.arange(8, dtype=np.int64)
        parts = pool.partition(items, degrees=np.zeros(8, dtype=np.int64))
        assert [p.size for p in parts] == [2, 2, 2, 2]

    def test_edge_aware_hub_rebalances(self):
        """A hub vertex blowing one thread's budget must not strand the
        remaining threads without work."""
        pool = VirtualThreadPool(4, "edge-aware-dynamic-vertex-parallel")
        items = np.arange(4, dtype=np.int64)
        degrees = np.array([100, 0, 0, 0], dtype=np.int64)
        parts = pool.partition(items, degrees=degrees)
        assert [p.size for p in parts] == [1, 1, 1, 1]

    def test_edge_aware_fewer_items_than_threads(self):
        pool = VirtualThreadPool(8, "edge-aware-dynamic-vertex-parallel")
        items = np.array([5, 9], dtype=np.int64)
        parts = pool.partition(items, degrees=np.array([3, 4], dtype=np.int64))
        assert len(parts) == 8
        assert sum(p.size for p in parts) == 2
        assert np.array_equal(np.concatenate(parts), items)

    def test_edge_aware_requires_degrees(self):
        pool = VirtualThreadPool(2, "edge-aware-dynamic-vertex-parallel")
        with pytest.raises(Exception):
            pool.partition(np.arange(4, dtype=np.int64))
