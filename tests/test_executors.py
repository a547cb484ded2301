"""Direct tests of the ordered-processing executors (repro.core)."""

import numpy as np
import pytest

from repro.algorithms.common import make_relaxer
from repro.buckets import EagerBucketQueue, LazyBucketQueue, RelaxedPriorityQueue
from repro.core.executors import run_eager, run_lazy, run_lazy_pull, run_relaxed
from repro.errors import CompileError
from repro.graph import rmat
from repro.graph.properties import INT_MAX
from repro.runtime import RuntimeStats, VirtualThreadPool


def setup_sssp(graph, source, queue_class, **kwargs):
    distances = np.full(graph.num_vertices, INT_MAX, dtype=np.int64)
    distances[source] = 0
    stats = RuntimeStats(num_threads=kwargs.get("num_threads", 2))
    queue = queue_class(distances, stats=stats, initial_vertices=[source], **kwargs)
    return distances, stats, queue


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


class TestRunLazy:
    def test_basic(self, graph, source, reference):
        distances, stats, queue = setup_sssp(graph, source, LazyBucketQueue, delta=8)
        pool = VirtualThreadPool(2)
        relax = make_relaxer(graph, distances, queue, stats)
        run_lazy(graph, queue, relax, pool, stats)
        assert np.array_equal(distances, reference)
        assert stats.global_syncs == 2 * stats.rounds

    def test_round_overhead_charged(self, graph, source):
        def run_with(overhead):
            distances, stats, queue = setup_sssp(
                graph, source, LazyBucketQueue, delta=8
            )
            pool = VirtualThreadPool(2)
            relax = make_relaxer(graph, distances, queue, stats)
            run_lazy(graph, queue, relax, pool, stats, round_overhead=overhead)
            return stats

        plain = run_with(None)
        charged = run_with(lambda frontier: 1000)
        assert charged.total_work > plain.total_work

    def test_pull_variant(self, graph, source, reference):
        distances, stats, queue = setup_sssp(graph, source, LazyBucketQueue, delta=8)
        pool = VirtualThreadPool(2)
        frontier_map = np.zeros(graph.num_vertices, dtype=bool)
        relax = make_relaxer(
            graph, distances, queue, stats, frontier_map=frontier_map
        )
        run_lazy_pull(graph, queue, relax, pool, stats, frontier_map)
        assert np.array_equal(distances, reference)
        # Pull never counts atomics (Figure 9(b)).
        assert stats.atomic_ops == 0


class TestRunRelaxed:
    def test_basic(self, graph, source, reference):
        distances, stats, queue = setup_sssp(
            graph, source, RelaxedPriorityQueue, delta=8
        )
        pool = VirtualThreadPool(2)
        relax = make_relaxer(graph, distances, queue, stats)
        run_relaxed(graph, queue, relax, pool, stats)
        assert np.array_equal(distances, reference)

    def test_fewer_syncs_than_rounds(self, graph, source):
        distances, stats, queue = setup_sssp(
            graph, source, RelaxedPriorityQueue, delta=8, chunk_size=16
        )
        pool = VirtualThreadPool(2)
        relax = make_relaxer(graph, distances, queue, stats)
        run_relaxed(graph, queue, relax, pool, stats)
        assert stats.global_syncs < stats.rounds


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
