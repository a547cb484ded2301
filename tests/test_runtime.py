"""Unit tests for the runtime substrate: stats, threads, frontiers."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.graph import rmat
from repro.runtime import (
    CostModel,
    RuntimeStats,
    VirtualThreadPool,
    gather_in_edges,
    gather_out_edges,
    gather_segments,
    histogram_counts,
)


class TestRuntimeStats:
    def test_round_lifecycle(self):
        stats = RuntimeStats(num_threads=2)
        stats.begin_round()
        stats.add_thread_work(0, 10)
        stats.add_thread_work(1, 4)
        stats.end_round(syncs=1)
        assert stats.rounds == 1
        assert stats.max_work_per_round == [10]
        assert stats.total_work_per_round == [14]
        assert stats.global_syncs == 1

    def test_fused_rounds_do_not_increase_syncs(self):
        stats = RuntimeStats(num_threads=1)
        stats.begin_round()
        stats.add_thread_work(0, 5)
        stats.end_round(syncs=1, fused=3)
        assert stats.rounds == 1
        assert stats.fused_rounds == 3
        assert stats.global_syncs == 1

    def test_double_begin_rejected(self):
        stats = RuntimeStats()
        stats.begin_round()
        with pytest.raises(RuntimeError):
            stats.begin_round()

    def test_work_outside_round_rejected(self):
        stats = RuntimeStats()
        with pytest.raises(RuntimeError):
            stats.add_thread_work(0, 1)
        with pytest.raises(RuntimeError):
            stats.end_round()

    def test_simulated_time_components(self):
        stats = RuntimeStats(num_threads=2)
        stats.begin_round()
        stats.add_thread_work(0, 100)
        stats.end_round(syncs=1)
        model = CostModel(work_unit=1.0, sync=50.0, bucket_insert=0, buffer_op=0, atomic=0)
        assert stats.simulated_time(model) == pytest.approx(150.0)

    def test_simulated_time_charges_parallel_ops(self):
        stats = RuntimeStats(num_threads=4)
        stats.bucket_inserts = 40
        model = CostModel(work_unit=1, sync=0, bucket_insert=2, buffer_op=0, atomic=0)
        # 40 inserts * 2 units / 4 threads
        assert stats.simulated_time(model) == pytest.approx(20.0)

    def test_fewer_syncs_means_less_simulated_time(self):
        low, high = RuntimeStats(num_threads=1), RuntimeStats(num_threads=1)
        for stats, syncs in ((low, 1), (high, 2)):
            for _ in range(10):
                stats.begin_round()
                stats.add_thread_work(0, 5)
                stats.end_round(syncs=syncs)
        assert low.simulated_time() < high.simulated_time()

    def test_merge(self):
        a, b = RuntimeStats(num_threads=1), RuntimeStats(num_threads=1)
        for stats in (a, b):
            stats.begin_round()
            stats.add_thread_work(0, 3)
            stats.end_round()
        a.relaxations = 5
        b.relaxations = 7
        a.merge(b)
        assert a.rounds == 2
        assert a.relaxations == 12
        assert a.max_work_per_round == [3, 3]


class TestVirtualThreadPool:
    def test_static_partition_covers_items(self):
        pool = VirtualThreadPool(3, policy="static-vertex-parallel")
        items = np.arange(10)
        parts = pool.partition(items)
        assert len(parts) == 3
        assert np.array_equal(np.sort(np.concatenate(parts)), items)

    def test_dynamic_chunked_round_robin(self):
        pool = VirtualThreadPool(2, policy="dynamic-vertex-parallel", chunk_size=2)
        parts = pool.partition(np.arange(8))
        assert parts[0].tolist() == [0, 1, 4, 5]
        assert parts[1].tolist() == [2, 3, 6, 7]

    def test_edge_aware_balances_loads(self):
        pool = VirtualThreadPool(
            2, policy="edge-aware-dynamic-vertex-parallel", chunk_size=1
        )
        items = np.arange(4)
        degrees = np.array([100, 1, 1, 1])
        parts = pool.partition(items, degrees=degrees)
        # The heavy vertex must be alone on its thread.
        loads = [degrees[part].sum() for part in parts]
        assert max(loads) == 100

    def test_edge_aware_requires_degrees(self):
        pool = VirtualThreadPool(2, policy="edge-aware-dynamic-vertex-parallel")
        with pytest.raises(SchedulingError):
            pool.partition(np.arange(4))

    def test_empty_items(self):
        pool = VirtualThreadPool(4)
        parts = pool.partition(np.empty(0, dtype=np.int64))
        assert all(part.size == 0 for part in parts)

    def test_deterministic(self):
        pool = VirtualThreadPool(3, chunk_size=5)
        items = np.arange(100)
        a = pool.partition(items)
        b = pool.partition(items)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_invalid_config(self):
        with pytest.raises(SchedulingError):
            VirtualThreadPool(0)
        with pytest.raises(SchedulingError):
            VirtualThreadPool(2, policy="work-stealing")
        with pytest.raises(SchedulingError):
            VirtualThreadPool(2, chunk_size=0)


class TestFrontierHelpers:
    def test_gather_segments(self):
        starts = np.array([0, 5, 5, 9])
        ends = np.array([2, 5, 8, 10])
        assert gather_segments(starts, ends).tolist() == [0, 1, 5, 6, 7, 9]

    def test_gather_segments_empty(self):
        assert gather_segments(np.array([3]), np.array([3])).size == 0

    def test_gather_out_edges(self, diamond_graph):
        sources, dests, weights = gather_out_edges(
            diamond_graph, np.array([0, 3], dtype=np.int64)
        )
        assert sources.tolist() == [0, 0, 3]
        assert dests.tolist() == [1, 2, 4]
        assert weights.tolist() == [2, 7, 1]

    def test_gather_out_edges_zero_degree(self, diamond_graph):
        sources, dests, _ = gather_out_edges(
            diamond_graph, np.array([4], dtype=np.int64)
        )
        assert sources.size == 0
        assert dests.size == 0

    def test_gather_out_edges_mixed_degrees(self, diamond_graph):
        sources, dests, _ = gather_out_edges(
            diamond_graph, np.array([4, 0, 4, 2], dtype=np.int64)
        )
        assert sources.tolist() == [0, 0, 2]
        assert dests.tolist() == [1, 2, 3]

    def test_gather_in_edges(self, diamond_graph):
        sources, dests, weights = gather_in_edges(
            diamond_graph, np.array([3], dtype=np.int64)
        )
        assert sorted(sources.tolist()) == [1, 2]
        assert dests.tolist() == [3, 3]
        assert sorted(weights.tolist()) == [1, 10]

    def test_gather_matches_scalar_iteration(self):
        graph = rmat(8, 8, seed=7)
        frontier = np.array([0, 3, 17, 200], dtype=np.int64)
        sources, dests, weights = gather_out_edges(graph, frontier)
        expected = [
            (int(v), int(u), int(w))
            for v in frontier
            for u, w in graph.out_edges(int(v))
        ]
        assert list(zip(sources.tolist(), dests.tolist(), weights.tolist())) == expected


class TestHistogram:
    def test_histogram_counts(self):
        stats = RuntimeStats()
        vertices, counts = histogram_counts(np.array([3, 1, 3, 3, 1]), stats)
        assert vertices.tolist() == [1, 3]
        assert counts.tolist() == [2, 3]
        assert stats.histogram_updates == 5

    def test_histogram_empty(self):
        vertices, counts = histogram_counts(np.empty(0, dtype=np.int64))
        assert vertices.size == 0
        assert counts.size == 0
