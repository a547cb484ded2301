"""Unit tests for the runtime substrate: stats, threads, frontiers."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.graph import rmat
from repro.runtime import (
    CostModel,
    RuntimeStats,
    gather_in_edges,
    gather_out_edges,
    gather_segments,
    histogram_counts,
    split_work,
)


class TestRuntimeStats:
    def test_round_lifecycle(self):
        stats = RuntimeStats(num_threads=2)
        stats.begin_round()
        stats.charge([10, 4], "static-vertex-parallel")
        stats.end_round(syncs=1)
        assert stats.rounds == 1
        assert stats.max_work_per_round == [10]
        assert stats.total_work_per_round == [14]
        assert stats.global_syncs == 1

    def test_fused_rounds_do_not_increase_syncs(self):
        stats = RuntimeStats(num_threads=1)
        stats.begin_round()
        stats.charge([5])
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
            stats.charge([1])
        with pytest.raises(RuntimeError):
            stats.end_round()

    def test_simulated_time_components(self):
        stats = RuntimeStats(num_threads=2)
        stats.begin_round()
        stats.charge([100])
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
                stats.charge([5])
                stats.end_round(syncs=syncs)
        assert low.simulated_time() < high.simulated_time()

    def test_merge(self):
        a, b = RuntimeStats(num_threads=1), RuntimeStats(num_threads=1)
        for stats in (a, b):
            stats.begin_round()
            stats.charge([3])
            stats.end_round()
        a.relaxations = 5
        b.relaxations = 7
        a.merge(b)
        assert a.rounds == 2
        assert a.relaxations == 12
        assert a.max_work_per_round == [3, 3]


class TestVirtualThreadPool:
    """The cost model's virtual threads: ``split_work``'s per-thread totals
    (item ``i`` costs ``2**i`` where a test reads which items a thread got)."""

    @staticmethod
    def members(totals):
        return [[i for i in range(63) if int(total) >> i & 1] for total in totals]

    def test_static_partition_covers_items(self):
        totals = split_work(2 ** np.arange(10), 3, "static-vertex-parallel")
        assert self.members(totals) == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_dynamic_chunked_round_robin(self):
        totals = split_work(2 ** np.arange(8), 2, "dynamic-vertex-parallel", 2)
        assert self.members(totals) == [[0, 1, 4, 5], [2, 3, 6, 7]]

    def test_edge_aware_balances_loads(self):
        # Degrees [100, 1, 1, 1]: the heavy vertex must be alone on its thread.
        totals = split_work(
            np.array([101, 2, 2, 2]), 2, "edge-aware-dynamic-vertex-parallel", 1
        )
        assert totals.tolist() == [101, 6]

    def test_empty_items(self):
        totals = split_work(np.empty(0, dtype=np.int64), 4)
        assert totals.tolist() == [0, 0, 0, 0]

    def test_deterministic(self):
        costs = np.arange(100)
        a = split_work(costs, 3, chunk_size=5)
        b = split_work(costs, 3, chunk_size=5)
        assert np.array_equal(a, b)
        assert a.sum() == costs.sum()

    def test_invalid_config(self):
        with pytest.raises(SchedulingError):
            split_work([1], 0)
        with pytest.raises(SchedulingError):
            split_work([1], 2, policy="work-stealing")
        with pytest.raises(SchedulingError):
            split_work([1], 2, chunk_size=0)


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
