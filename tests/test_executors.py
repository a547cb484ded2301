"""Direct tests of the eager ordered-processing executor (repro.core) and of
the cost model's virtual-thread split it charges through.

The lazy and relaxed strategies have no executor: their loop is the
generated while loop (``tests/test_compiled_resume.py``).
"""

import numpy as np
import pytest

from repro.buckets import EagerBucketQueue
from repro.core.executors import run_eager
from repro.graph import rmat
from repro.graph.properties import INT_MAX
from repro.runtime import ParallelExecutionEngine, RuntimeStats, split_work
from repro.runtime.frontier import gather_out_edges, scatter_extremum


def setup_sssp(graph, source, queue_class, **kwargs):
    distances = np.full(graph.num_vertices, INT_MAX, dtype=np.int64)
    distances[source] = 0
    stats = RuntimeStats(num_threads=2)
    queue = queue_class(distances, stats=stats, initial_vertices=[source], **kwargs)
    return distances, stats, queue


def make_relaxer(graph, distances, queue, stats):
    """A minimal write-min relaxer, the shape the compiled eager operator
    hands :func:`run_eager`."""

    def gather(chunk):
        return gather_out_edges(graph, chunk)

    def relax(chunk, prefetched):
        stats.charge(graph.out_degrees()[chunk] + 1)
        sources, dests, weights = prefetched or gather(chunk)
        stats.relaxations += int(dests.size)
        offers = distances[sources] + weights
        queue.insert_changed_batch(
            scatter_extremum(distances, dests, offers, np.minimum)
        )

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
        distances, stats, queue = setup_sssp(graph, source, EagerBucketQueue, delta=8)
        relax = make_relaxer(graph, distances, queue, stats)
        run_eager(queue, relax, ParallelExecutionEngine(), stats)
        assert np.array_equal(distances, reference)
        assert stats.global_syncs == stats.rounds

    def test_fusion_counts_fused_rounds(self, graph, source, reference):
        distances, stats, queue = setup_sssp(graph, source, EagerBucketQueue, delta=8)
        relax = make_relaxer(graph, distances, queue, stats)
        run_eager(queue, relax, ParallelExecutionEngine(), stats, fusion_threshold=1000)
        assert np.array_equal(distances, reference)
        assert stats.fused_rounds > 0

    def test_stop_condition_halts(self, graph, source):
        distances, stats, queue = setup_sssp(graph, source, EagerBucketQueue, delta=8)
        relax = make_relaxer(graph, distances, queue, stats)
        calls = []

        def stop():
            calls.append(1)
            return len(calls) >= 2

        run_eager(queue, relax, ParallelExecutionEngine(), stats, should_stop=stop)
        assert stats.rounds <= 2


def members(totals):
    """Which items each thread got, when item ``i`` costs ``2**i``."""
    return [[i for i in range(63) if int(total) >> i & 1] for total in totals]


class TestPartitionEdgeCases:
    """Edge cases of the virtual-thread split: empty frontiers, frontiers
    smaller than one chunk, and degenerate cost distributions under the
    edge-aware policy."""

    POLICIES = (
        "static-vertex-parallel",
        "dynamic-vertex-parallel",
        "edge-aware-dynamic-vertex-parallel",
    )

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("threads", (1, 3, 8))
    def test_empty_frontier_uniform_shape(self, policy, threads):
        totals = split_work(np.empty(0, dtype=np.int64), threads, policy)
        assert totals.shape == (threads,)
        assert totals.dtype == np.int64
        assert not totals.any()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_partition_preserves_items_in_order(self, policy):
        costs = 2 ** np.arange(23, dtype=np.int64)
        parts = members(split_work(costs, 4, policy, chunk_size=3))
        assert len(parts) == 4
        # No item lost, none duplicated; the contiguous policies keep order.
        merged = [item for part in parts for item in part]
        assert sorted(merged) == list(range(23))
        if policy != "dynamic-vertex-parallel":
            assert merged == list(range(23))

    def test_chunk_size_larger_than_frontier_spreads(self):
        """A frontier smaller than one chunk must spread across the
        threads, not land on thread 0."""
        totals = split_work(np.ones(8), 4, "dynamic-vertex-parallel", chunk_size=1024)
        assert totals.tolist() == [2, 2, 2, 2]

    def test_single_item_frontier(self):
        totals = split_work([5], 4, "dynamic-vertex-parallel", chunk_size=64)
        assert totals.tolist() == [5, 0, 0, 0]

    def test_large_frontier_keeps_historical_dealing(self):
        """Frontiers bigger than chunk_size are dealt round-robin in
        chunk_size pieces."""
        costs = 2 ** np.arange(10, dtype=np.int64)
        parts = members(split_work(costs, 2, "dynamic-vertex-parallel", chunk_size=2))
        assert parts == [[0, 1, 4, 5, 8, 9], [2, 3, 6, 7]]

    def test_edge_aware_all_zero_degrees_even_split(self):
        """An all-zero-degree frontier (cost 1 each) must degenerate to an
        even contiguous split, not a skewed one."""
        totals = split_work(np.ones(8), 4, "edge-aware-dynamic-vertex-parallel")
        assert totals.tolist() == [2, 2, 2, 2]

    def test_edge_aware_hub_rebalances(self):
        """A hub vertex blowing one thread's budget must not strand the
        remaining threads without work."""
        totals = split_work([101, 1, 1, 1], 4, "edge-aware-dynamic-vertex-parallel")
        assert totals.tolist() == [101, 1, 1, 1]

    def test_edge_aware_fewer_items_than_threads(self):
        totals = split_work([4, 5], 8, "edge-aware-dynamic-vertex-parallel")
        assert totals.shape == (8,)
        assert sorted(totals.tolist()) == [0] * 6 + [4, 5]
