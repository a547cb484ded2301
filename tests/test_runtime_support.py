"""Tests for the generated-code runtime (repro.backend.runtime_support)."""

import numpy as np
import pytest

from repro.backend import compile_program
from repro.backend.runtime_support import Context
from repro.buckets import EagerBucketQueue, LazyBucketQueue
from repro.errors import CompileError, GraphItError, PriorityQueueError, SchedulingError
from repro.graph import from_edges, save_edge_list, save_npz
from repro.graph.properties import INT_MAX
from repro.lang import ALL_PROGRAMS
from repro.midend import Schedule


@pytest.fixture
def diamond():
    return from_edges(
        5, [(0, 1, 2), (0, 2, 7), (1, 2, 3), (2, 3, 1), (1, 3, 10), (3, 4, 1)]
    )


def make_context(schedule=None, **kwargs):
    return Context(
        argv=["prog"], schedule=schedule or Schedule(num_threads=2), **kwargs
    )


class TestContextBasics:
    def test_load_override(self, diamond):
        context = make_context(graph=diamond)
        assert context.load("ignored") is diamond

    def test_load_edge_list_file(self, diamond, tmp_path):
        path = tmp_path / "g.el"
        save_edge_list(diamond, path)
        loaded = make_context().load(str(path))
        assert loaded.num_edges == diamond.num_edges

    def test_load_npz_file(self, diamond, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(diamond, path)
        loaded = make_context().load(str(path))
        assert np.array_equal(loaded.indices, diamond.indices)

    def test_load_non_string_rejected(self):
        with pytest.raises(GraphItError):
            make_context().load(42)

    def test_atoi_and_vector(self, diamond):
        context = make_context()
        assert context.atoi("17") == 17
        vector = context.vector(diamond, INT_MAX)
        assert vector.shape == (5,)
        assert np.all(vector == INT_MAX)

    def test_div_semantics(self):
        context = make_context()
        assert context.div(7, 2) == 3
        assert context.div(7.0, 2) == 3.5

    def test_out_degrees_copy(self, diamond):
        degrees = make_context().out_degrees(diamond)
        degrees[0] = 99
        assert diamond.out_degree(0) == 2


class TestQueueConstruction:
    def test_lazy_schedule_builds_lazy_queue(self, diamond):
        context = make_context(Schedule(priority_update="lazy", delta=2))
        vector = context.vector(diamond, INT_MAX)
        vector[0] = 0
        queue = context.new_priority_queue(True, "lower_first", vector, 0)
        assert isinstance(queue, LazyBucketQueue)
        assert queue.delta == 2
        assert context.queues == [queue]

    def test_eager_schedule_builds_eager_queue(self, diamond):
        context = make_context(
            Schedule(priority_update="eager_no_fusion", delta=2, num_threads=3)
        )
        vector = context.vector(diamond, INT_MAX)
        vector[0] = 0
        queue = context.new_priority_queue(True, "lower_first", vector, 0)
        assert isinstance(queue, EagerBucketQueue)
        # Virtual threads are the cost model's split, not the queue's.
        assert context.stats.num_threads == 3

    def test_coarsening_disallowed_with_nonunit_delta(self, diamond):
        # The planner refuses the schedule, so no context is ever built
        # for it; the bucket queue still guards its own contract.
        with pytest.raises(SchedulingError, match="disallows coarsening"):
            compile_program(ALL_PROGRAMS["kcore"], Schedule(priority_update="lazy", delta=4))
        context = make_context(Schedule(priority_update="lazy", delta=4))
        vector = context.vector(diamond, 0)
        with pytest.raises(PriorityQueueError, match="coarsening disabled"):
            context.new_priority_queue(False, "lower_first", vector, -1)

    def test_negative_start_means_all_vertices(self, diamond):
        context = make_context(Schedule(priority_update="lazy"))
        vector = context.out_degrees(diamond)
        queue = context.new_priority_queue(False, "lower_first", vector, -1)
        popped = 0
        while True:
            bucket = queue.dequeue_ready_set()
            if bucket.size == 0:
                break
            popped += bucket.size
        assert popped == diamond.num_vertices


class TestExterns:
    def test_call_extern(self):
        seen = []
        context = make_context(
            extern_functions={"hook": lambda ctx, value: seen.append((ctx, value))}
        )
        context.call_extern("hook", 42)
        assert seen == [(context, 42)]

    def test_missing_extern_raises(self):
        with pytest.raises(CompileError):
            make_context().call_extern("ghost")


class TestApplyOperators:
    def _sssp_via(self, diamond, schedule):
        context = make_context(schedule, graph=diamond)
        distances = context.vector(diamond, INT_MAX)
        distances[0] = 0
        queue = context.new_priority_queue(True, "lower_first", distances, 0)

        def update_edge(src, dst, weight):
            queue.update_priority_min(dst, int(distances[src]) + weight)

        while True:
            bucket = queue.dequeue_ready_set()
            if bucket.size == 0:
                break
            context.apply_update_priority(diamond, bucket, update_edge, queue)
        return distances, context.stats

    def test_push_apply(self, diamond):
        distances, stats = self._sssp_via(
            diamond, Schedule(priority_update="lazy", delta=2, num_threads=2)
        )
        assert distances.tolist() == [0, 2, 5, 6, 7]
        assert stats.relaxations == 2 * diamond.num_edges - 6  # frontier-dependent
        assert stats.global_syncs == 2 * stats.rounds

    def test_pull_apply(self, diamond):
        distances, stats = self._sssp_via(
            diamond,
            Schedule(
                priority_update="lazy", delta=2, direction="DensePull", num_threads=2
            ),
        )
        assert distances.tolist() == [0, 2, 5, 6, 7]

    def test_unweighted_udf_arity(self, diamond):
        context = make_context(Schedule(priority_update="lazy"), graph=diamond)
        seen = []

        def udf(src, dst):
            seen.append((src, dst))

        queue = context.new_priority_queue(
            True, "lower_first", context.vector(diamond, 0), 0
        )
        context.apply_update_priority(
            diamond, np.array([0], dtype=np.int64), udf, queue
        )
        assert seen == [(0, 1), (0, 2)]

    def test_eager_ordered_process(self, diamond):
        context = make_context(
            Schedule(priority_update="eager_with_fusion", delta=2, num_threads=2),
            graph=diamond,
        )
        distances = context.vector(diamond, INT_MAX)
        distances[0] = 0
        queue = context.new_priority_queue(True, "lower_first", distances, 0)

        def update_edge(src, dst, weight):
            queue.update_priority_min(dst, int(distances[src]) + weight)

        context.ordered_process_eager(
            diamond, queue, update_edge, fusion_threshold=1000
        )
        assert distances.tolist() == [0, 2, 5, 6, 7]

    @staticmethod
    def _histogram_round(graph):
        """One Figure-10 round on the first (lowest-degree) bucket."""
        context = make_context(Schedule(priority_update="lazy_constant_sum"), graph=graph)
        degrees = context.out_degrees(graph)
        queue = context.new_priority_queue(False, "lower_first", degrees, -1)
        bucket = queue.dequeue_ready_set()
        k = queue.get_current_priority()

        def transformed(vertex, count):
            priority = int(queue.priority_vector[vertex])
            if priority > k:
                new_priority = max(priority - count, k)
                queue.priority_vector[vertex] = new_priority
                return new_priority
            return None

        context.apply_update_priority_histogram(graph, bucket, transformed, queue)
        return context.stats, degrees

    def test_histogram_apply_skips_neighbours_at_k(self):
        # Every neighbour of the first bucket sits at k and is peeled with it:
        # the UDF's ``priority > k`` guard runs before binning, so none is binned.
        clique = from_edges(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        stats, degrees = self._histogram_round(clique)
        assert stats.relaxations == 12
        assert stats.histogram_updates == 0
        assert stats.priority_updates == 0
        assert degrees.tolist() == [3, 3, 3, 3]

    def test_histogram_apply(self):
        # A 4-clique with a pendant path 3-4-5: peeling vertex 5 at k=1 bins
        # its neighbour 4 (degree 2 > k) and lowers it to 1.
        edges = [(u, v) for u in range(4) for v in range(4) if u != v]
        edges += [(3, 4), (4, 3), (4, 5), (5, 4)]
        stats, degrees = self._histogram_round(from_edges(6, edges))
        assert stats.histogram_updates > 0
        assert stats.priority_updates == 1
        assert degrees.tolist() == [3, 3, 3, 4, 1, 1]
