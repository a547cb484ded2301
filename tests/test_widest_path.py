"""Tests for the widest-path extension (updatePriorityMax + higher_first)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import widest_path, widest_path_reference
from repro.errors import SchedulingError
from repro.graph import GraphBuilder, from_edges, rmat, road_grid
from repro.midend import Schedule

STRATEGIES = ["lazy", "eager_no_fusion", "eager_with_fusion"]


@pytest.fixture(scope="module")
def social():
    graph = rmat(9, 12, seed=3)
    source = int(np.argmax(graph.out_degrees()))
    return graph, source, widest_path_reference(graph, source)


class TestWidestPath:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("delta", [1, 8, 128])
    def test_matches_reference(self, social, strategy, delta):
        graph, source, reference = social
        result = widest_path(
            graph,
            source,
            Schedule(priority_update=strategy, delta=delta, num_threads=4),
        )
        assert np.array_equal(result.distances, reference)

    def test_road_network(self):
        graph = road_grid(14, 16, seed=5)
        reference = widest_path_reference(graph, 0)
        result = widest_path(graph, 0, Schedule(priority_update="eager_with_fusion"))
        assert np.array_equal(result.distances, reference)

    def test_hand_checked_instance(self):
        # 0 -> 1 -> 3 has bottleneck min(10, 2) = 2;
        # 0 -> 2 -> 3 has bottleneck min(4, 5) = 4 (the widest).
        graph = from_edges(4, [(0, 1, 10), (1, 3, 2), (0, 2, 4), (2, 3, 5)])
        result = widest_path(graph, 0, Schedule(delta=1))
        assert result.distances[3] == 4
        assert result.distances[1] == 10
        assert result.distances[2] == 4

    def test_unreachable_reports_zero(self):
        graph = from_edges(3, [(0, 1, 7)])
        result = widest_path(graph, 0)
        assert result.distances[2] == 0

    def test_processes_highest_buckets_first(self, social):
        graph, source, _ = social
        result = widest_path(
            graph, source, Schedule(priority_update="lazy", delta=8)
        )
        # higher_first queues report decreasing current priorities; the
        # stats only keep aggregate rounds, so check monotone work exists.
        assert result.stats.rounds > 0
        assert result.stats.priority_updates > 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_run_is_resume_from_the_source(self, social, strategy):
        """A from-scratch run and an incremental session's first run are the
        same call (resume seeded with the source): same widths, same work."""
        from repro.incremental import IncrementalSession

        graph, source, _ = social
        schedule = Schedule(priority_update=strategy, delta=8, num_threads=4)
        direct = widest_path(graph, source, schedule)
        session = IncrementalSession(graph, "widest_path", source, schedule).run()
        assert np.array_equal(session.values, direct.distances)
        assert session.stats.deterministic_dict() == direct.stats.deterministic_dict()

    def test_histogram_schedule_rejected(self, social):
        graph, source, _ = social
        with pytest.raises(SchedulingError):
            widest_path(
                graph, source, Schedule(priority_update="lazy_constant_sum")
            )

    def test_pull_direction_rejected(self, social):
        graph, source, _ = social
        with pytest.raises(SchedulingError):
            widest_path(
                graph,
                source,
                Schedule(priority_update="lazy", direction="DensePull"),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 11), st.integers(0, 11), st.integers(1, 40)
            ),
            min_size=1,
            max_size=50,
        ),
        delta=st.sampled_from([1, 4, 32]),
        strategy=st.sampled_from(STRATEGIES),
    )
    def test_property_matches_reference(self, edges, delta, strategy):
        builder = GraphBuilder(12)
        for source, dest, weight in edges:
            builder.add_edge(source, dest, weight)
        graph = builder.build(deduplicate="max", remove_self_loops=True)
        reference = widest_path_reference(graph, 0)
        result = widest_path(
            graph, 0, Schedule(priority_update=strategy, delta=delta, num_threads=3)
        )
        assert np.array_equal(result.distances, reference)


class TestWidestThroughCompiler:
    def test_dsl_program_compiles_and_matches(self, social):
        from repro.backend import compile_program
        from repro.lang import program_source

        graph, source, reference = social
        program = compile_program(
            program_source("widest"),
            Schedule(priority_update="eager_with_fusion", delta=8, num_threads=3),
        )
        result = program.run(["widest", "-", str(source)], graph=graph)
        widths = result.vector("width")
        assert np.array_equal(widths, reference)

    def test_cpp_backend_generates_higher_first(self):
        """higher_first lowers through the order-space abstraction: the
        direction sign and the higher-first null sentinel reach the queue,
        and eager routing uses signed floor-divided orders (dense bins are
        infeasible when priorities start at 2^40)."""
        from repro.backend import compile_program
        from repro.lang import program_source

        text = compile_program(
            program_source("widest"), Schedule(delta=8), backend="cpp"
        ).source_text
        assert "kNullHigher" in text
        assert "floorDiv" in text
        assert "std::map<int64_t, std::vector<NodeID>> local_bins" in text
