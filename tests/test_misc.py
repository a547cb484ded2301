"""Small-surface tests: errors, sentinels, package exports."""

import numpy as np
import pytest

import repro
from repro.errors import (
    AutotuneError,
    CompileError,
    GraphError,
    GraphItError,
    ParseError,
    PriorityQueueError,
    SchedulingError,
    TypeCheckError,
)
from repro.graph import INT_MAX


class TestErrors:
    def test_hierarchy(self):
        for error_class in (
            GraphError,
            ParseError,
            TypeCheckError,
            SchedulingError,
            CompileError,
            PriorityQueueError,
            AutotuneError,
        ):
            assert issubclass(error_class, GraphItError)

    def test_parse_error_location_formatting(self):
        error = ParseError("unexpected token", line=3, column=7)
        assert "line 3" in str(error)
        assert "column 7" in str(error)
        assert error.line == 3

    def test_parse_error_without_location(self):
        error = ParseError("oops")
        assert str(error) == "oops"

    def test_parse_error_line_only(self):
        assert "line 2" in str(ParseError("bad", line=2))


class TestSentinels:
    def test_int_max_sentinel(self):
        assert INT_MAX == np.iinfo(np.int64).max


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_public_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_headline_flow(self):
        from repro import Schedule, dijkstra_reference, sssp
        from repro.graph import road_grid

        graph = road_grid(6, 7, seed=1)
        result = sssp(graph, 0, Schedule(priority_update="eager_with_fusion", delta=256))
        assert np.array_equal(result.distances, dijkstra_reference(graph, 0))


class TestInputValidation:
    def test_negative_weights_rejected(self):
        from repro import Schedule, sssp, ppsp
        from repro.graph import from_edges

        graph = from_edges(3, [(0, 1, 5), (1, 2, -2)])
        with pytest.raises(GraphError):
            sssp(graph, 0)
        with pytest.raises(GraphError):
            ppsp(graph, 0, 2)

    def test_zero_weights_supported(self):
        from repro import Schedule, sssp, dijkstra_reference
        from repro.graph import from_edges

        graph = from_edges(4, [(0, 1, 0), (1, 2, 3), (0, 2, 5), (2, 3, 0)])
        result = sssp(graph, 0, Schedule(priority_update="eager_with_fusion", delta=2))
        assert np.array_equal(result.distances, dijkstra_reference(graph, 0))

    def test_runs_are_deterministic(self):
        from repro import Schedule, sssp
        from repro.graph import rmat

        graph = rmat(8, 8, seed=1)
        schedule = Schedule(priority_update="eager_with_fusion", delta=16)
        a = sssp(graph, 0, schedule)
        b = sssp(graph, 0, schedule)
        assert np.array_equal(a.distances, b.distances)
        assert a.stats.deterministic_dict() == b.stats.deterministic_dict()
