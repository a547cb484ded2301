"""Unit tests for GraphBuilder and edge deduplication."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import GraphBuilder, from_edges


def test_add_single_edges():
    graph = GraphBuilder(3).add_edge(0, 1, 5).add_edge(1, 2, 7).build()
    assert graph.num_edges == 2
    assert graph.out_weights(0).tolist() == [5]


def test_add_edges_batch():
    graph = GraphBuilder(4).add_edges([0, 1, 2], [1, 2, 3], [1, 2, 3]).build()
    assert graph.num_edges == 3
    assert graph.out_neighbors(2).tolist() == [3]


def test_edges_sorted_by_destination_within_source():
    graph = GraphBuilder(4).add_edge(0, 3).add_edge(0, 1).add_edge(0, 2).build()
    assert graph.out_neighbors(0).tolist() == [1, 2, 3]


def test_default_weights_are_one():
    graph = GraphBuilder(2).add_edges([0], [1]).build()
    assert graph.weights.tolist() == [1]


@pytest.mark.parametrize(
    "mode,expected",
    [("min", 2), ("max", 9), ("first", 5), ("sum", 16)],
)
def test_deduplicate_modes(mode, expected):
    builder = GraphBuilder(2)
    builder.add_edge(0, 1, 5).add_edge(0, 1, 2).add_edge(0, 1, 9)
    graph = builder.build(deduplicate=mode)
    assert graph.num_edges == 1
    assert graph.out_weights(0).tolist() == [expected]


def test_deduplicate_none_keeps_parallel_edges():
    graph = GraphBuilder(2).add_edge(0, 1, 5).add_edge(0, 1, 2).build()
    assert graph.num_edges == 2


def test_deduplicate_only_merges_same_pair():
    builder = GraphBuilder(3)
    builder.add_edge(0, 1, 5).add_edge(0, 2, 2).add_edge(0, 1, 3)
    graph = builder.build(deduplicate="min")
    assert graph.num_edges == 2
    assert graph.out_weights(0).tolist() == [3, 2]


def test_remove_self_loops():
    graph = GraphBuilder(2).add_edge(0, 0).add_edge(0, 1).build(remove_self_loops=True)
    assert graph.num_edges == 1
    assert graph.out_neighbors(0).tolist() == [1]


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphError):
        GraphBuilder(2).add_edge(0, 2)
    with pytest.raises(GraphError):
        GraphBuilder(2).add_edge(-1, 0)


def test_unknown_dedup_mode_rejected():
    with pytest.raises(GraphError):
        GraphBuilder(2).add_edge(0, 1).build(deduplicate="median")


def test_empty_builder_builds_empty_graph():
    graph = GraphBuilder(3).build()
    assert graph.num_vertices == 3
    assert graph.num_edges == 0


def test_num_pending_edges():
    builder = GraphBuilder(3).add_edge(0, 1).add_edges([1, 2], [2, 0])
    assert builder.num_pending_edges == 3


def test_from_edges_mixed_arity():
    graph = from_edges(3, [(0, 1), (1, 2, 9)])
    assert graph.out_weights(0).tolist() == [1]
    assert graph.out_weights(1).tolist() == [9]


def test_misaligned_batch_rejected():
    with pytest.raises(GraphError):
        GraphBuilder(3).add_edges([0, 1], [1])
    with pytest.raises(GraphError):
        GraphBuilder(3).add_edges([0, 1], [1, 2], [1])


def test_builder_chaining_returns_self():
    builder = GraphBuilder(2)
    assert builder.add_edge(0, 1) is builder


def test_dedup_sum_large_batch():
    rng = np.random.default_rng(0)
    sources = rng.integers(0, 10, 500)
    dests = rng.integers(0, 10, 500)
    weights = np.ones(500, dtype=np.int64)
    graph = GraphBuilder(10).add_edges(sources, dests, weights).build(deduplicate="sum")
    # Total weight is conserved by sum-dedup.
    assert graph.weights.sum() == 500


@pytest.mark.parametrize(
    "mode,expected",
    [
        # (source, dest)-sorted, parallel copies in insertion order.
        (
            "none",
            [(0, 1, 4), (0, 2, 7), (0, 2, 3), (0, 2, 5), (2, 0, 6), (2, 0, 1), (2, 1, 8)],
        ),
        ("first", [(0, 1, 4), (0, 2, 7), (2, 0, 6), (2, 1, 8)]),
        ("min", [(0, 1, 4), (0, 2, 3), (2, 0, 1), (2, 1, 8)]),
        ("max", [(0, 1, 4), (0, 2, 7), (2, 0, 6), (2, 1, 8)]),
        ("sum", [(0, 1, 4), (0, 2, 15), (2, 0, 7), (2, 1, 8)]),
    ],
)
def test_parallel_edges_sort_stably_in_every_mode(mode, expected):
    builder = GraphBuilder(3)
    builder.add_edges([2, 0, 0], [0, 2, 1], [6, 7, 4])
    builder.add_edges([0, 2, 2, 0], [2, 1, 0, 2], [3, 8, 1, 5])
    graph = builder.build(deduplicate=mode)
    edges = [
        (source, int(dest), int(weight))
        for source in range(3)
        for dest, weight in zip(graph.out_neighbors(source), graph.out_weights(source))
    ]
    assert edges == expected
