"""Unit tests for the CSR graph representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import CSRGraph, from_edges, rmat
from repro.graph.csr import stable_order


def test_basic_counts(diamond_graph):
    assert diamond_graph.num_vertices == 5
    assert diamond_graph.num_edges == 6


def test_out_neighbors_and_weights(diamond_graph):
    assert diamond_graph.out_neighbors(0).tolist() == [1, 2]
    assert diamond_graph.out_weights(0).tolist() == [2, 7]
    assert diamond_graph.out_neighbors(4).tolist() == []


def test_out_edges_iteration(diamond_graph):
    assert list(diamond_graph.out_edges(1)) == [(2, 3), (3, 10)]


def test_degrees(diamond_graph):
    assert diamond_graph.out_degrees().tolist() == [2, 2, 1, 1, 0]
    assert diamond_graph.out_degree(0) == 2
    assert diamond_graph.in_degree(3) == 2
    assert diamond_graph.in_degrees().tolist() == [0, 1, 2, 2, 1]


def test_in_neighbors(diamond_graph):
    assert sorted(diamond_graph.in_neighbors(3).tolist()) == [1, 2]
    assert diamond_graph.in_neighbors(0).tolist() == []


def test_in_weights_align_with_in_neighbors(diamond_graph):
    sources = diamond_graph.in_neighbors(3).tolist()
    weights = diamond_graph.in_weights(3).tolist()
    assert dict(zip(sources, weights)) == {1: 10, 2: 1}


def test_edge_list_roundtrip(diamond_graph):
    sources, dests, weights = diamond_graph.edge_list()
    rebuilt = from_edges(5, zip(sources.tolist(), dests.tolist(), weights.tolist()))
    assert np.array_equal(rebuilt.indptr, diamond_graph.indptr)
    assert np.array_equal(rebuilt.indices, diamond_graph.indices)
    assert np.array_equal(rebuilt.weights, diamond_graph.weights)


def test_reversed_transposes(diamond_graph):
    reverse = diamond_graph.reversed()
    assert reverse.num_edges == diamond_graph.num_edges
    assert sorted(reverse.out_neighbors(3).tolist()) == [1, 2]
    assert reverse.out_neighbors(0).tolist() == []


def test_reversed_twice_is_identity(diamond_graph):
    twice = diamond_graph.reversed().reversed()
    assert np.array_equal(twice.indptr, diamond_graph.indptr)
    assert np.array_equal(twice.indices, diamond_graph.indices)


def test_symmetrized(diamond_graph):
    sym = diamond_graph.symmetrized()
    assert sym.is_symmetric()
    assert 0 in sym.out_neighbors(1).tolist()
    # Symmetrization keeps the minimum weight of parallel edges.
    idx = sym.out_neighbors(1).tolist().index(0)
    assert sym.out_weights(1)[idx] == 2


def test_is_symmetric_false_for_directed(diamond_graph):
    assert not diamond_graph.is_symmetric()


def test_with_weights(diamond_graph):
    unit = diamond_graph.with_weights(np.ones(6, dtype=np.int64))
    assert unit.out_weights(0).tolist() == [1, 1]
    # Original untouched.
    assert diamond_graph.out_weights(0).tolist() == [2, 7]


def test_unweighted_defaults_to_one():
    graph = from_edges(3, [(0, 1), (1, 2)])
    assert graph.weights.tolist() == [1, 1]


def test_coordinates_shape_validation():
    with pytest.raises(GraphError):
        CSRGraph(
            np.array([0, 1], dtype=np.int64),
            np.array([0], dtype=np.int64),
            coordinates=np.zeros((3, 2)),
        )


def test_with_coordinates(diamond_graph):
    coords = np.arange(10, dtype=np.float64).reshape(5, 2)
    located = diamond_graph.with_coordinates(coords)
    assert located.has_coordinates
    assert not diamond_graph.has_coordinates
    assert np.array_equal(located.coordinates, coords)


def test_vertex_range_checks(diamond_graph):
    with pytest.raises(GraphError):
        diamond_graph.out_neighbors(5)
    with pytest.raises(GraphError):
        diamond_graph.out_degree(-1)


def test_invalid_indptr_rejected():
    with pytest.raises(GraphError):
        CSRGraph(np.array([1, 2], dtype=np.int64), np.array([0], dtype=np.int64))
    with pytest.raises(GraphError):
        CSRGraph(np.array([0, 2], dtype=np.int64), np.array([0], dtype=np.int64))
    with pytest.raises(GraphError):
        CSRGraph(np.array([0, 2, 1], dtype=np.int64), np.array([0, 0], dtype=np.int64))


def test_destination_out_of_range_rejected():
    with pytest.raises(GraphError):
        CSRGraph(np.array([0, 1], dtype=np.int64), np.array([5], dtype=np.int64))


def test_misaligned_weights_rejected():
    with pytest.raises(GraphError):
        CSRGraph(
            np.array([0, 1], dtype=np.int64),
            np.array([0], dtype=np.int64),
            weights=np.array([1, 2], dtype=np.int64),
        )


def test_empty_graph():
    empty = CSRGraph(np.array([0], dtype=np.int64), np.empty(0, dtype=np.int64))
    assert empty.num_vertices == 0
    assert empty.num_edges == 0


def test_single_vertex_no_edges():
    lone = CSRGraph(np.array([0, 0], dtype=np.int64), np.empty(0, dtype=np.int64))
    assert lone.num_vertices == 1
    assert lone.out_degree(0) == 0
    assert lone.in_degree(0) == 0


class TestStableOrder:
    """``stable_order`` is exactly ``argsort(kind="stable")``."""

    @staticmethod
    def check(keys, bound):
        keys = np.asarray(keys, dtype=np.int64)
        order = stable_order(keys, bound)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == np.int64
        assert np.array_equal(order, expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 1 << 40).flatmap(
            lambda bound: st.tuples(
                st.just(bound), st.lists(st.integers(0, bound - 1), max_size=300)
            )
        )
    )
    def test_matches_stable_argsort(self, case):
        bound, keys = case
        self.check(keys, bound)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=500))
    def test_heavy_ties(self, keys):
        self.check(keys, 4)

    def test_empty_and_single(self):
        self.check([], 10)
        self.check([7], 10)
        self.check([0], 1)

    def test_keys_at_bound_minus_one(self):
        bound = 1 << 20
        self.check([bound - 1, 0, bound - 1, 5, bound - 1], bound)

    def test_wide_keys_fall_back(self):
        # 62 key bits + 3 position bits do not fit in 63: packing would
        # overflow, so only the fallback gets these right.
        bound = 1 << 62
        keys = [bound - 1, 3, bound - 1, bound - 2, 3, 0]
        self.check(keys, bound)

    def test_random_keys_at_scale(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 5000, size=100_000)
        self.check(keys, 5000)


class TestShare:
    """``share()``: read-only views, own overlay, one in-base index."""

    @staticmethod
    def make():
        graph = rmat(6, 8, seed=3, weights=(1, 50))
        graph.ensure_in_base()
        return graph

    @staticmethod
    def snapshot(graph):
        return [a.copy() for a in (*graph.base_csr(), *graph.ensure_in_base())]

    def assert_unchanged(self, graph, before):
        after = [*graph.base_csr(), *graph.ensure_in_base()]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    def test_views_are_read_only(self):
        shared = self.make().share()
        for array in (shared.indptr, shared.indices, shared.weights):
            with pytest.raises(ValueError):
                array[0] = 1
        for array in shared.ensure_in_base():
            with pytest.raises(ValueError):
                array[0] = 1

    def test_shares_arrays_and_in_base(self):
        graph = self.make()
        shared = graph.share()
        assert shared.ensure_in_base() is graph.ensure_in_base()
        for mine, theirs in zip(shared.base_csr(), graph.base_csr()):
            assert np.shares_memory(mine, theirs)
        assert shared.coordinates is graph.coordinates
        assert shared.num_edges == graph.num_edges
        assert not shared.has_pending_mutations

    def test_update_weight_on_share_copies(self):
        graph = self.make()
        before = self.snapshot(graph)
        shared = graph.share()
        src, dst = 0, int(graph.out_neighbors(0)[0])
        shared.update_weight(src, dst, 999)
        assert 999 in shared.out_weights(src)
        assert 999 not in graph.out_weights(src)
        self.assert_unchanged(graph, before)

    def test_update_weight_on_source_copies(self):
        # The source owns writable weights; after share() its next write
        # must not show through the views it handed out.
        graph = self.make()
        graph.update_weight(0, int(graph.out_neighbors(0)[0]), 7)
        shared = graph.share()
        before = self.snapshot(shared)
        graph.update_weight(0, int(graph.out_neighbors(0)[0]), 998)
        assert 998 not in shared.out_weights(0)
        self.assert_unchanged(shared, before)

    def test_add_remove_compact_leave_source_untouched(self):
        graph = self.make()
        before = self.snapshot(graph)
        in_base = graph.ensure_in_base()
        shared = graph.share()
        sources, dests, _ = graph.edge_list()
        shared.add_edge(1, 2, 5)
        shared.remove_edge(int(sources[0]), int(dests[0]))
        assert shared.num_edges == graph.num_edges
        tails, _ = shared.in_edges_of(2)
        assert 1 in tails
        shared.compact()
        assert shared.ensure_in_base() is not in_base
        assert graph.ensure_in_base() is in_base
        self.assert_unchanged(graph, before)
        assert not graph.has_pending_mutations

    def test_share_of_pending_overlay_is_folded(self):
        graph = self.make()
        graph.add_edge(1, 2, 5)
        shared = graph.share()
        assert shared.num_edges == graph.num_edges
        assert not shared.has_pending_mutations
        assert np.array_equal(shared.indices, graph.indices)
        assert shared.ensure_in_base() is not graph.ensure_in_base()
