"""Mutation API on loaded CSR graphs: overlay semantics, compaction, and
the stale-cache regression (degree memos + in-CSR must refresh on mutation).
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import CSRGraph, Mutation, apply_mutations, from_edges
from repro.graph.mutations import parse_mutation_script


def _triangle() -> CSRGraph:
    #  0 -> 1 (w=2), 1 -> 2 (w=3), 0 -> 2 (w=10)
    return from_edges(3, [(0, 1, 2), (1, 2, 3), (0, 2, 10)])


# ----------------------------------------------------------------------
# Point mutations through the overlay
# ----------------------------------------------------------------------


def test_add_edge_visible_before_compaction():
    g = _triangle()
    g.add_edge(2, 0, 7)
    assert g.num_edges == 4
    assert g.has_pending_mutations
    assert list(g.out_neighbors(2)) == [0]
    assert list(g.out_weights(2)) == [7]
    assert list(g.out_edges(2)) == [(0, 7)]
    assert g.out_degree(2) == 1


def test_add_edge_allows_parallel_copies():
    g = _triangle()
    g.add_edge(0, 1, 5)
    assert g.out_degree(0) == 3
    assert sorted(g.out_edges(0)) == [(1, 2), (1, 5), (2, 10)]


def test_remove_edge_removes_all_copies():
    g = _triangle()
    g.add_edge(0, 1, 5)  # second parallel copy, still in the overlay
    g.remove_edge(0, 1)
    assert g.out_degree(0) == 1
    assert list(g.out_edges(0)) == [(2, 10)]
    assert g.num_edges == 2


def test_remove_missing_edge_raises():
    g = _triangle()
    with pytest.raises(GraphError):
        g.remove_edge(2, 0)
    # Removing twice is also an error: the second call names a dead edge.
    g.remove_edge(0, 1)
    with pytest.raises(GraphError):
        g.remove_edge(0, 1)


def test_update_weight_hits_base_and_overlay_copies():
    g = _triangle()
    g.add_edge(0, 1, 5)
    g.update_weight(0, 1, 9)
    assert sorted(g.out_edges(0)) == [(1, 9), (1, 9), (2, 10)]


def test_update_weight_missing_edge_raises():
    g = _triangle()
    with pytest.raises(GraphError):
        g.update_weight(2, 1, 4)


def test_mutations_reject_out_of_range_vertices():
    g = _triangle()
    with pytest.raises(GraphError):
        g.add_edge(0, 3)
    with pytest.raises(GraphError):
        g.remove_edge(-1, 0)
    with pytest.raises(GraphError):
        g.update_weight(0, 99, 1)


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------


def test_whole_array_read_leaves_the_overlay():
    g = _triangle()
    g.add_edge(2, 0, 7)
    g.remove_edge(0, 2)
    assert g.has_pending_mutations
    indptr = g.indptr  # a folded read-only copy; the overlay stays
    assert g.has_pending_mutations
    assert not indptr.flags.writeable
    assert list(indptr) == [0, 1, 2, 3]
    assert list(g.indices) == [1, 2, 0]
    assert list(g.weights) == [2, 3, 7]
    g.compact()
    assert not g.has_pending_mutations
    assert list(g.indptr) == [0, 1, 2, 3]
    assert list(g.indices) == [1, 2, 0]
    assert list(g.weights) == [2, 3, 7]


def test_compaction_keeps_base_then_added_order_per_source():
    g = _triangle()
    g.add_edge(0, 0, 1)
    g.add_edge(0, 1, 8)
    # Base slots (1, 2) stay first in original order; overlay adds follow
    # in insertion order.
    assert list(zip(g.indices[:4], g.weights[:4])) == [(1, 2), (2, 10), (0, 1), (1, 8)]


def test_eager_compaction_past_threshold():
    from repro.graph.csr import COMPACTION_THRESHOLD

    n = 64
    g = from_edges(n, [(0, 1, 1)])
    rng = np.random.default_rng(0)
    for i in range(COMPACTION_THRESHOLD + 1):
        g.add_edge(int(rng.integers(n)), int(rng.integers(n)), 1)
    assert not g.has_pending_mutations  # compacted eagerly mid-stream
    assert g.num_edges == COMPACTION_THRESHOLD + 2


def test_batched_mutations_roundtrip_against_rebuild():
    rng = np.random.default_rng(7)
    n = 40
    edges = [(int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(1, 9)))
             for _ in range(200)]
    g = from_edges(n, edges)
    adds = [(int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(1, 9)))
            for _ in range(50)]
    g.add_edges(
        np.array([s for s, _, _ in adds]),
        np.array([d for _, d, _ in adds]),
        np.array([w for _, _, w in adds]),
    )
    expected = from_edges(n, edges + adds)
    assert g.num_edges == expected.num_edges
    for v in range(n):
        assert sorted(g.out_edges(v)) == sorted(expected.out_edges(v))


def test_weight_views_taken_before_mutation_are_stable():
    g = _triangle()
    before = g.weights
    snapshot = before.copy()
    g.update_weight(0, 1, 99)
    assert np.array_equal(before, snapshot)  # copy-on-first-write
    assert g.out_weights(0)[0] == 99


# ----------------------------------------------------------------------
# Satellite 3: stale caches must be invalidated on mutation
# ----------------------------------------------------------------------


def test_mutation_version_bumps_on_every_mutation():
    g = _triangle()
    v0 = g.mutation_version
    g.add_edge(2, 0, 1)
    g.update_weight(2, 0, 4)
    g.remove_edge(2, 0)
    assert g.mutation_version == v0 + 3


def test_out_degrees_memo_invalidated_on_mutation():
    g = _triangle()
    before = g.out_degrees()
    assert list(before) == [2, 1, 0]
    g.add_edge(2, 0, 7)
    after = g.out_degrees()
    assert list(after) == [2, 1, 1]
    g.remove_edge(0, 1)
    assert list(g.out_degrees()) == [1, 1, 1]


def test_in_degrees_and_in_csr_invalidated_on_mutation():
    g = _triangle()
    assert list(g.in_degrees()) == [0, 1, 2]
    assert list(g.in_neighbors(2)) == [0, 1]
    g.remove_edge(0, 2)
    assert list(g.in_degrees()) == [0, 1, 1]
    assert list(g.in_neighbors(2)) == [1]
    g.add_edge(2, 2, 1)
    assert g.in_degree(2) == 2
    assert list(g.in_weights(2)) == [3, 1]


def test_algorithms_see_post_mutation_graph_not_cached_state():
    # End-to-end flavour of the stale-cache gap: run once (populating every
    # memo), mutate, and re-run — the second run must see the new graph.
    from repro.algorithms.sssp import sssp
    from repro.midend.schedule import Schedule

    g = from_edges(4, [(0, 1, 5), (1, 2, 5), (2, 3, 5)])
    schedule = Schedule(priority_update="lazy", delta=2)
    first = sssp(g, 0, schedule=schedule)
    assert list(first.distances) == [0, 5, 10, 15]
    g.in_degrees()  # populate the remaining memo
    g.add_edge(0, 3, 1)
    second = sssp(g, 0, schedule=schedule)
    assert list(second.distances) == [0, 5, 10, 1]


# ----------------------------------------------------------------------
# Mutation batches and the script format
# ----------------------------------------------------------------------


def test_apply_mutations_symmetric_mirrors_edges():
    g = from_edges(3, [(0, 1, 1), (1, 0, 1)])
    applied = apply_mutations(
        g, [Mutation.add(1, 2, 4), Mutation.add(2, 2, 1)], symmetric=True
    )
    assert applied == 2
    assert sorted(g.out_edges(2)) == [(1, 4), (2, 1)]  # self-loop added once
    assert sorted(g.out_edges(1)) == [(0, 1), (2, 4)]
    assert g.is_symmetric()
    apply_mutations(g, [Mutation.remove(1, 2)], symmetric=True)
    assert g.is_symmetric()


def test_parse_mutation_script_batches_and_errors():
    batches = parse_mutation_script(
        """
        # warm-up batch
        add 0 1 5
        remove 2 3
        flush
        update 1 2 9
        add 4 5
        flush
        """
    )
    assert batches == [
        [Mutation.add(0, 1, 5), Mutation.remove(2, 3)],
        [Mutation.update(1, 2, 9), Mutation.add(4, 5, 1)],
    ]
    with pytest.raises(GraphError):
        parse_mutation_script("frobnicate 1 2")
    with pytest.raises(GraphError):
        parse_mutation_script("add 1")
    with pytest.raises(GraphError):
        parse_mutation_script("update 1 2")
    with pytest.raises(GraphError):
        parse_mutation_script("add one two")
