"""Property-based tests (hypothesis) on core invariants.

These cover the load-bearing equivalences of the paper's design:
lazy ≡ eager bucketing on arbitrary monotone update sequences, the library
wrappers' Δ-stepping and peeling ≡ the scalar oracle ≡ Dijkstra / peeling for every
strategy and Δ on random graphs (the ``library`` slice of
``tests/oracle_matrix.py``, which checks every oracle run against the
reference implementation), pull ≡ push, the histogram transform ≡
serialized clamped decrements, and structural invariants of the substrate
(partitioning, edge gathering, dedup).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import dijkstra_reference, sssp
from repro.backend.runtime_support import _accepted_offers
from repro.buckets import EagerBucketQueue, LazyBucketQueue
from repro.graph import GraphBuilder
from repro.graph.properties import INT_MAX
from repro.midend import Schedule
from repro.runtime import gather_out_edges, split_work

from .oracle_matrix import Cell, check

pytestmark = pytest.mark.slow

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=1, max_value=30),
    ),
    min_size=1,
    max_size=60,
)


def build_graph(edges):
    builder = GraphBuilder(15)
    for source, dest, weight in edges:
        builder.add_edge(source, dest, weight)
    return builder.build(deduplicate="min", remove_self_loops=True)


# ----------------------------------------------------------------------
# The library's Δ-stepping vs the scalar oracle and Dijkstra
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    edges=edge_lists,
    delta=st.sampled_from([1, 2, 7, 64]),
    strategy=st.sampled_from(["lazy", "eager_no_fusion", "eager_with_fusion"]),
)
def test_sssp_equals_dijkstra(edges, delta, strategy):
    schedule = Schedule(priority_update=strategy, delta=delta, num_threads=3)
    check(Cell("sssp", schedule, "library"), build_graph(edges))


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists)
def test_sssp_pull_equals_push(edges):
    graph = build_graph(edges)
    push, pull = (
        sssp(graph, 0, Schedule(priority_update="lazy", delta=4, direction=direction))
        for direction in ("SparsePush", "DensePull")
    )
    assert np.array_equal(push.distances, pull.distances)
    assert np.array_equal(push.distances, dijkstra_reference(graph, 0))


# ----------------------------------------------------------------------
# k-core strategies agree with the scalar oracle and the peeling reference
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    edges=edge_lists,
    strategy=st.sampled_from(["lazy_constant_sum", "lazy", "eager_no_fusion"]),
)
def test_kcore_equals_reference(edges, strategy):
    schedule = Schedule(priority_update=strategy, num_threads=3)
    check(Cell("kcore", schedule, "library"), build_graph(edges).symmetrized())


# ----------------------------------------------------------------------
# Lazy vs eager queue equivalence on arbitrary min-update sequences
# ----------------------------------------------------------------------

update_sequences = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # vertex
        st.integers(min_value=0, max_value=80),  # proposed priority
    ),
    min_size=0,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(updates=update_sequences, delta=st.sampled_from([1, 3, 8]))
def test_lazy_and_eager_agree_on_final_priorities(updates, delta):
    """Interleave updates with dequeues; both structures must finalize the
    same priorities and process vertices in non-decreasing bucket order."""

    def drive(queue_class):
        priorities = np.full(10, INT_MAX, dtype=np.int64)
        priorities[0] = 0
        queue = queue_class(priorities, delta=delta, initial_vertices=[0])
        orders = []
        pending = list(updates)
        while True:
            bucket = queue.dequeue_ready_set()
            if bucket.size == 0 and not pending:
                break
            if bucket.size:
                orders.append(queue.current_order)
            # Apply a slice of updates "during" this round, at or above the
            # current bucket (the monotone regime of Δ-stepping).
            take, pending = pending[:5], pending[5:]
            floor_value = (
                queue.current_order * delta if queue.current_order is not None else 0
            )
            for vertex, proposed in take:
                queue.update_priority_min(vertex, max(proposed, floor_value))
            if bucket.size == 0 and queue.finished():
                break
        return priorities, orders

    lazy_priorities, lazy_orders = drive(LazyBucketQueue)
    eager_priorities, eager_orders = drive(EagerBucketQueue)
    assert np.array_equal(lazy_priorities, eager_priorities)
    assert lazy_orders == sorted(lazy_orders)
    assert eager_orders == sorted(eager_orders)


# ----------------------------------------------------------------------
# Histogram transform equals serialized clamped decrements
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    targets=st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=30),
    floor=st.integers(min_value=0, max_value=10),
)
def test_histogram_equals_serialized_decrements(targets, floor):
    priorities = np.arange(10, 18, dtype=np.int64)
    expected = priorities.copy()
    for vertex in targets:
        expected[vertex] = max(expected[vertex] - 1, floor)

    actual = priorities.copy()
    if targets:
        vertices, counts = np.unique(
            np.array(targets, dtype=np.int64), return_counts=True
        )
        LazyBucketQueue(actual).apply_histogram_updates(vertices, counts, -1, floor)
    assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# Substrate invariants
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    threads=st.integers(min_value=1, max_value=9),
    chunk=st.integers(min_value=1, max_value=17),
    policy=st.sampled_from(
        ["static-vertex-parallel", "dynamic-vertex-parallel"]
    ),
)
def test_partition_is_a_partition(n, threads, chunk, policy):
    # Unit costs: every item lands on exactly one thread, and static
    # blocks differ by at most one item.
    totals = split_work(np.ones(n, dtype=np.int64), threads, policy, chunk)
    assert totals.shape == (threads,)
    assert totals.min() >= 0 and totals.sum() == n
    if policy == "static-vertex-parallel":
        assert totals.max() - totals.min() <= 1


@settings(max_examples=60, deadline=None)
@given(
    offers=st.lists(st.tuples(st.integers(0, 5), st.integers(-4, 9)), max_size=30),
    maximize=st.booleans(),
)
def test_accepted_offers_match_a_scalar_loop(offers, maximize):
    """The relaxed queue's update sequence: exactly the offers a one-at-a-time
    loop accepts, in stream order."""
    current = np.array([3, 0, 8, 5, -2, 4], dtype=np.int64)
    dst = np.array([v for v, _ in offers], dtype=np.int64)
    vals = np.array([x for _, x in offers], dtype=np.int64)
    running = current.copy()
    expected = []
    for v, x in offers:
        better = x > running[v] if maximize else x < running[v]
        expected.append(better)
        if better:
            running[v] = x
    reduce = np.maximum if maximize else np.minimum
    accepted = _accepted_offers(current[dst], dst, vals, reduce)
    assert list(accepted) == expected


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists, frontier=st.lists(st.integers(0, 14), max_size=10))
def test_gather_matches_scalar_edges(edges, frontier):
    graph = build_graph(edges)
    frontier_arr = np.array(frontier, dtype=np.int64)
    sources, dests, weights = gather_out_edges(graph, frontier_arr)
    expected = [
        (v, u, w) for v in frontier for u, w in graph.out_edges(int(v))
    ]
    assert list(zip(sources.tolist(), dests.tolist(), weights.tolist())) == expected


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists)
def test_symmetrize_is_idempotent(edges):
    graph = build_graph(edges).symmetrized()
    again = graph.symmetrized()
    assert np.array_equal(graph.indptr, again.indptr)
    assert np.array_equal(graph.indices, again.indices)
    assert np.array_equal(graph.weights, again.weights)


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists)
def test_reverse_preserves_edge_multiset(edges):
    graph = build_graph(edges)
    reverse = graph.reversed()
    forward = sorted(zip(*[a.tolist() for a in graph.edge_list()]))
    backward = sorted(
        (d, s, w) for s, d, w in zip(*[a.tolist() for a in reverse.edge_list()])
    )
    assert forward == backward
