"""Unit tests for the bucketing substrate (lazy, eager, relaxed queues)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buckets import (
    EagerBucketQueue,
    LazyBucketQueue,
    PriorityDirection,
    RelaxedPriorityQueue,
)
from repro.buckets.interface import sorted_distinct, split_by_order
from repro.errors import PriorityQueueError
from repro.graph.properties import INT_MAX


def make_priorities(values):
    return np.array(values, dtype=np.int64)


class TestPriorityDirection:
    def test_parse_strings(self):
        assert PriorityDirection.parse("lower_first") is PriorityDirection.LOWER_FIRST
        assert PriorityDirection.parse("higher_first") is PriorityDirection.HIGHER_FIRST

    def test_parse_passthrough(self):
        assert (
            PriorityDirection.parse(PriorityDirection.LOWER_FIRST)
            is PriorityDirection.LOWER_FIRST
        )

    def test_parse_rejects_unknown(self):
        with pytest.raises(PriorityQueueError):
            PriorityDirection.parse("middle_first")


class TestLazyBucketQueue:
    def test_initial_population_from_non_null(self):
        priorities = make_priorities([0, INT_MAX, 2, 1])
        queue = LazyBucketQueue(priorities)
        assert queue.dequeue_ready_set().tolist() == [0]
        assert queue.get_current_priority() == 0
        assert queue.dequeue_ready_set().tolist() == [3]
        assert queue.dequeue_ready_set().tolist() == [2]
        assert queue.finished()

    def test_explicit_initial_vertices(self):
        priorities = make_priorities([0, 5, 5])
        queue = LazyBucketQueue(priorities, initial_vertices=[0])
        assert queue.dequeue_ready_set().tolist() == [0]
        assert queue.dequeue_ready_set().size == 0

    def test_update_min_inserts_lazily(self):
        priorities = make_priorities([0, INT_MAX])
        queue = LazyBucketQueue(priorities)
        queue.dequeue_ready_set()
        assert queue.update_priority_min(1, 3)
        assert not queue.finished()
        assert queue.dequeue_ready_set().tolist() == [1]
        assert queue.get_current_priority() == 3

    def test_update_min_noop_when_not_smaller(self):
        priorities = make_priorities([0, 4])
        queue = LazyBucketQueue(priorities)
        assert not queue.update_priority_min(1, 4)
        assert not queue.update_priority_min(1, 9)
        assert priorities[1] == 4

    def test_final_priority_determines_bucket(self):
        # Two updates before the flush: only the final value counts.
        priorities = make_priorities([0, INT_MAX])
        queue = LazyBucketQueue(priorities)
        queue.dequeue_ready_set()
        queue.update_priority_min(1, 9)
        queue.update_priority_min(1, 2)
        bucket = queue.dequeue_ready_set()
        assert bucket.tolist() == [1]
        assert queue.get_current_priority() == 2
        # Exactly one bucket insertion despite two updates (lazy dedup);
        # the initial vertex accounts for the other insert.
        assert queue.stats.bucket_inserts == 2

    def test_dedup_hits_counted(self):
        priorities = make_priorities([0, INT_MAX])
        queue = LazyBucketQueue(priorities)
        queue.dequeue_ready_set()
        queue.update_priority_min(1, 9)
        queue.update_priority_min(1, 2)
        assert queue.stats.dedup_hits == 1

    def test_delta_coarsening_groups_values(self):
        priorities = make_priorities([0, 3, 5, 11])
        queue = LazyBucketQueue(priorities, delta=4)
        assert queue.dequeue_ready_set().tolist() == [0, 1]
        assert queue.get_current_priority() == 0
        assert queue.dequeue_ready_set().tolist() == [2]
        assert queue.get_current_priority() == 4
        assert queue.dequeue_ready_set().tolist() == [3]

    def test_coarsening_disallowed(self):
        with pytest.raises(PriorityQueueError):
            LazyBucketQueue(make_priorities([0]), delta=4, allow_coarsening=False)

    def test_overflow_rebucketing(self):
        # Window of 2 buckets; far-away priorities land in overflow and are
        # recovered when the window is exhausted.
        priorities = make_priorities([0, 500, 1000])
        queue = LazyBucketQueue(priorities, num_open_buckets=2)
        seen = []
        while True:
            bucket = queue.dequeue_ready_set()
            if bucket.size == 0:
                break
            seen.extend(bucket.tolist())
        assert seen == [0, 1, 2]

    def test_stale_entries_filtered(self):
        priorities = make_priorities([0, 10])
        queue = LazyBucketQueue(priorities)
        queue.dequeue_ready_set()
        queue.update_priority_min(1, 8)  # buffered for bucket 8
        queue.update_priority_min(1, 2)  # same buffer entry, final bucket 2
        assert queue.dequeue_ready_set().tolist() == [1]
        # No second appearance of vertex 1 at bucket 8.
        assert queue.dequeue_ready_set().size == 0

    def test_same_bucket_reprocessing(self):
        # SSSP pattern: a vertex whose priority lands in the current bucket
        # is processed in a later round of the same bucket.
        priorities = make_priorities([0, INT_MAX])
        queue = LazyBucketQueue(priorities, delta=10)
        queue.dequeue_ready_set()
        queue.update_priority_min(1, 5)  # same coarsened bucket as 0
        bucket = queue.dequeue_ready_set()
        assert bucket.tolist() == [1]
        assert queue.get_current_priority() == 0

    def test_update_sum_with_threshold(self):
        priorities = make_priorities([5, 5])
        queue = LazyBucketQueue(priorities)
        queue.dequeue_ready_set()
        assert queue.update_priority_sum(1, -3, min_threshold=5)is False or priorities[1] == 5
        # Clamped at the threshold: no change.
        assert priorities[1] == 5

    def test_update_sum_sign_pinned(self):
        priorities = make_priorities([5, 9])
        queue = LazyBucketQueue(priorities)
        queue.update_priority_sum(1, -2)
        with pytest.raises(PriorityQueueError):
            queue.update_priority_sum(1, 3)

    def test_update_sum_null_rejected(self):
        priorities = make_priorities([0, INT_MAX])
        queue = LazyBucketQueue(priorities)
        with pytest.raises(PriorityQueueError):
            queue.update_priority_sum(1, -1)

    def test_updates_to_finalized_vertices_ignored(self):
        priorities = make_priorities([0, 5])
        queue = LazyBucketQueue(priorities)
        queue.dequeue_ready_set()  # processes vertex 0 at priority 0
        queue.dequeue_ready_set()  # vertex 1 at priority 5; 0 now finalized
        assert not queue.update_priority_sum(0, -1, min_threshold=0)
        assert priorities[0] == 0

    def test_finished_vertex(self):
        priorities = make_priorities([0, 5])
        queue = LazyBucketQueue(priorities)
        assert not queue.finished_vertex(0)
        queue.dequeue_ready_set()
        queue.dequeue_ready_set()
        assert queue.finished_vertex(0)
        assert not queue.finished_vertex(1)  # still in the current bucket

    def test_higher_first_processes_descending(self):
        priorities = make_priorities([1, 7, 4])
        queue = LazyBucketQueue(priorities, direction="higher_first")
        order = []
        while True:
            bucket = queue.dequeue_ready_set()
            if bucket.size == 0:
                break
            order.append(queue.get_current_priority())
        assert order == [7, 4, 1]

    def test_remove_batch(self):
        priorities = make_priorities([1, 2, 3])
        queue = LazyBucketQueue(priorities)
        queue.remove_batch(np.array([1]))
        seen = []
        while True:
            bucket = queue.dequeue_ready_set()
            if bucket.size == 0:
                break
            seen.extend(bucket.tolist())
        assert seen == [0, 2]

    def test_get_current_priority_before_dequeue_rejected(self):
        queue = LazyBucketQueue(make_priorities([0]))
        with pytest.raises(PriorityQueueError):
            queue.get_current_priority()

    def test_buffer_changed_batch_dedups(self):
        priorities = make_priorities([0, 4, 4])
        queue = LazyBucketQueue(priorities, initial_vertices=[0])
        appended = queue.buffer_changed_batch(np.array([1, 2, 1]))
        assert appended == 2
        appended_again = queue.buffer_changed_batch(np.array([1]))
        assert appended_again == 0
        assert queue.stats.dedup_hits >= 1

    def test_apply_histogram_updates_skips_finalized(self):
        priorities = make_priorities([0, 3, 5])
        queue = LazyBucketQueue(priorities)
        queue.dequeue_ready_set()  # bucket 0
        queue.dequeue_ready_set()  # bucket 3: vertex 0 finalized
        changed = queue.apply_histogram_updates(
            np.array([0, 2]), np.array([1, 1]), -1, 3
        )
        assert changed.tolist() == [2]
        assert priorities[0] == 0  # untouched
        assert priorities[2] == 4

    def test_apply_histogram_updates_clamps_at_floor(self):
        priorities = make_priorities([10, 10, 10])
        queue = LazyBucketQueue(priorities)
        changed = queue.apply_histogram_updates(
            np.array([0, 1]), np.array([3, 20]), -1, 5
        )
        assert changed.tolist() == [0, 1]
        assert priorities.tolist() == [7, 5, 10]

    def test_apply_histogram_updates_clamps_at_ceiling(self):
        priorities = make_priorities([1])
        queue = LazyBucketQueue(priorities, direction="higher_first")
        queue.apply_histogram_updates(np.array([0]), np.array([10]), 2, 15)
        assert priorities[0] == 15

    def test_invalid_configs(self):
        with pytest.raises(PriorityQueueError):
            LazyBucketQueue(make_priorities([0]), num_open_buckets=0)
        with pytest.raises(PriorityQueueError):
            LazyBucketQueue(make_priorities([0]), delta=0)
        with pytest.raises(PriorityQueueError):
            LazyBucketQueue(np.array([0.5, 1.5]))  # not int64


class TestEagerBucketQueue:
    def test_immediate_insertion(self):
        priorities = make_priorities([0, INT_MAX])
        queue = EagerBucketQueue(priorities)
        queue.dequeue_ready_set()
        assert queue.update_priority_min(1, 4)
        assert queue.stats.bucket_inserts >= 2  # initial + update
        assert queue.dequeue_ready_set().tolist() == [1]

    def test_every_update_costs_an_insert(self):
        # Unlike lazy, eager pays one bucket insertion per improvement.
        priorities = make_priorities([0, INT_MAX])
        queue = EagerBucketQueue(priorities)
        queue.dequeue_ready_set()
        base = queue.stats.bucket_inserts
        queue.update_priority_min(1, 9)
        queue.update_priority_min(1, 4)
        assert queue.stats.bucket_inserts == base + 2

    def test_stale_copies_filtered_at_dequeue(self):
        priorities = make_priorities([0, INT_MAX])
        queue = EagerBucketQueue(priorities)
        queue.dequeue_ready_set()
        queue.update_priority_min(1, 9)
        queue.update_priority_min(1, 4)
        assert queue.dequeue_ready_set().tolist() == [1]  # at bucket 4
        assert queue.dequeue_ready_set().size == 0  # bucket-9 copy is stale

    def test_thread_local_bins_gathered_globally(self):
        priorities = make_priorities([0, INT_MAX, INT_MAX])
        queue = EagerBucketQueue(priorities)
        queue.dequeue_ready_set()
        queue.update_priority_min(2, 5)
        queue.update_priority_min(1, 5)
        assert queue.dequeue_ready_set().tolist() == [1, 2]

    def test_pop_local_bucket_respects_threshold(self):
        priorities = make_priorities([0, INT_MAX, INT_MAX, INT_MAX])
        queue = EagerBucketQueue(priorities, delta=10)
        queue.dequeue_ready_set()
        for vertex in (1, 2, 3):
            queue.update_priority_min(vertex, 5)  # current bucket
        # Local bucket of size 3 is too large for threshold 3.
        assert queue.pop_local_bucket(max_size=3) is None
        popped = queue.pop_local_bucket(max_size=10)
        assert popped.tolist() == [1, 2, 3]
        # Bucket is consumed.
        assert queue.pop_local_bucket(max_size=10) is None

    def test_pop_local_bucket_before_dequeue_rejected(self):
        queue = EagerBucketQueue(make_priorities([0]))
        with pytest.raises(PriorityQueueError):
            queue.pop_local_bucket(10)

    def test_priority_inversion_clamped(self):
        priorities = make_priorities([0, 25, 7])
        queue = EagerBucketQueue(priorities, delta=10)
        queue.dequeue_ready_set()  # bucket 0 (vertices 0 and 2)
        queue.dequeue_ready_set()  # bucket 2 (vertex 1)
        # An update mapping below the current bucket is clamped into it.
        queue.update_priority_min(1, 5)
        assert queue.priority_inversions == 1
        assert queue.dequeue_ready_set().tolist() == [1]

    def test_insert_batch_at(self):
        priorities = make_priorities([5, 5, 5])
        queue = EagerBucketQueue(priorities, initial_vertices=[])
        queue.insert_batch_at(np.array([0, 1]), np.array([5, 5]))
        assert queue.dequeue_ready_set().tolist() == [0, 1]

    def test_update_sum_moves_single_bucket(self):
        priorities = make_priorities([1, 4])
        queue = EagerBucketQueue(priorities)
        queue.dequeue_ready_set()  # bucket 1
        queue.update_priority_sum(1, -1, min_threshold=1)
        assert priorities[1] == 3
        assert queue.dequeue_ready_set().tolist() == [1]
        assert queue.get_current_priority() == 3


class TestRelaxedPriorityQueue:
    def test_processes_approximately_in_order(self):
        priorities = make_priorities([5, 1, 3])
        queue = RelaxedPriorityQueue(priorities, slack=1, chunk_size=1)
        order = [queue.dequeue_ready_set().tolist()[0] for _ in range(3)]
        assert order == [1, 2, 0]

    def test_slack_mixes_buckets(self):
        priorities = make_priorities([0, 1, 0, 1])
        queue = RelaxedPriorityQueue(priorities, slack=2, chunk_size=10)
        chunk = queue.dequeue_ready_set()
        assert sorted(chunk.tolist()) == [0, 1, 2, 3]

    def test_no_stale_filtering(self):
        # The relaxed queue processes stale entries — the lost work-
        # efficiency of approximate ordering.
        priorities = make_priorities([0, INT_MAX])
        queue = RelaxedPriorityQueue(priorities, slack=1, chunk_size=10)
        queue.dequeue_ready_set()
        queue.update_priority_min(1, 9)
        queue.update_priority_min(1, 4)
        first = queue.dequeue_ready_set()
        second = queue.dequeue_ready_set()
        assert first.tolist() == [1] and second.tolist() == [1]

    def test_sum_updates_rejected(self):
        queue = RelaxedPriorityQueue(make_priorities([0]))
        with pytest.raises(PriorityQueueError):
            queue.update_priority_sum(0, -1)

    def test_invalid_config(self):
        with pytest.raises(PriorityQueueError):
            RelaxedPriorityQueue(make_priorities([0]), slack=0)
        with pytest.raises(PriorityQueueError):
            RelaxedPriorityQueue(make_priorities([0]), chunk_size=0)


class TestUpdatePriorityMax:
    def test_lazy_scalar_max_updates(self):
        # higher_first queue: maxima only increase, processed from the top.
        priorities = make_priorities([10, 3, 7])
        queue = LazyBucketQueue(priorities, direction="higher_first")
        assert queue.dequeue_ready_set().tolist() == [0]
        assert queue.update_priority_max(1, 9)
        assert not queue.update_priority_max(1, 4)  # not larger
        assert priorities[1] == 9
        assert queue.dequeue_ready_set().tolist() == [1]
        assert queue.get_current_priority() == 9

    def test_eager_scalar_max_updates(self):
        priorities = make_priorities([10, 3])
        queue = EagerBucketQueue(priorities, direction="higher_first")
        queue.dequeue_ready_set()
        assert queue.update_priority_max(1, 8)
        assert queue.dequeue_ready_set().tolist() == [1]

    def test_max_from_null_priority(self):
        from repro.buckets import NULL_PRIORITY_HIGHER

        priorities = make_priorities([5, NULL_PRIORITY_HIGHER])
        queue = LazyBucketQueue(priorities, direction="higher_first")
        queue.dequeue_ready_set()
        assert queue.update_priority_max(1, 2)
        assert priorities[1] == 2

    def test_value_of_order_roundtrip(self):
        priorities = make_priorities([0, 12])
        lower = LazyBucketQueue(priorities.copy(), delta=4)
        assert lower.value_of_order(lower.order_of_value(12)) == 12
        higher = LazyBucketQueue(
            priorities.copy(), delta=4, direction="higher_first"
        )
        assert higher.value_of_order(higher.order_of_value(12)) == 12


def _drain(queue):
    rounds = []
    while not queue.finished():
        ready = queue.dequeue_ready_set()
        if ready.size:
            rounds.append((queue.current_order, ready.tolist()))
    return rounds


class TestSortFreeHelpers:
    @pytest.mark.parametrize(
        "values",
        [[], [7], [1, 2, 5, 9], [9, 5, 2, 1], [3, 3, 3], [1, 1, 2, 4, 4], [4, 1, 4, 0, 1]],
    )
    def test_sorted_distinct_named_cases(self, values):
        array = np.array(values, dtype=np.int64)
        assert np.array_equal(sorted_distinct(array), np.unique(array))
        assert array.tolist() == values  # the input is never reordered in place

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-50, 50), max_size=40))
    def test_sorted_distinct_equals_np_unique(self, values):
        array = np.array(values, dtype=np.int64)
        result = sorted_distinct(array)
        assert result.dtype == np.int64
        assert np.array_equal(result, np.unique(array))

    def test_sorted_distinct_returns_increasing_input_untouched(self):
        array = np.array([2, 3, 11], dtype=np.int64)
        assert sorted_distinct(array) is array

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 99),
                # one window, a wide spread, and the null sentinels' extremes
                st.integers(-3, 3)
                | st.integers(0, 1 << 17)
                | st.sampled_from([-(2**62), 2**62]),
            ),
            max_size=40,
        )
    )
    def test_split_by_order_equals_the_mask_loop(self, pairs):
        vertices = np.array([v for v, _ in pairs], dtype=np.int64)
        orders = np.array([o for _, o in pairs], dtype=np.int64)
        expected = [
            (int(order), vertices[orders == order].tolist())
            for order in np.unique(orders)
        ]
        groups = split_by_order(vertices, orders)
        assert [(o, m.tolist()) for o, m in groups] == expected
        assert all(type(o) is int for o, _ in groups)
        assert not any(np.shares_memory(m, vertices) for _, m in groups)


class TestQueuesOwnTheirArrays:
    """A queue never keeps an alias of an array its caller owns."""

    @pytest.mark.parametrize("targets", [[5, 5, 5], [5, 9, 700]])
    def test_lazy_buffer_changed_batch(self, targets):
        priorities = make_priorities([0, INT_MAX, INT_MAX, INT_MAX])
        queue = LazyBucketQueue(priorities, initial_vertices=[0], num_open_buckets=4)
        queue.dequeue_ready_set()
        changed = np.array([1, 2, 3], dtype=np.int64)
        priorities[changed] = targets
        queue.buffer_changed_batch(changed)
        changed[:] = 0
        assert sorted(v for _, r in _drain(queue) for v in r) == [1, 2, 3]

    @pytest.mark.parametrize("targets", [[5, 5, 5], [5, 9, 700]])
    def test_eager_insert_changed_batch(self, targets):
        priorities = make_priorities([0, INT_MAX, INT_MAX, INT_MAX])
        queue = EagerBucketQueue(priorities, initial_vertices=[0])
        queue.dequeue_ready_set()
        changed = np.array([1, 2, 3], dtype=np.int64)
        priorities[changed] = targets
        queue.insert_changed_batch(changed)
        changed[:] = 0
        assert sorted(v for _, r in _drain(queue) for v in r) == [1, 2, 3]

    @pytest.mark.parametrize("orders", [[4, 4, 4], [6, 4, 5]])
    def test_eager_insert_batch_at(self, orders):
        priorities = make_priorities([0, 4, 4, 4])
        queue = EagerBucketQueue(priorities, initial_vertices=[0])
        queue.dequeue_ready_set()
        vertices = np.array([1, 2, 3], dtype=np.int64)
        at = np.array(orders, dtype=np.int64)
        queue.insert_batch_at(vertices, at)
        vertices[:] = 0
        at[:] = 0
        assert sorted(v for _, r in _drain(queue) for v in r) == [1, 2, 3]

    @pytest.mark.parametrize("targets", [[5, 5, 5], [5, 9, 700]])
    def test_relaxed_insert_and_initial_vertices(self, targets):
        priorities = make_priorities([0, 0, INT_MAX, INT_MAX, INT_MAX])
        initial = np.array([0, 1], dtype=np.int64)
        queue = RelaxedPriorityQueue(priorities, initial_vertices=initial)
        initial[:] = 4
        changed = np.array([2, 3, 4], dtype=np.int64)
        priorities[changed] = targets
        values = priorities[changed]
        queue.insert_updates(changed, values)
        changed[:] = 0
        values[:] = 0
        assert sorted(v for _, r in _drain(queue) for v in r) == [0, 1, 2, 3, 4]


class TestSortFreeQueues:
    def test_priority_fn_called_once_per_vertex_in_ascending_order(self):
        priorities = make_priorities([0] + [INT_MAX] * 9)
        calls = []

        def priority_of(vertex):
            calls.append(vertex)
            return int(priorities[vertex])

        queue = LazyBucketQueue(
            priorities, initial_vertices=[0], priority_fn=priority_of
        )
        queue.dequeue_ready_set()
        # Three disjoint chunks, buffered out of order, one vertex offered twice.
        for chunk, value in (([7, 9], 3), ([2], 5), ([4, 8, 9], 3)):
            priorities[chunk] = value
            queue.buffer_changed_batch(np.array(chunk, dtype=np.int64))
        queue.update_priority_min(1, 4)
        assert queue.dequeue_ready_set().tolist() == [4, 7, 8, 9]
        assert calls == [1, 2, 4, 7, 8, 9]
        assert queue.stats.buffer_reductions == 6
        assert queue.stats.dedup_hits == 1

    def test_lazy_eager_relaxed_drain_a_multi_order_batch_alike(self):
        # Orders 1, 2, 3 are in the lazy queue's first window of four;
        # 40 and 41 overflow and come back through a re-bucket.
        batch = np.array([9, 3, 7, 1, 8, 2, 6, 4, 5], dtype=np.int64)
        values = np.array([41, 2, 40, 1, 3, 41, 1, 2, 40], dtype=np.int64)

        def fresh():
            return make_priorities([0] + [INT_MAX] * 9)

        lazy = LazyBucketQueue(fresh(), initial_vertices=[0], num_open_buckets=4)
        eager = EagerBucketQueue(fresh(), initial_vertices=[0])
        relaxed = RelaxedPriorityQueue(
            fresh(), initial_vertices=[0], slack=1, chunk_size=100
        )
        for queue in (lazy, eager, relaxed):
            assert queue.dequeue_ready_set().tolist() == [0]
            queue.priority_vector[batch] = values
        lazy.buffer_changed_batch(batch[:4])
        lazy.buffer_changed_batch(batch[4:])
        eager.insert_changed_batch(batch[:4])
        eager.insert_changed_batch(batch[4:])
        relaxed.insert_updates(batch[:4], values[:4])
        relaxed.insert_updates(batch[4:], values[4:])

        expected = [(1, [1, 6]), (2, [3, 4]), (3, [8]), (40, [5, 7]), (41, [2, 9])]
        assert _drain(lazy) == expected
        assert _drain(eager) == expected
        # The relaxed queue sorts nothing: same buckets, the most recent
        # update popped first.
        assert [(o, sorted(r)) for o, r in _drain(relaxed)] == expected
        # 1 initial + 9 changed; the lazy queue pays 4 more to re-bucket
        # its overflow (occupancy: open slots + the overflow bucket).
        assert eager.stats.bucket_inserts == 10
        assert lazy.stats.bucket_inserts == 14
        assert lazy.stats.bucket_occupancy_per_round == [1, 4, 3, 2, 2, 1]
        assert lazy.finished() and eager.finished() and relaxed.finished()

    def test_lazy_occupancy_counts_open_slots_like_a_rescan(self):
        rng = np.random.default_rng(5)
        priorities = rng.integers(0, 60, size=200).astype(np.int64)
        queue = LazyBucketQueue(priorities, num_open_buckets=8)
        while not queue.finished():
            ready = queue.dequeue_ready_set()
            if ready.size == 0:
                break
            rescan = sum(1 for bucket in queue._buckets if bucket)
            assert queue._open_slots == rescan
            assert queue.stats.bucket_occupancy_per_round[-1] == (
                1 + rescan + (1 if queue._overflow else 0)
            )
            bump = ready[ready % 3 == 0]
            bump = bump[priorities[bump] < 200]
            priorities[bump] += 17
            queue.buffer_changed_batch(bump)
