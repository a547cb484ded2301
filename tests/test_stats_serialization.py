"""Serialization contract of :class:`RuntimeStats`.

The parallel-only fields must serialize deterministically — stable key
order, string-keyed ``worker_wall_time`` that survives JSON — the
oracle-comparison dump (``deterministic_dict``) must exclude every
wall-clock-dependent field, and every field must declare how it merges and
what it is, so ``merge()`` and the dumps are derived, never restated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.runtime import stats as stats_module
from repro.runtime.stats import (
    PARALLEL_ONLY_FIELDS,
    WALL_CLOCK_FIELDS,
    RuntimeStats,
)


def populated_stats() -> RuntimeStats:
    stats = RuntimeStats(num_threads=4)
    stats.begin_round()
    stats.charge([10, 0, 0, 7], "static-vertex-parallel")
    stats.end_round(syncs=2, fused=1)
    stats.relaxations = 17
    stats.priority_updates = 5
    stats.execution = "parallel"
    stats.record_parallel_round({2: 0.5, 0: 0.25}, barrier_wait=0.125)
    return stats


class TestToDict:
    def test_key_order_is_field_declaration_order(self):
        keys = list(populated_stats().to_dict())
        expected = [
            name
            for name in RuntimeStats.__dataclass_fields__
            if not name.startswith("_")
        ]
        assert keys == expected

    def test_key_order_stable_regardless_of_population_order(self):
        a = RuntimeStats()
        b = populated_stats()
        assert list(a.to_dict()) == list(b.to_dict())

    def test_private_accumulator_never_serialized(self):
        stats = populated_stats()
        stats.begin_round()  # leave a round open
        assert "_current_work" not in stats.to_dict()

    def test_worker_wall_time_string_keys_sorted_numerically(self):
        stats = RuntimeStats(num_threads=16)
        stats.record_parallel_round(
            {10: 1.0, 2: 2.0, 0: 3.0}, barrier_wait=0.0
        )
        dumped = stats.to_dict()["worker_wall_time"]
        assert list(dumped) == ["0", "2", "10"]
        assert all(isinstance(k, str) for k in dumped)

    def test_json_round_trip_lossless(self):
        dumped = populated_stats().to_dict()
        assert json.loads(json.dumps(dumped)) == dumped


class TestDeterministicDict:
    def test_excludes_parallel_only_and_wall_clock_fields(self):
        dump = populated_stats().deterministic_dict()
        for name in set(PARALLEL_ONLY_FIELDS) | set(WALL_CLOCK_FIELDS):
            assert name not in dump
        assert "rounds" in dump and "relaxations" in dump

    def test_oracle_and_parallel_agree_after_wall_clock_divergence(self):
        oracle = populated_stats()
        parallel = populated_stats()
        # Perturb only nondeterministic observables.
        parallel.barrier_wait_time += 1.0
        parallel.worker_wall_time[2] += 9.0
        parallel.parallel_rounds += 5
        assert oracle.deterministic_dict() == parallel.deterministic_dict()

    def test_deterministic_dict_diverges_on_real_counters(self):
        a = populated_stats()
        b = populated_stats()
        b.relaxations += 1
        assert a.deterministic_dict() != b.deterministic_dict()


class TestDeclaredOnce:
    def test_merge_follows_each_fields_declared_rule(self):
        a = populated_stats()
        b = populated_stats()
        a.merge(b)
        assert a.rounds == 2 and a.relaxations == 34  # sum
        assert a.max_work_per_round == [10, 10]  # extend
        assert a.worker_wall_time == {0: 0.5, 2: 1.0}  # sum-by-key
        assert a.barrier_wait_time == 0.25
        assert a.num_threads == 4 and a.execution == "parallel"  # keep

    def test_exported_field_tuples_are_derived_from_the_declarations(self):
        assert PARALLEL_ONLY_FIELDS == (
            "execution", "parallel_rounds", "barrier_waits",
        )
        assert WALL_CLOCK_FIELDS == ("barrier_wait_time", "worker_wall_time")

    def test_field_without_merge_and_kind_metadata_is_refused(self):
        """The check that runs on RuntimeStats at import: a bare field
        would be silently skipped by merge() and the dumps."""

        @dataclass
        class Extended(RuntimeStats):
            cas_failures: int = 0

        with pytest.raises(TypeError, match="cas_failures"):
            stats_module._declared_fields(Extended)
