"""Workload profiles: the paper's crossover axes distilled from one run.

``workload_profile`` turns ``RuntimeStats`` into the schema-versioned JSON
document autotuner v2 consumes (``repro metrics --workload``).  These tests
pin the document shape, the derived ratios, and — since every input is a
deterministic counter — bit-stability across identical runs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Schedule, compile_program
from repro.graph.generators import rmat
from repro.lang.programs import ALL_PROGRAMS
from repro.obs import metrics, workload_profile, write_workload_profile
from repro.obs.workload import WORKLOAD_SCHEMA, _series_summary


def run_sssp(graph, vectorize=True, **overrides):
    defaults = dict(priority_update="lazy", delta=3)
    defaults.update(overrides)
    schedule = Schedule(**defaults)
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    source = int(np.argmax(graph.out_degrees()))
    result = program.run(["sssp", "-", str(source)], graph=graph, vectorize=vectorize)
    return result, schedule


@pytest.fixture
def graph():
    return rmat(10, 16, seed=0, weights=(1, 8))


class TestSeriesSummary:
    def test_empty_series(self):
        assert _series_summary([]) == {
            "count": 0, "min": 0, "max": 0, "mean": 0.0, "median": 0,
        }

    def test_order_statistics(self):
        summary = _series_summary([5, 1, 9, 3])
        assert summary["count"] == 4
        assert summary["min"] == 1
        assert summary["max"] == 9
        assert summary["mean"] == pytest.approx(4.5)
        assert summary["median"] == 5  # upper median of the sorted series


class TestProfileShape:
    def test_axes_present_and_consistent(self, graph):
        result, schedule = run_sssp(graph)
        profile = workload_profile(result.stats, schedule=schedule, graph=graph)

        assert profile["schema"] == WORKLOAD_SCHEMA
        assert set(profile) == {
            "schema", "schedule", "graph", "rounds", "frontier",
            "bucket_occupancy", "updates", "delta_buckets", "work", "metrics",
        }
        stats = result.stats
        assert profile["rounds"]["rounds"] == stats.rounds
        assert profile["frontier"]["per_round"] == stats.frontier_per_round
        assert (
            profile["frontier"]["summary"]["count"]
            == len(stats.frontier_per_round)
            > 0
        )
        assert profile["frontier"]["summary"]["max"] == max(
            stats.frontier_per_round
        )
        assert profile["bucket_occupancy"]["summary"]["min"] >= 1
        assert profile["delta_buckets"]["delta"] == 3
        assert profile["schedule"]["priority_update"] == "lazy"
        assert profile["graph"]["num_vertices"] == graph.num_vertices
        assert profile["graph"]["avg_degree"] == pytest.approx(
            graph.num_edges / graph.num_vertices
        )

    def test_derived_ratios_bounded(self, graph):
        result, schedule = run_sssp(graph, vectorize=False)
        updates = workload_profile(result.stats, schedule=schedule)["updates"]
        # Per-edge lazy buffering (the scalar interpreter, like the emitted
        # C++) on a social graph discards a meaningful fraction of buffered
        # updates — that ratio is the axis the profile exists to expose.
        assert 0.0 < updates["redundant_update_ratio"] <= 1.0
        assert updates["dedup_hits"] <= updates["buffer_appends"]
        # Each applied priority update costs at least one relaxation.
        assert 0.0 < updates["update_efficiency"] <= 1.0
        # The batch kernel relaxes a round as one chunk and buffers each
        # improved vertex once: nothing is redundant.
        batch, _ = run_sssp(graph)
        batch_updates = workload_profile(batch.stats, schedule=schedule)["updates"]
        assert batch_updates["redundant_update_ratio"] == 0.0

    def test_eager_run_has_no_buffer_traffic(self, graph):
        result, schedule = run_sssp(graph, priority_update="eager_no_fusion")
        updates = workload_profile(result.stats, schedule=schedule)["updates"]
        assert updates["buffer_appends"] == 0
        assert updates["redundant_update_ratio"] == 0.0

    def test_relaxed_run_has_empty_per_round_series(self, graph):
        # The relaxed queue has no synchronized rounds, so the per-round
        # series stay empty and the summaries report count 0.
        from repro.algorithms.sssp import sssp

        source = int(np.argmax(graph.out_degrees()))
        result = sssp(
            graph, source, Schedule(priority_update="relaxed", delta=3, num_threads=4)
        )
        profile = workload_profile(result.stats)
        assert profile["frontier"]["per_round"] == []
        assert profile["frontier"]["summary"]["count"] == 0
        assert profile["bucket_occupancy"]["per_round"] == []

    def test_optional_context_defaults_to_none(self, graph):
        result, _ = run_sssp(graph)
        profile = workload_profile(result.stats)
        assert profile["schedule"] is None
        assert profile["graph"] is None
        assert profile["metrics"] is None


class TestDeterminismAndSerialization:
    def test_identical_runs_identical_profiles(self, graph):
        profiles = []
        for _ in range(2):
            result, schedule = run_sssp(graph)
            profiles.append(
                workload_profile(result.stats, schedule=schedule, graph=graph)
            )
        assert json.dumps(profiles[0], sort_keys=True) == json.dumps(
            profiles[1], sort_keys=True
        )

    def test_round_trips_through_disk(self, graph, tmp_path):
        metrics.reset_metrics()
        result, schedule = run_sssp(graph)
        profile = workload_profile(
            result.stats,
            schedule=schedule,
            graph=graph,
            metrics_snapshot=metrics.deterministic_snapshot(),
        )
        path = tmp_path / "workload.json"
        write_workload_profile(str(path), profile)
        loaded = json.loads(path.read_text())
        assert loaded == profile
        # The embedded registry snapshot carries the run's counters.
        assert "bucket.dequeues" in loaded["metrics"]
        metrics.reset_metrics()
