"""The always-on metrics registry: declarations, shards, determinism,
and exports.

Contracts pinned here:

* every metric name must be declared in ``repro.obs.events.METRICS``
  (undeclared names raise — the typo guard);
* per-thread shards merge with commutative operations, so the merged
  registry state is independent of thread scheduling;
* ``deterministic_snapshot`` excludes wall-clock metrics and is bit-stable
  across identical runs;
* Prometheus text exposition is well-formed (cumulative buckets, _total
  counters);
* every apply operator reports itself: the registry's ``apply.calls``
  equals the context's own apply counts.

Cost is measured by ``bench/run.py``, not asserted here.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import Schedule, compile_program
from repro.graph.generators import rmat
from repro.lang.programs import ALL_PROGRAMS
from repro.obs import events, metrics


@pytest.fixture(autouse=True)
def fresh_registry():
    """Every test sees an empty (but still global) registry."""
    metrics.reset_metrics()
    yield
    metrics.reset_metrics()


def run_sssp(graph, **overrides):
    defaults = dict(priority_update="lazy", delta=3)
    defaults.update(overrides)
    schedule = Schedule(**defaults)
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    source = int(np.argmax(graph.out_degrees()))
    return program.run(["sssp", "-", str(source)], graph=graph)


# ----------------------------------------------------------------------
# Declarations (the metric half of the name registry)
# ----------------------------------------------------------------------
class TestDeclarations:
    def test_undeclared_name_refused(self):
        with pytest.raises(ValueError, match="not declared"):
            metrics.counter("bucket.definitely_a_typo")

    def test_kind_mismatch_refused(self):
        # bucket.dequeues is declared as a counter.
        with pytest.raises(ValueError, match="declared as a counter"):
            metrics.histogram("bucket.dequeues")

    def test_every_declaration_is_well_formed(self):
        for name, spec in events.METRICS.items():
            assert spec["kind"] in events.METRIC_KINDS, name
            assert spec["cat"] in events.CATEGORIES, name

    def test_every_declared_metric_constructs(self):
        for name, spec in events.METRICS.items():
            factory = getattr(metrics, spec["kind"])
            metric = factory(name)
            assert metric.name == name
            assert metric.cat == spec["cat"]


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_sums_and_resets(self):
        c = metrics.counter("runs.completed")
        c.inc()
        c.inc(4)
        assert c.value() == 5
        c.reset()
        assert c.value() == 0

    def test_gauge_last_write_wins(self):
        g = metrics.gauge("bucket.delta")
        assert g.value() is None
        g.set(3)
        g.set(17)
        assert g.value() == 17

    def test_histogram_log2_buckets(self):
        h = metrics.histogram("bucket.frontier_size")
        for v, bucket in [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (255, 8)]:
            h.reset()
            h.observe(v)
            data = h.value()
            assert data["buckets"][bucket] == 1, (v, bucket)
            assert data["count"] == 1
            assert data["sum"] == v

    def test_histogram_clamps_extremes(self):
        h = metrics.histogram("bucket.frontier_size")
        h.observe(-5)  # negative -> bucket 0
        h.observe(1 << 200)  # absurd -> last bucket
        data = h.value()
        assert data["buckets"][0] == 1
        assert data["buckets"][metrics.HISTOGRAM_BUCKETS - 1] == 1
        assert data["max"] == 1 << 200


# ----------------------------------------------------------------------
# Shard merging (the determinism mechanism)
# ----------------------------------------------------------------------
class TestShardMerge:
    def test_concurrent_increments_merge_exactly(self):
        c = metrics.counter("parallel.rounds")
        h = metrics.histogram("parallel.chunk_size")
        per_thread, threads = 500, 6

        def work():
            for i in range(per_thread):
                c.inc()
                h.observe(i % 37)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        metrics.merge_shards()
        assert c.value() == per_thread * threads
        data = h.value()
        assert data["count"] == per_thread * threads
        assert data["sum"] == threads * sum(i % 37 for i in range(per_thread))

    def test_merged_state_is_single_sharded(self):
        c = metrics.counter("parallel.rounds")
        done = threading.Event()

        def work():
            c.inc(3)
            done.set()

        t = threading.Thread(target=work)
        t.start()
        t.join()
        assert done.is_set()
        c.inc(2)
        assert len(c._shards) == 2  # two thread shards before the barrier
        c.merge()
        assert list(c._shards) == [None]
        assert c.value() == 5

    def test_merge_order_independent(self):
        """Sharded values merge commutatively: any interleaving of inc and
        merge yields the same final value."""
        a = metrics.counter("parallel.shard_merges")
        a.inc(1)
        a.merge()
        a.inc(2)
        a.merge()
        first = a.value()
        a.reset()
        a.inc(2)
        a.inc(1)
        a.merge()
        assert a.value() == first == 3


# ----------------------------------------------------------------------
# Run-level determinism
# ----------------------------------------------------------------------
class TestRunDeterminism:
    def test_identical_runs_identical_deterministic_snapshot(self):
        graph = rmat(9, 8, seed=5, weights=(1, 4))
        metrics.reset_metrics()
        run_sssp(graph)
        first = metrics.deterministic_snapshot()
        metrics.reset_metrics()
        run_sssp(graph)
        second = metrics.deterministic_snapshot()
        assert first == second
        assert first  # non-trivial: bucket/apply/runs counters present

    def test_parallel_run_matches_serial_deterministic_snapshot(self):
        """The barrier-point shard merge makes the registry's deterministic
        subset scheduling-independent — serial and parallel execution of
        the same program agree bit for bit."""
        graph = rmat(9, 8, seed=5, weights=(1, 4))
        metrics.reset_metrics()
        run_sssp(graph, priority_update="eager_with_fusion", num_threads=4)
        serial = metrics.deterministic_snapshot()
        metrics.reset_metrics()
        run_sssp(
            graph,
            priority_update="eager_with_fusion",
            num_threads=4,
            execution="parallel",
        )
        parallel = metrics.deterministic_snapshot()
        # The parallel engine adds its own (deterministic) round counters;
        # compare the keys both runs share.
        for key in set(serial) & set(parallel):
            if key.startswith("parallel."):
                continue
            assert serial[key] == parallel[key], key

    def test_wallclock_metrics_quarantined(self):
        for name, spec in events.METRICS.items():
            if spec.get("wallclock"):
                factory = getattr(metrics, spec["kind"])
                metric = factory(name)
                if spec["kind"] == "histogram":
                    metric.observe(123)
                elif spec["kind"] == "counter":
                    metric.inc()
                else:
                    metric.set(1.0)
                assert name in metrics.snapshot()
                assert name not in metrics.deterministic_snapshot()

    @pytest.mark.parametrize(
        "program, priority_update",
        [
            ("sssp", "lazy"),
            ("sssp", "eager_with_fusion"),
            ("kcore", "lazy_constant_sum"),
        ],
    )
    def test_every_apply_operator_reports_to_the_registry(
        self, program, priority_update
    ):
        """``apply.calls`` moves in exactly one place, shared by all four
        operators — the eager one included."""
        graph = rmat(9, 8, seed=5, weights=(1, 4))
        argv = [program, "-"]
        if program == "kcore":
            graph = graph.symmetrized()
        else:
            argv.append(str(int(np.argmax(graph.out_degrees()))))
        compiled = compile_program(
            ALL_PROGRAMS[program], Schedule(priority_update=priority_update)
        )
        metrics.reset_metrics()
        ctx = compiled.run(argv, graph=graph).context
        snap = metrics.deterministic_snapshot()
        assert ctx.vectorized_applies + ctx.scalar_applies > 0
        assert snap["apply.calls"] == ctx.vectorized_applies + ctx.scalar_applies
        assert snap.get("apply.vectorized_calls", 0) == ctx.vectorized_applies
        assert snap.get("apply.scalar_calls", 0) == ctx.scalar_applies

    def test_deterministic_snapshot_json_round_trips(self):
        graph = rmat(8, 8, seed=1, weights=(1, 4))
        metrics.reset_metrics()
        run_sssp(graph)
        snap = metrics.deterministic_snapshot()
        assert json.loads(json.dumps(snap)) == snap


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_counter_and_histogram_lines(self):
        metrics.counter("runs.completed").inc(2)
        h = metrics.histogram("bucket.frontier_size")
        h.observe(1)
        h.observe(5)
        h.observe(200)
        text = metrics.prometheus_text()
        assert "# TYPE repro_runs_completed_total counter" in text
        assert "repro_runs_completed_total 2" in text
        # Cumulative buckets: le="1" holds 1, le="7" holds 2, +Inf holds 3.
        assert 'repro_bucket_frontier_size_bucket{le="1"} 1' in text
        assert 'repro_bucket_frontier_size_bucket{le="7"} 2' in text
        assert 'repro_bucket_frontier_size_bucket{le="+Inf"} 3' in text
        assert "repro_bucket_frontier_size_sum 206" in text
        assert "repro_bucket_frontier_size_count 3" in text

    def test_empty_registry_empty_text(self):
        assert metrics.prometheus_text() == ""

    def test_names_are_prometheus_safe(self):
        metrics.gauge("bucket.delta").set(4)
        text = metrics.prometheus_text()
        assert "repro_bucket_delta 4" in text
        assert "." not in text.split()[2]  # metric token has no dots

    def test_every_series_carries_a_type_line(self):
        metrics.counter("serve.requests").inc()
        metrics.gauge("serve.queue_depth").set(3)
        metrics.histogram("serve.latency_us").observe(120)
        text = metrics.prometheus_text()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_latency_us histogram" in text
        # Every exposed family is preceded by its TYPE declaration.
        families = {
            line.split()[0].rsplit("_bucket", 1)[0].rsplit("_sum", 1)[0]
            .rsplit("_count", 1)[0].split("{")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        declared = {
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE")
        }
        assert families <= declared

    def test_escape_label_value(self):
        from repro.obs.metrics import escape_label_value

        assert escape_label_value('pla"in') == 'pla\\"in'
        assert escape_label_value("back\\slash") == "back\\\\slash"
        assert escape_label_value("new\nline") == "new\\nline"
        assert escape_label_value(7) == "7"

    def test_histogram_le_labels_are_escaped(self):
        # The +Inf bound goes through the same escaping path as every
        # other label value; nothing in the output may carry a raw quote
        # or newline inside a label.
        metrics.histogram("serve.latency_us").observe(1)
        text = metrics.prometheus_text()
        for line in text.splitlines():
            if "{" in line:
                label_blob = line[line.index("{") + 1 : line.rindex("}")]
                assert "\n" not in label_blob
                assert line.count('"') % 2 == 0

