"""Correctness tests for the observability subsystem (``repro.obs``).

The three load-bearing contracts:

1. **Spans strictly nest per thread** and the Chrome-trace JSON round-trips
   through disk and validates against the event schema.
2. **Untraced is invisible**: with no active tracer the hook sites feed
   only the bounded always-on ring, and the differential-oracle statistics
   of an untraced run are bit-identical to a baseline run.
3. **On is non-perturbing**: a traced run computes the same output vectors
   and the same deterministic statistics as an untraced run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.backend.program import compile_program
from repro.graph.generators import rmat
from repro.lang.programs import ALL_PROGRAMS
from repro.midend.schedule import Schedule


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    """Every test must start and end with tracing off."""
    assert obs.get_tracer() is None
    yield
    obs.deactivate()


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, seed=5, weights=(1, 4))


def run_sssp(graph, execution="serial", vectorize=True):
    schedule = Schedule(
        priority_update="eager_with_fusion",
        delta=3,
        num_threads=4,
        execution=execution,
    )
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    source = int(np.argmax(graph.out_degrees()))
    return program.run(
        ["sssp", "-", str(source)], graph=graph, vectorize=vectorize
    )


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------
class TestTracerMechanics:
    def test_spans_strictly_nest_per_thread(self, graph):
        with obs.tracing() as tracer:
            run_sssp(graph)
        by_tid: dict[int, list[dict]] = {}
        for event in tracer.events:
            if event["ph"] == "X":
                by_tid.setdefault(event["tid"], []).append(event)
        assert by_tid, "no spans recorded"
        for spans in by_tid.values():
            spans.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack: list[dict] = []
            for event in spans:
                while stack and event["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                    stack.pop()
                if stack:
                    parent = stack[-1]
                    # Strict containment: the child ends no later than the
                    # parent (floating-point ts, so allow equality).
                    assert (
                        event["ts"] + event["dur"]
                        <= parent["ts"] + parent["dur"] + 1e-6
                    )
                stack.append(event)

    def test_manual_nesting_order(self):
        clock = iter(range(100))
        tracer = obs.Tracer(clock=lambda: next(clock))
        with tracer.span("outer", "meta"):
            with tracer.span("inner", "meta") as sp:
                sp["late"] = 42
        inner, outer = [e for e in tracer.events if e["ph"] == "X"]
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["args"]["late"] == 42
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_activate_twice_raises(self):
        with obs.tracing():
            with pytest.raises(RuntimeError):
                obs.activate(obs.Tracer())

    def test_instant_and_counter_events(self):
        with obs.tracing() as tracer:
            obs.instant("tick", "meta", k=1)
        (tick,) = [e for e in tracer.events if e["ph"] != "M"]
        assert tick["ph"] == "i" and tick["args"] == {"k": 1}
        # Counter (ph=C) samples are not part of the schema: the metrics
        # registry carries counters, the tracer carries spans and instants.
        assert "C" not in obs.PHASES
        assert obs.validate_event(dict(tick, ph="C"))

    def test_parallel_run_emits_worker_and_barrier_spans(self, graph):
        with obs.tracing() as tracer:
            run_sssp(graph, execution="parallel")
        names = {e["name"] for e in tracer.events}
        assert "worker.produce" in names
        assert "barrier.wait" in names
        assert "commit.replay" in names
        worker_tids = {
            e["tid"] for e in tracer.events if e["name"] == "worker.produce"
        }
        # Produce spans run on worker threads, not the coordinator (tid 0).
        assert worker_tids and 0 not in worker_tids

    def test_compiler_and_bucket_spans_present(self, graph):
        with obs.tracing() as tracer:
            run_sssp(graph)
        names = {e["name"] for e in tracer.events}
        for expected in (
            "lex",
            "parse",
            "typecheck",
            "midend.facts",
            "codegen.python",
            "program.run",
            "bucket.advance",
        ):
            assert expected in names, f"missing span {expected}"
        cats = {e["cat"] for e in tracer.events}
        assert {"compiler", "bucket", "runtime"} <= cats


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
class TestChromeTraceExport:
    def test_round_trip_and_schema(self, graph, tmp_path):
        with obs.tracing() as tracer:
            run_sssp(graph)
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), tracer, metadata={"k": "v"})
        payload = obs.load_chrome_trace(str(path))  # validates on load
        assert payload["metadata"] == {"k": "v"}
        assert payload["displayTimeUnit"] == "ms"
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == payload
        assert obs.validate_chrome_trace(payload) == []
        assert len(payload["traceEvents"]) == len(tracer.events)

    def test_validator_rejects_malformed(self):
        assert obs.validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        assert obs.validate_chrome_trace([1, 2, 3])
        good = {
            "traceEvents": [
                {
                    "name": "a",
                    "cat": "meta",
                    "ph": "X",
                    "ts": 0,
                    "dur": 1,
                    "pid": 1,
                    "tid": 0,
                }
            ]
        }
        assert obs.validate_chrome_trace(good) == []
        bad_phase = {"traceEvents": [dict(good["traceEvents"][0], ph="Z")]}
        assert obs.validate_chrome_trace(bad_phase)
        with pytest.raises(ValueError):
            obs.assert_valid_chrome_trace(bad_phase)

    def test_self_profile_accounts_child_time(self):
        clock = iter([0, 0, 10, 40, 100])  # origin, outer+, inner, inner, outer-
        tracer = obs.Tracer(clock=lambda: next(clock))
        with tracer.span("outer", "meta"):
            with tracer.span("inner", "meta"):
                pass
        rows = {r.name: r for r in obs.self_profile(tracer.events)}
        assert rows["inner"].total_us == pytest.approx(30e6)
        assert rows["outer"].total_us == pytest.approx(100e6)
        assert rows["outer"].self_us == pytest.approx(70e6)
        table = obs.format_profile(obs.self_profile(tracer.events))
        assert "outer" in table and "inner" in table


# ----------------------------------------------------------------------
# Non-perturbation
# ----------------------------------------------------------------------
class TestTracingInvisibility:
    def test_untraced_spans_feed_the_flight_recorder(self):
        """With tracing off, span() still records — into the always-on
        bounded ring the crash dump is built from."""
        from repro.obs import tracer as tracer_module

        ring = obs.Tracer(capacity=8)
        saved = tracer_module.set_ring(ring)
        try:
            assert obs.get_tracer() is None
            with obs.span("bucket.advance", "bucket", order=3) as sp:
                sp["frontier"] = 5  # args dict, mutable like any span's
            (event,) = [e for e in ring.events if e["ph"] == "X"]
            assert event["name"] == "bucket.advance"
            assert event["args"] == {"order": 3, "frontier": 5}
        finally:
            tracer_module.set_ring(saved)

    def test_untraced_run_keeps_stats_bit_identical(self, graph):
        baseline = run_sssp(graph)
        again = run_sssp(graph)
        assert baseline.stats.to_dict() == again.stats.to_dict()

    def test_traced_run_does_not_perturb_outputs_or_counters(self, graph):
        untraced = run_sssp(graph)
        with obs.tracing():
            traced = run_sssp(graph)
        assert np.array_equal(
            untraced.vector("dist"), traced.vector("dist")
        )
        # A tracer introduces no divergence at all: it never touches stats.
        assert untraced.stats.to_dict() == traced.stats.to_dict()

    def test_differential_oracle_unaffected_by_prior_tracing(self, graph):
        """A tracing session must leave no residue: the differential
        contract (outputs against the scalar oracle, counters against the
        serial vectorized run) holds after tracing is deactivated."""
        with obs.tracing():
            run_sssp(graph, execution="parallel")
        oracle = run_sssp(graph, vectorize=False)
        serial = run_sssp(graph)
        parallel = run_sssp(graph, execution="parallel")
        assert np.array_equal(oracle.vector("dist"), parallel.vector("dist"))
        assert serial.stats.deterministic_dict() == parallel.stats.deterministic_dict()

    def test_harness_run_cell_drops_trace_artifact(self, tmp_path):
        from repro.eval.harness import run_cell

        path = tmp_path / "cell.json"
        cell = run_cell("graphit", "sssp", "MA", trials=1, trace_path=str(path))
        assert cell is not None
        assert obs.get_tracer() is None
        payload = obs.load_chrome_trace(str(path))
        assert payload["metadata"]["algorithm"] == "sssp"
        names = {e["name"] for e in payload["traceEvents"]}
        # The framework presets drive the library algorithms directly, so
        # the trace carries harness + bucket spans (no compiler spans).
        assert "cell.run" in names and "bucket.advance" in names
