"""Perf-regression attribution: phase profiles and ``repro trace-diff``.

The contract: injecting a slowdown into one phase of an otherwise
identical run must put that phase at the top of the diff, with the delta
it caused — that is what makes a ``bench/run.py`` regression explainable
from the span files it already wrote.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    format_trace_diff,
    load_profile_document,
    phase_profile,
    trace_diff,
)

US = 1.0  # events below are already in microseconds


def span(name, cat, ts, dur, tid=1):
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": ts * US,
        "dur": dur * US,
        "pid": 1,
        "tid": tid,
        "args": {},
    }


def synthetic_events(reduce_us=200):
    """A run shape: program.run wrapping two advances and a reduce."""
    total = 100 + 300 + reduce_us + 300
    return [
        span("program.run", "runtime", 0, total),
        span("bucket.advance", "bucket", 100, 300),
        span("bucket.reduce", "bucket", 400, reduce_us),
        span("bucket.advance", "bucket", 400 + reduce_us, 300),
    ]


def span_document(reduce_us=200):
    """The same run shape as ``bench/common.SpanLog.write`` records it."""
    total = 100 + 300 + reduce_us + 300
    shape = [  # (layer, name, parent, start, duration, self)
        ("runtime", "program.run", -1, 0, total, 100),
        ("buckets", "bucket.advance", 0, 100, 300, 300),
        ("buckets", "bucket.reduce", 0, 400, reduce_us, reduce_us),
        ("buckets", "bucket.advance", 0, 400 + reduce_us, 300, 300),
    ]
    spans = [
        {
            "id": index,
            "parent": parent,
            "query": None,
            "layer": layer,
            "name": name,
            "start_us": float(start),
            "end_us": float(start + duration),
            "self_us": float(self_us),
        }
        for index, (layer, name, parent, start, duration, self_us) in enumerate(shape)
    ]
    by_layer = {"runtime": 100.0, "buckets": 600.0 + reduce_us}
    return {"schema": 1, "self_us_by_layer": by_layer, "spans": spans}


class TestPhaseProfile:
    def test_profile_shape_and_self_time(self):
        doc = phase_profile(synthetic_events())
        assert doc["schema"] == 1
        by_name = {p["name"]: p for p in doc["phases"]}
        assert by_name["bucket.advance"]["count"] == 2
        assert by_name["bucket.advance"]["self_us"] == 600
        assert by_name["bucket.reduce"]["self_us"] == 200
        # program.run's self time excludes its nested children.
        assert by_name["program.run"]["self_us"] == 100
        assert doc["wall_us"] == 900

    def test_load_accepts_all_three_shapes(self, tmp_path):
        chrome = {
            "traceEvents": synthetic_events(),
            "displayTimeUnit": "ms",
            "metadata": {},
        }
        profile = phase_profile(synthetic_events())
        for payload in (chrome, profile, span_document()):
            doc = load_profile_document(payload)
            assert doc["wall_us"] == 900
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome))
        assert load_profile_document(str(path))["wall_us"] == 900

    def test_span_document_maps_layer_to_category(self):
        doc = load_profile_document(span_document())
        by_key = {(p["cat"], p["name"]): p for p in doc["phases"]}
        advance = by_key[("buckets", "bucket.advance")]
        assert (advance["count"], advance["self_us"]) == (2, 600)
        run = by_key[("runtime", "program.run")]
        assert (run["total_us"], run["self_us"]) == (900, 100)

    def test_load_rejects_unknown_documents(self):
        with pytest.raises(ValueError, match="not a trace, profile, or span"):
            load_profile_document({"something": "else"})
        # The shape the deleted in-CLI harnesses embedded is gone with them.
        with pytest.raises(ValueError, match="not a trace, profile, or span"):
            load_profile_document({"phase_profile": phase_profile([])})


class TestTraceDiff:
    def test_injected_slowdown_attributed_to_its_phase(self):
        baseline = synthetic_events(reduce_us=200)
        slowed = synthetic_events(reduce_us=900)  # +700us in bucket.reduce
        diff = trace_diff(
            phase_profile(baseline), phase_profile(slowed)
        )
        top = diff["rows"][0]
        assert (top["cat"], top["name"]) == ("bucket", "bucket.reduce")
        assert top["delta_us"] == 700
        assert diff["wall_us"]["delta"] == 700
        # Other phases did not move.
        for row in diff["rows"][1:]:
            assert row["delta_us"] == 0

    def test_span_documents_attribute_slowdown_to_its_layer(self):
        diff = trace_diff(span_document(200), span_document(900))
        top = diff["rows"][0]
        assert (top["cat"], top["name"]) == ("buckets", "bucket.reduce")
        assert top["delta_us"] == 700
        assert diff["wall_us"]["delta"] == 700
        assert sum(r["delta_us"] for r in diff["rows"]) == 700

    def test_deltas_sum_to_wall_delta(self):
        diff = trace_diff(
            phase_profile(synthetic_events(200)),
            phase_profile(synthetic_events(650)),
        )
        assert sum(r["delta_us"] for r in diff["rows"]) == pytest.approx(
            diff["wall_us"]["delta"]
        )
        assert sum(r["delta_pct_of_wall"] for r in diff["rows"]) == pytest.approx(
            100.0 * diff["wall_us"]["delta"] / diff["wall_us"]["baseline"]
        )

    def test_phase_present_only_on_one_side(self):
        base = phase_profile(synthetic_events())
        fresh = phase_profile(
            synthetic_events() + [span("native.compile", "native", 900, 5000)]
        )
        diff = trace_diff(base, fresh)
        top = diff["rows"][0]
        assert top["name"] == "native.compile"
        assert top["baseline_self_us"] == 0
        assert top["delta_us"] == 5000

    def test_format_mentions_top_phase_and_wall(self):
        diff = trace_diff(
            phase_profile(synthetic_events(200)),
            phase_profile(synthetic_events(900)),
        )
        text = format_trace_diff(diff, top=2)
        assert "wall time:" in text
        assert "bucket:bucket.reduce" in text
        assert "more phases" in text  # truncation is announced


class TestCLI:
    def test_trace_diff_text_and_json(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(phase_profile(synthetic_events(200))))
        b.write_text(json.dumps(phase_profile(synthetic_events(800))))
        assert main(["trace-diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "bucket:bucket.reduce" in out.splitlines()[3]  # top row

        assert main(["trace-diff", str(a), str(b), "--format", "json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["rows"][0]["name"] == "bucket.reduce"
        assert diff["rows"][0]["delta_us"] == 600

    def test_trace_diff_on_real_traces(self, tmp_path, capsys):
        trace_a = tmp_path / "a.json"
        trace_b = tmp_path / "b.json"
        for path in (trace_a, trace_b):
            assert (
                main(["trace", "sssp", "--delta", "3", "--out", str(path)])
                == 0
            )
        capsys.readouterr()
        assert main(["trace-diff", str(trace_a), str(trace_b)]) == 0
        out = capsys.readouterr().out
        assert "wall time:" in out

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["trace-diff", str(missing), str(missing)]) == 1
        assert "trace-diff" in capsys.readouterr().err
