"""The crash flight recorder: a bounded ``Tracer``, always on, dumped as a trace.

With no tracer opted in, the module-level ``obs.span``/``instant`` hooks
record into a bounded ring — the same ``Tracer`` class with a ``capacity``
— and an escaping CLI error dumps that ring (plus the exception, the run
context and a metrics snapshot) to ``.repro/last_run.json`` as a
Chrome-trace document that ``repro last-run`` pretty-prints and
``repro trace-diff`` / Perfetto read as-is.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.obs as obs
from repro.cli import main
from repro.obs import flight, tracer as tracer_module


@pytest.fixture()
def recorder(monkeypatch):
    """A fresh, small ring (and empty run context) for one test."""
    monkeypatch.setattr(flight, "_CONTEXT", {})
    fresh = obs.Tracer(capacity=16)
    saved = tracer_module.set_ring(fresh)
    yield fresh
    tracer_module.set_ring(saved)


@pytest.fixture()
def state_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path))
    return tmp_path


def recorded(tracer) -> list[dict]:
    return [e for e in tracer.events if e["ph"] != "M"]


def emit_sample_events() -> None:
    with obs.span("compile", "compiler", backend="python") as sp:
        sp["late"] = 7
    obs.instant("bucket.window_advance", "bucket", order=3)


class TestRing:
    def test_ring_is_bounded(self, recorder):
        for i in range(100):
            with obs.span("bucket.advance", "bucket", i=i):
                pass
        events = recorded(recorder)
        assert len(events) == 16  # capacity, not 100
        # The ring keeps the most recent spans.
        assert [e["args"]["i"] for e in events] == list(range(84, 100))

    def test_spans_recorded_with_tracing_off(self, recorder):
        assert obs.get_tracer() is None
        emit_sample_events()
        events = recorded(recorder)
        assert [e["ph"] for e in events] == ["X", "i"]
        assert events[0]["args"] == {"backend": "python", "late": 7}
        assert events[0]["dur"] >= 0

    def test_tracer_takes_precedence_over_recorder(self, recorder):
        with obs.tracing() as tracer:
            with obs.span("compile", "compiler"):
                pass
        assert any(e.get("name") == "compile" for e in tracer.events)
        assert recorded(recorder) == []  # traced spans don't hit the ring

    def test_escaping_exception_marked_and_not_swallowed(self, recorder):
        with pytest.raises(RuntimeError):
            with obs.span("bucket.reduce", "bucket"):
                raise RuntimeError("boom")
        (event,) = recorded(recorder)
        assert event["args"]["error"] == "RuntimeError"

    def test_args_coerced_to_json_safe(self, recorder, state_dir):
        """Coercion happens when the dump is written, not per span."""
        import numpy as np

        with obs.span("commit", "parallel", n=np.int64(3), path=object()):
            pass
        flight.dump_forensics(ValueError("x"))
        document = json.loads((state_dir / "last_run.json").read_text())
        (event,) = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["n"] == 3
        assert isinstance(event["args"]["path"], str)

    def test_note_run_context_attached(self, recorder, state_dir):
        flight.note_run(argv=["sssp", "g.el"], delta=4)
        flight.dump_forensics(ValueError("x"))
        document = json.loads((state_dir / "last_run.json").read_text())
        assert document["context"] == {"argv": ["sssp", "g.el"], "delta": 4}

    def test_ring_and_tracer_events_have_one_shape(self, recorder):
        """The same hook calls through ``obs.tracing()`` and through the
        ring yield events with identical keys that pass the schema."""
        emit_sample_events()
        with obs.tracing() as tracer:
            emit_sample_events()
        ring_events, traced_events = recorded(recorder), recorded(tracer)
        assert len(ring_events) == len(traced_events) == 2
        for ring_event, traced_event in zip(ring_events, traced_events):
            assert set(ring_event) == set(traced_event)
            assert ring_event["args"] == traced_event["args"]
            assert obs.validate_event(ring_event) == []
            assert obs.validate_event(traced_event) == []

    def test_untraced_span_hot_path_is_cheap(self, recorder, monkeypatch):
        """No thread-name lookup and no JSON coercion per span: both are
        paid when events are read / a dump is written."""

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the span hot path")

        monkeypatch.setattr(threading, "current_thread", forbidden)
        monkeypatch.setattr(flight, "_jsonable", forbidden)
        for i in range(1000):
            with obs.span("bucket.advance", "bucket", i=i) as sp:
                sp["frontier"] = i
        assert len(recorded(recorder)) == 16


class TestForensicsDump:
    def test_dump_writes_schema_document(self, recorder, state_dir):
        with obs.span("bucket.advance", "bucket"):
            pass
        flight.note_run(argv=["x"])
        path = flight.dump_forensics(ValueError("bad delta"), argv=["run", "x"])
        assert path == str(state_dir / "last_run.json")
        document = obs.load_chrome_trace(path)  # a dump is a valid trace
        assert document["schema"] == flight.FORENSICS_SCHEMA == 2
        assert document["error"]["type"] == "ValueError"
        assert document["error"]["message"] == "bad delta"
        assert "ValueError: bad delta" in document["error"]["traceback"]
        assert document["argv"] == ["run", "x"]
        assert document["context"] == {"argv": ["x"]}
        spans = [e["name"] for e in document["traceEvents"] if e["ph"] == "X"]
        assert spans == ["bucket.advance"]
        assert isinstance(document["metrics"], dict)
        assert isinstance(document["metadata"], dict)

    def test_dump_never_raises_on_bad_state_dir(self, recorder, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR", "/proc/definitely/not/writable")
        assert flight.dump_forensics(ValueError("x")) is None


class TestCLI:
    def test_failed_run_dumps_and_last_run_reads(
        self, recorder, state_dir, capsys
    ):
        # A built-in program with a graph file that does not exist: the
        # loader's exception escapes the handler, so main() dumps the
        # ring before re-raising.
        with pytest.raises(FileNotFoundError):
            main(["run", "sssp", "/nonexistent.el", "0"])
        err = capsys.readouterr().err
        assert "forensics written to" in err

        # A crash dump is a trace: it validates, still carries the
        # post-mortem sections, and the attribution tool reads it.
        dump = obs.last_run_path()
        document = obs.load_chrome_trace(dump)
        assert document["error"]["type"] == "FileNotFoundError"
        assert document["context"]["argv"][0] == "sssp"
        assert isinstance(document["metrics"], dict)

        assert main(["last-run"]) == 0
        out = capsys.readouterr().out
        assert "FileNotFoundError" in out
        assert "nonexistent.el" in out
        # The compile spans leading up to the failure are in the ring.
        assert "compiler:" in out

        assert main(["trace-diff", dump, dump]) == 0
        assert "compiler:" in capsys.readouterr().out

    def test_graphit_error_also_dumps(self, recorder, state_dir, capsys):
        assert main(["run", "definitely-not-a-program", "g.el"]) == 1
        captured = capsys.readouterr()
        assert "forensics written to" in captured.err
        document = json.loads((state_dir / "last_run.json").read_text())
        assert document["error"]["type"] == "GraphItError"

    def test_last_run_without_dump(self, state_dir, capsys):
        assert main(["last-run"]) == 1
        assert "no forensics dump" in capsys.readouterr().out

    def test_last_run_raw_is_valid_json(self, recorder, state_dir, capsys):
        flight.dump_forensics(ValueError("x"), argv=["y"])
        capsys.readouterr()
        assert main(["last-run", "--raw"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["error"]["type"] == "ValueError"
