"""Trace event schema (a subset of the Chrome Trace Event Format).

Every event the tracer emits is a plain dictionary that serializes directly
into the ``traceEvents`` array of a Chrome-trace JSON file, loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  The subset used
here:

============  =====================================================
``ph``        phase: ``"X"`` complete span, ``"i"`` instant,
              ``"M"`` metadata (thread names)
``name``      event name (``"bucket.advance"``, ``"lex"``, ...)
``cat``       category — one of :data:`CATEGORIES`; maps a span to
              the layer that emitted it
``ts``        start timestamp in microseconds from the trace origin
``dur``       duration in microseconds (complete spans only)
``pid``       process id (always the real pid; one process per trace)
``tid``       small stable integer per OS thread (0 = the thread the
              tracer was created on, workers count up from 1)
``args``      open dictionary of span payload (frontier sizes, bucket
              orders, pass names, ...)
============  =====================================================

The schema is enforced by :func:`validate_event` /
:func:`validate_chrome_trace` — pure-python structural validation, no
third-party JSON-schema dependency.  The test suite round-trips traces
through JSON and validates them; ``repro trace`` output is therefore
guaranteed loadable.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "CATEGORIES",
    "PHASES",
    "SPAN_NAMES",
    "METRIC_KINDS",
    "METRICS",
    "validate_event",
    "validate_chrome_trace",
    "assert_valid_chrome_trace",
]

# The layers of the stack that emit events (DESIGN.md section 9).
CATEGORIES = frozenset(
    {
        "compiler",  # frontend + midend passes + codegen
        "bucket",    # bucket-runtime structure events (advance, rebucket)
        "runtime",   # apply operators / rounds in runtime_support
        "parallel",  # parallel-engine produce/barrier/commit
        "native",    # native path: toolchain/codegen/compile/load/execute
        "incremental",  # mutation resume: seed/invalidate/recompute/resume
        "serve",     # query service: request handling, execution, mutation
        "harness",   # eval harness cells
        "cli",       # top-level command spans
        "meta",      # thread-name metadata
    }
)

# Event phases this tracer emits.
PHASES = frozenset({"X", "i", "M"})

# ---------------------------------------------------------------------------
# Name registries
# ---------------------------------------------------------------------------
# Every span/instant name a hook site may emit (into the active tracer or
# the always-on ring), mapped to the category it belongs to.  A name not in
# this table is a typo: ``tests/test_name_registry.py`` scans the source
# tree for literal hook-site names and fails on anything undeclared, so a
# misspelled span name breaks CI instead of silently fragmenting the profile.
SPAN_NAMES: dict[str, str] = {
    # compiler: frontend, midend passes, codegen, module loading
    "compile": "compiler",
    "lex": "compiler",
    "parse": "compiler",
    "typecheck": "compiler",
    "midend": "compiler",
    "midend.validate_ir": "compiler",
    "midend.facts": "compiler",
    "midend.resolve_schedule": "compiler",
    "midend.histogram_transform": "compiler",
    "codegen.python": "compiler",
    "codegen.cpp": "compiler",
    "load_module": "compiler",
    # runtime: program entry and the apply operators
    "program.run": "runtime",
    "apply.push": "runtime",
    "apply.pull": "runtime",
    "apply.edges": "runtime",
    "apply.histogram": "runtime",
    "ordered_process_eager": "runtime",
    "eager.round": "runtime",
    "eager.fused_run": "runtime",
    # bucket: queue-structure events
    "bucket.advance": "bucket",
    "bucket.reduce": "bucket",
    "bucket.rebucket_overflow": "bucket",
    "bucket.dequeue_chunk": "bucket",
    "bucket.window_advance": "bucket",
    # parallel: produce/barrier/commit round protocol
    "worker.produce": "parallel",
    "barrier.wait": "parallel",
    "commit": "parallel",
    "commit.replay": "parallel",
    # native: toolchain probe, codegen, build/cache, ctypes dispatch
    "native.toolchain": "native",
    "native.codegen": "native",
    "native.compile": "native",
    "native.load": "native",
    "native.dispatch": "native",
    "native.execute": "native",
    # incremental: mutation resume pipeline
    "incremental.classify": "incremental",
    "incremental.invalidate": "incremental",
    "incremental.recompute": "incremental",
    "incremental.resume": "incremental",
    "incremental.kcore": "incremental",
    # serve: the query service's request -> execute -> respond pipeline
    "serve.request": "serve",
    "serve.execute": "serve",
    "serve.mutate": "serve",
    # harness / meta
    "cell.run": "harness",
    "thread_name": "meta",
}

# Metric kinds the registry implements (obs/metrics.py).
METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})

# Every metric the always-on registry may carry.  ``wallclock: True`` marks
# metrics derived from clock reads — inherently nondeterministic, excluded
# from ``deterministic_snapshot`` (mirroring WALL_CLOCK_FIELDS on
# RuntimeStats).  The registry constructor refuses undeclared names, so a
# typo at a hook site raises immediately instead of minting a ghost series.
METRICS: dict[str, dict] = {
    # bucket runtimes
    "bucket.dequeues": {"kind": "counter", "cat": "bucket"},
    "bucket.frontier_size": {"kind": "histogram", "cat": "bucket"},
    "bucket.occupancy": {"kind": "histogram", "cat": "bucket"},
    "bucket.rebucket_overflows": {"kind": "counter", "cat": "bucket"},
    "bucket.reduce_batches": {"kind": "counter", "cat": "bucket"},
    "bucket.window_advances": {"kind": "counter", "cat": "bucket"},
    "bucket.delta": {"kind": "gauge", "cat": "bucket"},
    # apply operators
    "apply.calls": {"kind": "counter", "cat": "runtime"},
    "apply.vectorized_calls": {"kind": "counter", "cat": "runtime"},
    "apply.scalar_calls": {"kind": "counter", "cat": "runtime"},
    "apply.frontier_size": {"kind": "histogram", "cat": "runtime"},
    "runs.completed": {"kind": "counter", "cat": "runtime"},
    "runs.failed": {"kind": "counter", "cat": "runtime"},
    # parallel engine
    "parallel.rounds": {"kind": "counter", "cat": "parallel"},
    "parallel.chunk_size": {"kind": "histogram", "cat": "parallel"},
    "parallel.workers": {"kind": "gauge", "cat": "parallel"},
    "parallel.shard_merges": {"kind": "counter", "cat": "parallel"},
    "parallel.barrier_wait_us": {
        "kind": "histogram", "cat": "parallel", "wallclock": True,
    },
    # native path
    "native.toolchain_probes": {"kind": "counter", "cat": "native"},
    "native.cache_hits": {"kind": "counter", "cat": "native"},
    "native.cache_misses": {"kind": "counter", "cat": "native"},
    "native.builds": {"kind": "counter", "cat": "native"},
    "native.executions": {"kind": "counter", "cat": "native"},
    "native.compile_us": {
        "kind": "histogram", "cat": "native", "wallclock": True,
    },
    "native.execute_us": {
        "kind": "histogram", "cat": "native", "wallclock": True,
    },
    # incremental engine
    "incremental.batches": {"kind": "counter", "cat": "incremental"},
    "incremental.seeds": {"kind": "histogram", "cat": "incremental"},
    "incremental.invalidated": {"kind": "histogram", "cat": "incremental"},
    "incremental.kcore_fixpoints": {"kind": "counter", "cat": "incremental"},
    # query service (repro serve)
    "serve.requests": {"kind": "counter", "cat": "serve"},
    "serve.cache_hits": {"kind": "counter", "cat": "serve"},
    "serve.cache_misses": {"kind": "counter", "cat": "serve"},
    "serve.coalesced": {"kind": "counter", "cat": "serve"},
    "serve.rejected": {"kind": "counter", "cat": "serve"},
    "serve.errors": {"kind": "counter", "cat": "serve"},
    "serve.mutations": {"kind": "counter", "cat": "serve"},
    "serve.resumes": {"kind": "counter", "cat": "serve"},
    "serve.sessions_dropped": {"kind": "counter", "cat": "serve"},
    "serve.queue_depth": {"kind": "gauge", "cat": "serve"},
    "serve.latency_us": {
        "kind": "histogram", "cat": "serve", "wallclock": True,
    },
}

_REQUIRED = ("name", "cat", "ph", "ts", "pid", "tid")


def validate_event(event: Any) -> list[str]:
    """Structural problems with one trace event (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(event, dict):
        return [f"event is not an object: {event!r}"]
    for key in _REQUIRED:
        if key not in event:
            problems.append(f"missing required key {key!r}")
    if problems:
        return problems
    if not isinstance(event["name"], str) or not event["name"]:
        problems.append("name must be a non-empty string")
    if event["cat"] not in CATEGORIES:
        problems.append(
            f"unknown category {event['cat']!r} (expected one of "
            f"{sorted(CATEGORIES)})"
        )
    if event["ph"] not in PHASES:
        problems.append(f"unknown phase {event['ph']!r}")
    if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
        problems.append("ts must be a non-negative number (microseconds)")
    if not isinstance(event["pid"], int):
        problems.append("pid must be an integer")
    if not isinstance(event["tid"], int) or event["tid"] < 0:
        problems.append("tid must be a non-negative integer")
    if event["ph"] == "X":
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append("complete (ph=X) events need a non-negative dur")
    if "args" in event and not isinstance(event["args"], dict):
        problems.append("args must be an object")
    return problems


def validate_chrome_trace(payload: Any) -> list[str]:
    """Structural problems with a whole Chrome-trace document."""
    if not isinstance(payload, dict):
        return [f"trace is not an object: {type(payload).__name__}"]
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        for problem in validate_event(event):
            problems.append(f"traceEvents[{index}]: {problem}")
    metadata = payload.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        problems.append("metadata must be an object")
    return problems


def assert_valid_chrome_trace(payload: Any) -> None:
    """Raise ``ValueError`` listing every schema violation (if any)."""
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError(
            "invalid Chrome trace: " + "; ".join(problems[:20])
            + (f" (+{len(problems) - 20} more)" if len(problems) > 20 else "")
        )
