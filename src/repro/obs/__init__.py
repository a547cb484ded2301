"""Observability: end-to-end tracing and profiling for the whole stack.

The subsystem threads **zero-overhead-when-off** trace hooks through every
layer — compiler phases (lex/parse/typecheck/midend passes/codegen), the
bucket runtimes (advance, rebucket, window moves), the apply operators, and
the parallel engine (per-worker produce spans, barrier waits, commit
replay) — and exports Chrome-trace JSON plus a self-profile table.

The paper's evaluation attributes cost to schedule decisions (rounds,
synchronizations, bucket traffic); this package makes that attribution
observable on a timeline instead of only in aggregate counters.

Entry points:

- ``repro trace <prog> --out trace.json`` — run under the tracer, write a
  Perfetto-loadable trace;
- ``repro profile <prog>`` — same run, print the hot-phase table;
- ``repro metrics <prog>`` — run once and print the always-on metrics
  registry (JSON or Prometheus text exposition);
- ``repro last-run`` — inspect the crash flight recorder's forensics dump;
- ``repro trace-diff A B`` — attribute a wall-time delta between two runs
  to compiler/runtime phases;
- :func:`tracing` / :func:`span` — the library API the hook sites use;
- :mod:`repro.obs.metrics` — always-on counters/gauges/histograms with
  per-worker shards merged deterministically at round barriers;
- :mod:`repro.obs.flight` — the bounded flight recorder behind the
  forensics dump;
- :mod:`repro.obs.events` — the event schema, the span/metric name
  registry, and their validators.

Tracing never mutates algorithm state: a traced run computes bit-identical
results and deterministic statistics to an untraced run (asserted by
``tests/test_tracing.py``).
"""

from . import metrics
from .diff import (
    format_trace_diff,
    load_profile_document,
    phase_profile,
    trace_diff,
)
from .events import (
    CATEGORIES,
    METRICS,
    PHASES,
    SPAN_NAMES,
    assert_valid_chrome_trace,
    validate_chrome_trace,
    validate_event,
)
from .exporters import (
    ProfileRow,
    chrome_trace,
    format_profile,
    load_chrome_trace,
    self_profile,
    write_chrome_trace,
)
from .flight import (
    FlightRecorder,
    dump_forensics,
    flight_enabled,
    get_recorder,
    last_run_path,
    note_run,
    set_recorder,
)
from .metrics import (
    MetricsRegistry,
    deterministic_snapshot,
    escape_label_value,
    merge_shards,
    prometheus_text,
    reset_metrics,
    snapshot,
)
from .workload import workload_profile, write_workload_profile
from .tracer import (
    Tracer,
    activate,
    counter,
    deactivate,
    get_tracer,
    instant,
    span,
    stat_span,
    tracing,
)

__all__ = [
    "Tracer",
    "tracing",
    "activate",
    "deactivate",
    "get_tracer",
    "span",
    "stat_span",
    "instant",
    "counter",
    "CATEGORIES",
    "PHASES",
    "SPAN_NAMES",
    "METRICS",
    "validate_event",
    "validate_chrome_trace",
    "assert_valid_chrome_trace",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "ProfileRow",
    "self_profile",
    "format_profile",
    "metrics",
    "MetricsRegistry",
    "merge_shards",
    "reset_metrics",
    "snapshot",
    "deterministic_snapshot",
    "prometheus_text",
    "escape_label_value",
    "FlightRecorder",
    "get_recorder",
    "set_recorder",
    "flight_enabled",
    "note_run",
    "dump_forensics",
    "last_run_path",
    "workload_profile",
    "write_workload_profile",
    "phase_profile",
    "load_profile_document",
    "trace_diff",
    "format_trace_diff",
]
