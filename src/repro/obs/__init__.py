"""Observability: three mechanisms, and pure views over them.

1. **Per-run counters** — :class:`~repro.runtime.stats.RuntimeStats`, the
   paper's Table 6/7 quantities (rounds, syncs, bucket inserts, ...),
   plain ints on the hot path.
2. **The process-wide metrics registry** — :mod:`repro.obs.metrics`:
   declared counters / gauges / log2 histograms with per-thread shards
   merged deterministically at round barriers.
3. **One tracer** — :mod:`repro.obs.tracer`: every layer's hook sites
   (compiler phases, bucket runtimes, apply operators, the parallel
   engine, native, incremental, serve) call :func:`span` /
   :func:`instant`, which record Chrome-trace events into the active
   :class:`Tracer` when one was opted in (:func:`tracing`) and into a
   bounded always-on ring otherwise.  A crash dump
   (:mod:`repro.obs.flight`) is that ring written as a Chrome trace.

Views: :func:`self_profile` (hot-phase table), :func:`phase_profile` /
:func:`trace_diff` (attribute a wall-time delta to phases),
:func:`workload_profile` (the paper's crossover axes from one run's
stats).  :mod:`repro.obs.events` holds the event schema and the span /
metric name registry with their validators.

CLI entry points: ``repro trace``, ``repro profile``, ``repro metrics``,
``repro last-run``, ``repro trace-diff``.

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
from .flight import dump_forensics, last_run_path, note_run
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
    deactivate,
    get_tracer,
    instant,
    span,
    tracing,
)

__all__ = [
    "Tracer",
    "tracing",
    "activate",
    "deactivate",
    "get_tracer",
    "span",
    "instant",
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
