"""Crash forensics: write the always-on ring as a Chrome trace on failure.

When something blows up in production no tracer was opted in.  The span
hooks cover that gap themselves — with no active tracer they record into
the bounded ring (:func:`repro.obs.tracer.get_ring`, the last
``RING_CAPACITY`` events, O(1) memory however long the process runs).
This module is what remains of the "flight recorder": the run context
noted so far (:func:`note_run`), where dumps land (:func:`state_dir` /
:func:`last_run_path`), and :func:`dump_forensics`, which the CLI and the
query service call on an escaping error.

The dump is a **Chrome-trace document** — ``traceEvents`` + ``metadata``,
the shape ``repro trace`` writes — extended with ``schema``,
``written_at``, ``argv``, ``error`` (type, message, traceback),
``context`` and a ``metrics`` snapshot.  So ``.repro/last_run.json`` (or
``$REPRO_STATE_DIR/last_run.json``) opens in Perfetto, passes
:func:`~repro.obs.exporters.load_chrome_trace`, feeds ``repro trace-diff``
as-is, and ``repro last-run`` pretty-prints it — the post-mortem you read
after the crash, not the trace you forgot to enable before it.
"""

from __future__ import annotations

import json
import os
import time
import traceback as traceback_module
from typing import Any

from . import metrics
from .tracer import get_ring

__all__ = [
    "FORENSICS_SCHEMA",
    "state_dir",
    "last_run_path",
    "dump_forensics",
    "note_run",
]

#: Bumped when the forensics document shape changes (2: a Chrome trace).
FORENSICS_SCHEMA = 2

# Run context (program, graph, schedule) attached to the next dump.
_CONTEXT: dict = {}


def _jsonable(value: Any):
    """Best-effort JSON coercion for span args (numpy ints, paths, ...).

    Runs when a dump is written, never on the span hot path."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    try:
        return int(value)  # numpy integer scalars
    except (TypeError, ValueError):
        return repr(value)


def note_run(**context: Any) -> None:
    """Attach run context (argv, schedule knobs) to future dumps."""
    _CONTEXT.update(context)


def state_dir() -> str:
    """Where run state lands: ``$REPRO_STATE_DIR`` or ``.repro/``."""
    return os.environ.get("REPRO_STATE_DIR") or ".repro"


def last_run_path() -> str:
    return os.path.join(state_dir(), "last_run.json")


def dump_forensics(
    error: BaseException, argv: list[str] | None = None
) -> str | None:
    """Write the forensics document for ``error``; returns its path.

    Never raises: a failing dump must not mask the original error, so
    filesystem problems are swallowed (the result is then None).
    """
    ring = get_ring()
    document = {
        "schema": FORENSICS_SCHEMA,
        "written_at": time.time(),
        "argv": list(argv) if argv is not None else None,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": "".join(
                traceback_module.format_exception(
                    type(error), error, error.__traceback__
                )
            ),
        },
        # Copied first: another thread may note_run() while this one dumps.
        "context": _jsonable(dict(_CONTEXT)),
        "metrics": metrics.snapshot(),
        "traceEvents": _jsonable(ring.events),
        "displayTimeUnit": "ms",
        "metadata": {"kind": "crash-forensics", "ring_capacity": ring.capacity},
    }
    path = last_run_path()
    try:
        os.makedirs(state_dir(), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError:
        return None
    return path
