"""The tracer: one span implementation, unbounded when opted in, a ring otherwise.

A :class:`Tracer` collects Chrome-trace events into a sink — a ``list``
for an opted-in tracing session (``obs.tracing()``, ``repro trace``), a
``deque(maxlen=capacity)`` for the process-wide always-on ring that the
crash dump (:mod:`repro.obs.flight`) is written from.  Both are the same
class recording the same event shape, so a crash dump *is* a trace.

Every hook site calls the module-level :func:`span` / :func:`instant`,
which route to the active tracer if there is one and to the ring
otherwise — there is no "off".  The cost of that is one clock pair and one
dict append per span (no lock, no JSON coercion, no thread-name lookup:
``list.append`` / ``deque.append`` are atomic under the GIL, args are
coerced when a dump is written, and thread names live in the tid table
and are emitted when :attr:`Tracer.events` is read).

The tracer only ever appends to its own sink.  It never reads or writes
algorithm state, so a traced run computes exactly what an untraced run
computes (asserted by ``tests/test_tracing.py``).

Usage::

    from repro import obs

    with obs.tracing() as tracer:
        program = compile_program(source, schedule)   # compiler spans
        result = program.run(argv, graph=g)           # runtime spans
    obs.write_chrome_trace("trace.json", tracer)

Hook sites look like::

    with obs.span("bucket.advance", "bucket", strategy="lazy") as sp:
        ...
        sp["order"] = order        # late args, recorded at span end
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Tracer",
    "RING_CAPACITY",
    "span",
    "instant",
    "get_tracer",
    "activate",
    "deactivate",
    "tracing",
    "get_ring",
    "set_ring",
]

#: Events the always-on ring keeps (the most recent ones).
RING_CAPACITY = 512


class _Span:
    """Context manager recording one complete (ph=X) event on exit.

    ``__enter__`` yields the args dict so hook sites can add late args
    (``sp["frontier"] = ...``); an exception escaping the body is recorded
    as ``args["error"]`` (its type name) and never swallowed.
    """

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> dict:
        self._start = self._tracer._clock()
        return self._args

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        if exc_type is not None:
            self._args["error"] = exc_type.__name__
        event = tracer._event("X", self._name, self._cat, self._start, self._args)
        event["dur"] = (end - self._start) * 1e6
        tracer._sink.append(event)
        return False


class Tracer:
    """Collects trace events: all of them, or the last ``capacity``.

    Timestamps are microseconds relative to the tracer's construction
    (``time.perf_counter`` based by default; inject ``clock`` for
    deterministic tests).  OS threads are mapped to small stable ``tid``
    integers in first-seen order — 0 is the constructing thread — and
    :attr:`events` leads with one ``thread_name`` metadata event per
    thread so Perfetto shows readable track names.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int | None = None,
    ):
        self._clock = clock or time.perf_counter
        self._origin = self._clock()
        self.capacity = capacity
        self._sink: list[dict] | deque[dict] = (
            [] if capacity is None else deque(maxlen=capacity)
        )
        # thread ident -> (tid, thread name at first sight)
        self._tids: dict[int, tuple[int, str]] = {}
        self._tid_lock = threading.Lock()
        self.pid = os.getpid()
        self._tid()

    def _tid(self) -> int:
        ident = threading.get_ident()
        entry = self._tids.get(ident)
        if entry is None:
            # First event from this thread: the only locked path.
            with self._tid_lock:
                entry = self._tids[ident] = (
                    len(self._tids),
                    threading.current_thread().name,
                )
        return entry[0]

    def _event(self, ph: str, name: str, cat: str, at: float, args: dict) -> dict:
        return {
            "name": name,
            "cat": cat,
            "ph": ph,
            "ts": (at - self._origin) * 1e6,
            "pid": self.pid,
            "tid": self._tid(),
            "args": args,
        }

    def span(self, name: str, cat: str, **args: Any) -> _Span:
        """A complete (ph=X) span around the ``with`` body."""
        return _Span(self, name, cat, args)

    def instant(self, name: str, cat: str, **args: Any) -> None:
        """A point-in-time (ph=i) event."""
        self._sink.append(self._event("i", name, cat, self._clock(), args))

    @property
    def events(self) -> list[dict]:
        """Snapshot: thread-name metadata, then the recorded events."""
        names = [
            {
                "name": "thread_name",
                "cat": "meta",
                "ph": "M",
                "ts": 0,
                "pid": self.pid,
                "tid": tid,
                "args": {"name": name},
            }
            for tid, name in sorted(self._tids.values())
        ]
        return names + list(self._sink)


# ---------------------------------------------------------------------------
# Module-level routing: the active tracer, else the always-on ring
# ---------------------------------------------------------------------------

_RING = Tracer(capacity=RING_CAPACITY)
_ACTIVE: Tracer | None = None
_ACTIVATION_LOCK = threading.Lock()


def get_tracer() -> Tracer | None:
    """The active (opted-in) tracer, or None when only the ring records."""
    return _ACTIVE


def get_ring() -> Tracer:
    """The always-on bounded tracer crash dumps are written from."""
    return _RING


def set_ring(ring: Tracer) -> Tracer:
    """Install ``ring`` as the always-on tracer; returns the previous one.

    A test seam: a test installs a fresh small ``Tracer(capacity=16)`` to
    observe exactly what untraced hook sites record.
    """
    global _RING
    old, _RING = _RING, ring
    return old


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    with _ACTIVATION_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already active; deactivate it first")
        _ACTIVE = tracer
    return tracer


def deactivate() -> None:
    """Remove the active tracer (idempotent)."""
    global _ACTIVE
    with _ACTIVATION_LOCK:
        _ACTIVE = None


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Activate a tracer for the duration of the ``with`` body."""
    tracer = activate(tracer or Tracer())
    try:
        yield tracer
    finally:
        deactivate()


def span(name: str, cat: str, **args: Any) -> _Span:
    """Module-level span hook: the active tracer, else the ring."""
    return (_ACTIVE or _RING).span(name, cat, **args)


def instant(name: str, cat: str, **args: Any) -> None:
    """Module-level instant-event hook: the active tracer, else the ring."""
    (_ACTIVE or _RING).instant(name, cat, **args)
