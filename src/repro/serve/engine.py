"""The serving engine: admission control, coalescing, cache, mutation.

:class:`ServeEngine` owns one mutable CSR graph and answers point queries
against it concurrently.  All coordination state (the in-flight table, the
admission counter, the result cache) lives on the event-loop thread; only
the traversal itself — a compiled-program run or an incremental-session
resume — is shipped to a worker thread, under a reader/writer lock that
keeps traversals and graph mutations strictly serialized against each other
(``/query`` takes the read side, ``/mutate`` the write side; the writer is
preferred so a mutation cannot starve behind a query stream).

The request path, in order:

1. **Cache**: a converged traversal for the same ``(epoch, program, source,
   target, schedule)`` answers immediately — no admission charge.
2. **Coalesce**: a traversal for the same key already in flight is joined,
   not repeated — concurrent identical queries cost one traversal.
3. **Admit**: past the bounded pending budget the query is rejected with
   :class:`Backpressure` (the server turns that into ``429 Retry-After``).
   An admitted query is never dropped — it holds its slot until it
   completes or fails.
4. **Execute**: under the read lock, on a worker thread.  A query that
   does not pin ``execution`` computes on the native kernel with one
   thread (see :func:`_base_schedule`); a new session takes the kernel's
   vector as its resume state, and every resume after a ``/mutate`` runs
   the interpreter.  Without a compiler the miss falls back to the
   interpreter (``N101``, once per program), and the answer says so:
   :attr:`~repro.serve.cache.CacheEntry.execution` names what computed it.

Mutations (``POST /mutate``) take the write lock and are all-or-nothing.
The whole script is applied to a share of the served graph first
(:meth:`~repro.graph.csr.CSRGraph.share`: read-only views of its arrays
under an overlay of its own), so a batch that fails leaves graph, epoch,
cache and sessions as they were.  Then the share (compacted, and its
in-edge index built, while no reader can observe it) replaces the served
graph, the epoch bumps (invalidating the whole cache), and every live
incremental session resumes on its own graph.  A session's graph is a
share of the graph served when the session started: it shares the arrays
and the in-edge index of that epoch, and applies each batch to its own
overlay, so no batch is applied twice and no session copies the CSR.  A
session whose resume fails is dropped rather than left half-applied; the
others repopulate the cache at the new epoch.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from contextlib import asynccontextmanager
from dataclasses import dataclass, replace

import numpy as np

from ..backend.program import cached_program
from ..errors import GraphError, SchedulingError
from ..graph.csr import CSRGraph
from ..graph.mutations import apply_mutations, parse_mutation_script
from ..incremental import IncrementalSession
from ..lang.programs import ALL_PROGRAMS
from ..midend.schedule import Schedule
from ..obs import dump_forensics, metrics, span
from .cache import CacheEntry, ResultCache

__all__ = [
    "Backpressure",
    "QuerySpec",
    "SERVABLE_PROGRAMS",
    "ServeEngine",
]

#: Programs the service can run: every built-in without extern functions.
#: ``astar`` and ``setcover`` need caller-supplied externs, so they are
#: compile-time features, not servable queries.
SERVABLE_PROGRAMS = {
    "sssp": "dist",
    "wbfs": "dist",
    "ppsp": "dist",
    "widest": "width",
    "bellman_ford": "dist",
    "kcore": "D",
}

#: Servable programs that can keep an incremental session alive for resume
#: after mutations (the I001-eligible extremal fixpoints; k-core resume
#: needs a symmetric graph, which the service does not require, so it runs
#: on the compiled path).
_SESSION_ALGORITHMS = {"sssp": "sssp", "wbfs": "wbfs", "widest": "widest_path"}

#: Schedule knobs a query may set.  Everything else on :class:`Schedule`
#: (sanitize, incremental) is an offline tool, not a per-query decision.
_SCHEDULE_KNOBS = frozenset(
    {
        "priority_update",
        "delta",
        "bucket_fusion_threshold",
        "num_buckets",
        "direction",
        "parallelization",
        "num_threads",
        "chunk_size",
        "execution",
    }
)
_INT_KNOBS = frozenset(
    {"delta", "bucket_fusion_threshold", "num_buckets", "num_threads", "chunk_size"}
)


class Backpressure(Exception):
    """Admission queue full; the client should retry after ``retry_after``."""

    def __init__(self, pending: int, limit: int, retry_after: int = 1):
        super().__init__(
            f"admission queue full ({pending} pending >= limit {limit})"
        )
        self.pending = pending
        self.limit = limit
        self.retry_after = retry_after


@dataclass(frozen=True)
class QuerySpec:
    """One validated point query: program, source/target, schedule."""

    program: str
    source: int | None
    target: int | None
    schedule_key: tuple
    schedule: Schedule

    @property
    def vector(self) -> str:
        """Name of the output vector the program publishes."""
        return SERVABLE_PROGRAMS[self.program]

    @classmethod
    def from_params(cls, params: dict) -> "QuerySpec":
        """Build a spec from decoded request parameters.

        Raises :class:`~repro.errors.GraphError` on anything malformed —
        the server maps that to a 400, never a traversal.
        """
        program = params.get("program")
        if not isinstance(program, str) or program not in SERVABLE_PROGRAMS:
            raise GraphError(
                f"unknown or unservable program {program!r}; servable: "
                f"{', '.join(sorted(SERVABLE_PROGRAMS))}"
            )

        source = _int_param(params, "source")
        target = _int_param(params, "target")
        if program == "kcore":
            if source is not None:
                raise GraphError("kcore is a whole-graph query; drop 'source'")
        elif source is None:
            raise GraphError(f"{program} requires a 'source' vertex")
        if program == "ppsp":
            if target is None:
                raise GraphError("ppsp requires a 'target' vertex")
        elif target is not None:
            raise GraphError(f"{program} does not take a 'target' (only ppsp)")

        raw_schedule = params.get("schedule") or {}
        if isinstance(raw_schedule, str):
            raw_schedule = _parse_schedule_text(raw_schedule)
        if not isinstance(raw_schedule, dict):
            raise GraphError("'schedule' must be an object of knob settings")
        knobs: dict[str, object] = {}
        for name, value in raw_schedule.items():
            if name not in _SCHEDULE_KNOBS:
                raise GraphError(
                    f"unknown schedule knob {name!r}; settable: "
                    f"{', '.join(sorted(_SCHEDULE_KNOBS))}"
                )
            if name in _INT_KNOBS:
                try:
                    value = int(value)
                except (TypeError, ValueError):
                    raise GraphError(f"schedule knob {name!r} must be an integer")
            elif not isinstance(value, str):
                raise GraphError(f"schedule knob {name!r} must be a string")
            knobs[name] = value
        try:
            schedule = _base_schedule(knobs)
        except (TypeError, ValueError) as error:
            raise GraphError(f"bad schedule: {error}")
        schedule_key = tuple(sorted(knobs.items()))
        return cls(
            program=program,
            source=source,
            target=target,
            schedule_key=schedule_key,
            schedule=schedule,
        )


#: The base of a query that does not pin ``execution``: the native kernel
#: with one thread (requests already run in parallel across the workers).
_NATIVE_BASE = Schedule(execution="native", num_threads=1)


def _base_schedule(knobs: dict) -> Schedule:
    """The query's schedule: ``knobs`` over the native base, or over the
    interpreter's default when they pin ``execution`` or ask for what only
    the interpreter lowers (the relaxed strategy)."""
    if "execution" not in knobs:
        schedule = replace(_NATIVE_BASE, **knobs)
        if not schedule.is_relaxed:
            return schedule
    return replace(Schedule(), **knobs)


def _int_param(params: dict, name: str) -> int | None:
    value = params.get(name)
    if value is None or value == "":
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise GraphError(f"{name!r} must be an integer vertex id, got {value!r}")


def _parse_schedule_text(text: str) -> dict:
    """``delta=4,priority_update=lazy`` → knob dict (query-string form)."""
    knobs: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise GraphError(f"bad schedule setting {part!r}; expected knob=value")
        knobs[name.strip()] = value.strip()
    return knobs


def _rounds(stats, execution: str) -> dict:
    """The response's stats: the interpreter's round count, or nothing for
    a native run (its kernel keeps no counters)."""
    return {} if execution == "native" else {"rounds": stats.rounds}


class _RWLock:
    """Async reader/writer lock with writer preference.

    Queries hold the read side across their executor hop; mutations hold
    the write side.  New readers queue behind a waiting writer so a steady
    query stream cannot starve ``/mutate``.
    """

    def __init__(self):
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @asynccontextmanager
    async def read(self):
        async with self._cond:
            while self._writer or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @asynccontextmanager
    async def write(self):
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    await self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            async with self._cond:
                self._writer = False
                self._cond.notify_all()


class ServeEngine:
    """Shared-graph query engine behind ``repro serve``.

    Parameters
    ----------
    graph:
        The served CSR graph.  Compacted, and its in-edge index built,
        once up front so concurrent readers never race on lazy overlay
        compaction or on building the index; thereafter a ``/mutate``
        replaces it under the write lock, and nothing mutates it.
    graph_name:
        Display name used in responses and as the compiled programs'
        ``argv[1]``.
    max_pending:
        Admission budget: queries needing a fresh traversal beyond this
        many already-admitted ones are rejected with :class:`Backpressure`.
        Cache hits and coalesced joins are free — they consume no slot.
    cache_capacity:
        LRU capacity of the result cache (traversals, not vertices).
    max_sessions:
        How many incremental sessions to keep warm for post-mutation
        resume; least-recently-created beyond this are dropped (their
        queries still work — they just recompute from scratch).
    workers:
        Executor threads running traversals.
    """

    def __init__(
        self,
        graph: CSRGraph,
        graph_name: str = "<served>",
        max_pending: int = 64,
        cache_capacity: int = 128,
        max_sessions: int = 8,
        workers: int = 2,
    ):
        graph.compact()  # fold any pending overlay before sharing
        graph.ensure_in_base()  # every session of the epoch shares it
        self.graph = graph
        self.graph_name = graph_name
        self.max_pending = int(max_pending)
        self.epoch = 0
        self.cache = ResultCache(cache_capacity)
        self.lock = _RWLock()
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._pending = 0
        self._max_sessions = int(max_sessions)
        self._sessions: OrderedDict[tuple, IncrementalSession] = OrderedDict()
        self._state_lock = threading.Lock()
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(workers)), thread_name_prefix="serve"
        )

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def cache_key(self, spec: QuerySpec) -> tuple:
        return (self.epoch, spec.program, spec.source, spec.target, spec.schedule_key)

    def validate(self, spec: QuerySpec) -> None:
        n = self.graph.num_vertices
        for label, vertex in (("source", spec.source), ("target", spec.target)):
            if vertex is not None and not 0 <= vertex < n:
                raise GraphError(
                    f"{label} {vertex} out of range for a {n}-vertex graph"
                )

    async def query(self, spec: QuerySpec) -> tuple[CacheEntry, str]:
        """Answer one query; returns ``(entry, how)`` where ``how`` is
        ``"cache"``, ``"coalesced"``, or ``"computed"``."""
        metrics.counter("serve.requests").inc()
        self.validate(spec)
        key = self.cache_key(spec)
        entry = self.cache.get(key)
        if entry is not None:
            metrics.counter("serve.cache_hits").inc()
            return entry, "cache"
        metrics.counter("serve.cache_misses").inc()

        inflight = self._inflight.get(key)
        if inflight is not None:
            metrics.counter("serve.coalesced").inc()
            return await self._join(inflight), "coalesced"

        if self._pending >= self.max_pending:
            metrics.counter("serve.rejected").inc()
            raise Backpressure(self._pending, self.max_pending)
        self._pending += 1
        metrics.gauge("serve.queue_depth").set(self._pending)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            async with self.lock.read():
                loop = asyncio.get_running_loop()
                try:
                    entry = await loop.run_in_executor(
                        self._executor, self._compute, spec
                    )
                except Exception as error:  # propagate to coalesced joiners
                    # Result-wrapper instead of set_exception: a joiner that
                    # times out would otherwise leave an "exception never
                    # retrieved" warning on the abandoned future.
                    future.set_result(("error", error))
                    raise
            # Key includes the epoch, so an entry computed against the
            # pre-mutation graph can never answer a post-mutation query —
            # at worst it populates a key nothing will ever ask for again.
            self.cache.put(key, entry)
            future.set_result(("ok", entry))
            return entry, "computed"
        finally:
            self._inflight.pop(key, None)
            self._pending -= 1
            metrics.gauge("serve.queue_depth").set(self._pending)

    @staticmethod
    async def _join(future: asyncio.Future) -> CacheEntry:
        status, payload = await asyncio.shield(future)
        if status == "error":
            raise payload
        return payload

    # ------------------------------------------------------------------
    # Traversal execution (worker threads, read lock held by caller)
    # ------------------------------------------------------------------
    def _compute(self, spec: QuerySpec) -> CacheEntry:
        with span(
            "serve.execute",
            "serve",
            program=spec.program,
            source=-1 if spec.source is None else spec.source,
        ):
            if spec.program in _SESSION_ALGORITHMS:
                try:
                    return self._compute_session(spec)
                except SchedulingError:
                    pass  # e.g. wbfs with delta != 1 — the compiled path runs it
            return self._compute_compiled(spec)

    def _compute_session(self, spec: QuerySpec) -> CacheEntry:
        """Run (or reuse) an incremental session for resumable programs."""
        session_key = (spec.program, spec.source, spec.schedule_key)
        with self._state_lock:
            session = self._sessions.get(session_key)
        if session is None:
            session = IncrementalSession(
                self.graph.share(),
                _SESSION_ALGORITHMS[spec.program],
                source=int(spec.source or 0),
                schedule=spec.schedule,
            )
            result = session.run()
            stats = _rounds(result.stats, session.execution)
            with self._state_lock:
                self._sessions[session_key] = session
                while len(self._sessions) > self._max_sessions:
                    self._sessions.popitem(last=False)
        else:
            stats = {}
        return CacheEntry(
            vectors={spec.vector: session.values.copy()},
            stats=stats,
            engine="incremental",
            execution=session.execution,
        )

    def _compute_compiled(self, spec: QuerySpec) -> CacheEntry:
        program = cached_program(ALL_PROGRAMS[spec.program], spec.schedule)
        argv = [spec.program, self.graph_name]
        if spec.source is not None:
            argv.append(str(spec.source))
        if spec.target is not None:
            argv.append(str(spec.target))
        result = program.run(argv, graph=self.graph)
        vector = result.globals[spec.vector]
        if not isinstance(vector, np.ndarray):
            raise GraphError(
                f"program {spec.program!r} produced no vector {spec.vector!r}"
            )
        return CacheEntry(
            vectors={spec.vector: vector},
            stats=_rounds(result.stats, result.execution),
            engine="compiled",
            execution=result.execution,
        )

    # ------------------------------------------------------------------
    # Mutation path
    # ------------------------------------------------------------------
    async def mutate(self, script: str) -> dict:
        """Apply a mutation script; invalidate and repopulate the cache."""
        batches = parse_mutation_script(script)
        if not batches:
            raise GraphError("mutation script contains no mutations")
        async with self.lock.write():
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._executor, self._mutate_locked, batches
            )

    def _mutate_locked(self, batches: list) -> dict:
        total = sum(len(batch) for batch in batches)
        with span("serve.mutate", "serve", batches=len(batches), mutations=total):
            graph = self.graph.share()
            for batch in batches:
                apply_mutations(graph, batch)
            graph.compact()  # while no reader can see it
            graph.ensure_in_base()  # likewise: no reader ever builds it
            # Commit point: nothing above touched the served state.
            self.graph = graph
            self.epoch += 1
            invalidated = self.cache.clear()
            with self._state_lock:
                sessions = list(self._sessions.items())
            resumed = dropped = 0
            for key, session in sessions:
                program, source, schedule_key = key
                try:
                    for batch in batches:
                        session.apply(batch)
                    # Repopulate from the resumed session: its converged
                    # vector is already current for the new epoch, so the
                    # first query after a mutation hits the cache.
                    self.cache.put(
                        (self.epoch, program, source, None, schedule_key),
                        CacheEntry(
                            vectors={SERVABLE_PROGRAMS[program]: session.values.copy()},
                            engine="incremental",
                            execution=session.execution,
                        ),
                    )
                except Exception as error:  # noqa: BLE001 — the mutation stands
                    # A half-resumed session would answer from a graph no
                    # epoch ever served: drop it; its next query recomputes.
                    dump_forensics(error, ["serve", "mutate", "resume", program])
                    with self._state_lock:
                        self._sessions.pop(key, None)
                    metrics.counter("serve.sessions_dropped").inc()
                    dropped += 1
                    continue
                metrics.counter("serve.resumes").inc()
                resumed += 1
            metrics.counter("serve.mutations").inc()
        return {
            "batches": len(batches),
            "mutations": total,
            "epoch": self.epoch,
            "invalidated": invalidated,
            "resumed_sessions": resumed,
            "dropped_sessions": dropped,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "graph": self.graph_name,
            "num_vertices": int(self.graph.num_vertices),
            "num_edges": int(self.graph.num_edges),
            "epoch": self.epoch,
            "pending": self._pending,
            "max_pending": self.max_pending,
            "inflight": len(self._inflight),
            "sessions": len(self._sessions),
            "cache": self.cache.stats(),
            "programs": sorted(SERVABLE_PROGRAMS),
        }

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
