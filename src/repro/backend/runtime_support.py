"""Runtime library for code generated by the Python backend.

The generated module is a single ``program(ctx)`` function; ``ctx`` is a
:class:`Context` carrying the command-line arguments, the schedule, the
statistics, and the runtime entry points the compiler emits calls to:

- ``load`` / ``vector`` / ``out_degrees`` — data setup,
- ``new_priority_queue`` — constructs the bucket structure the *schedule*
  selects (the compiler's global switch between lazy and eager),
- ``apply_update_priority`` — the lazy edgeset-apply operator (scalar
  reference semantics; push or pull per the schedule's direction),
- ``apply_update_priority_histogram`` — the lazy-with-constant-sum apply,
- ``ordered_process_eager`` — the ordered processing operator the eager
  transform substitutes for the whole while loop (Section 5.2).

This module owns *apply kernels*, not loops: the lazy and relaxed operators
are called once per round by the generated ``while`` loop, and the eager
operator only builds the UDF's chunk relaxer and hands it to the eager
ordered-processing loop in :mod:`repro.core.executors`.  The interpreter
runs one chunk per round: every operator relaxes its whole frontier in one
kernel call and charges each vertex's degree + 1 to the cost model
(:meth:`Context.charge`); virtual threads are the cost model's split
(:mod:`repro.runtime.threads`), whatever the thread knobs say.  Every library
algorithm, incremental resume and served session runs through here: a
``Context`` built with ``resume=(values, seeds)`` binds the loop's priority
vector to ``values`` and seeds its queue from ``seeds``.

With ``vectorize=False`` edges are processed one at a time through the
generated UDF exactly as the emitted C++ would: that run is the *output*
oracle every batch kernel is tested against, and its per-edge counters are
its own.  The batch kernels for the extremal updates scatter through
:func:`repro.runtime.frontier.scatter_extremum` and charge one priority
update per vertex improved in a chunk; only the constant-sum kernels still
reproduce the scalar counters.  Outputs equal the oracle's while no update
lands below the current bucket (the paper's monotone-priority contract; a
run that breaks it is reported as ``V102``); the guarded A* kernel replays
scalar order where it matters and is exact for any heuristic.
"""

from __future__ import annotations

import inspect
import os
from contextlib import contextmanager, nullcontext
from typing import Callable

import numpy as np

from ..buckets.eager import EagerBucketQueue
from ..buckets.lazy import LazyBucketQueue
from ..buckets.relaxed import RelaxedPriorityQueue
from ..core import executors
from ..errors import CompileError, GraphItError, PriorityQueueError
from ..graph.csr import CSRGraph
from ..graph.io import load_edge_list, load_npz
from ..graph.properties import INT_MAX
from ..midend.schedule import Schedule
from ..midend.transforms.histogram_transform import TRANSFORMED_SUFFIX
from ..obs import metrics
from ..obs import span as trace_span
from ..runtime.frontier import gather_in_edges, gather_out_edges, scatter_extremum
from ..runtime.histogram import histogram_counts
from ..runtime.parallel import ParallelExecutionEngine
from ..runtime.sanitizer import SanitizedVector, Sanitizer
from ..runtime.stats import RuntimeStats

__all__ = ["Context", "INT_MAX"]

# Batch-kernel kinds each vectorized operator accepts.
_PRIORITY_KINDS = ("write_min", "write_max", "guarded_write_min", "sum_const")

_APPLY_CALLS = metrics.counter("apply.calls")
_APPLY_VECTORIZED = metrics.counter("apply.vectorized_calls")
_APPLY_SCALAR = metrics.counter("apply.scalar_calls")
_APPLY_FRONTIER = metrics.histogram("apply.frontier_size")

# The effect scope of every apply while the sanitizer is off.
_NO_SCOPE = nullcontext()


def _accepted_offers(current, dst, vals, reduce) -> np.ndarray:
    """Mask of the offers a scalar loop over the stream accepts: an offer
    wins when it beats its vertex's ``current`` value and every earlier
    offer to that vertex under ``reduce`` (strictly, so a tie loses)."""
    if reduce is np.maximum:
        # ``~`` reverses int64 order without overflow.
        vals, current = ~vals, ~current
    n = dst.size
    # By vertex, then value, then stream position: an offer is a running
    # record when no offer sorted before it in its vertex's run came earlier.
    order = np.lexsort((np.arange(n), vals, dst))
    run = np.cumsum(np.r_[False, dst[order][1:] != dst[order][:-1]])
    # Offset each run below the previous one so a running minimum of
    # positions restarts per vertex.
    ranked = order + (run[-1] - run) * n
    earliest = np.minimum.accumulate(ranked)
    record = np.empty(n, dtype=bool)
    record[order] = np.r_[True, ranked[1:] < earliest[:-1]]
    return record & (vals < current)


def load_graph_file(path: str) -> CSRGraph:
    """A graph file loaded by extension (.npz or edge-list text)."""
    if not isinstance(path, str):
        raise GraphItError("load() expects a path string")
    if os.path.splitext(path)[1] == ".npz":
        return load_npz(path)
    return load_edge_list(path)


class Context:
    """Execution context for one run of a generated program."""

    def __init__(
        self,
        argv: list[str],
        schedule: Schedule,
        graph: CSRGraph | None = None,
        extern_functions: dict[str, Callable] | None = None,
        vectorize: bool = True,
        resume: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.argv = list(argv)
        # ``(values, seeds)`` of a resumed run: the queue's priority vector
        # is bound to ``values`` and the queue seeded from ``seeds``.
        self.resume = resume
        self.schedule = schedule
        self.graph_override = graph
        self.extern_functions = dict(extern_functions or {})
        self.stats = RuntimeStats(num_threads=schedule.num_threads)
        # The thread engine prefetches the batch kernels' edge gathers, so
        # it requires the vectorized path: under ``vectorize=False`` (the
        # scalar differential-testing oracle) it degrades to serial — the
        # oracle stays single-threaded by definition.
        effective_execution = schedule.execution if vectorize else "serial"
        self.stats.execution = effective_execution
        self.engine = ParallelExecutionEngine(
            schedule.num_threads, effective_execution, self.stats
        )
        self.queues: list = []
        # Extern functions receive the context; generated vectors are
        # published here so externs can reach them by name.
        self.globals: dict[str, object] = {}
        # Race classifications the generated module declared (and this
        # context verified) before executing any parallel apply.
        self.race_reports: list[dict] = []
        # Static effect summary the generated module declared; when the
        # schedule enables the sanitizer, the Sanitizer instance checks
        # every dynamic vector access against it.
        self.effect_summary: dict | None = None
        self.sanitizer: Sanitizer | None = None
        # UDF vectorization: the midend classifies each apply UDF; when it
        # emitted a batch-kernel descriptor and ``vectorize`` is on, the
        # operators below run the numpy batch path (outputs bit-identical
        # to the scalar interpreter's while no update lands below the
        # current bucket; see ``inverted_batches``).  ``vectorize=False``
        # forces the scalar reference path for every apply — the
        # differential-testing oracle.
        self.vectorize = bool(vectorize)
        self.vectorized_applies = 0
        self.scalar_applies = 0
        # Write-min / write-max chunks in which an update landed below the
        # current bucket: the run left the monotone-priority contract under
        # which chunk-snapshot reads are guaranteed to equal scalar order
        # (reported as V102 by ``CompiledProgram.run``).
        self.inverted_batches = 0
        self._arity_cache: dict = {}
        # Reusable scratch: the pull frontier membership mask.
        self._mask_buffer: np.ndarray | None = None
        self._mask_set = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Data setup
    # ------------------------------------------------------------------
    def load(self, path: str) -> CSRGraph:
        """``load(argv[1])``: the override graph if one was supplied,
        otherwise a file loaded by extension (.npz or edge-list text)."""
        if self.graph_override is not None:
            return self.graph_override
        return load_graph_file(path)

    @staticmethod
    def atoi(value: str) -> int:
        return int(value)

    def vector(self, edges: CSRGraph, fill: int, resume: bool = False) -> np.ndarray:
        """Allocate a per-vertex int64 vector initialized to ``fill``.

        ``resume`` marks the ordered loop's priority vector: a resumed run
        binds it to the caller's value vector in place instead.
        """
        if resume and self.resume is not None:
            values = self.resume[0]
            if values.dtype != np.int64 or values.shape != (edges.num_vertices,):
                raise GraphItError(
                    "resume values must be an int64 vector with one entry "
                    "per vertex"
                )
            return self._maybe_sanitized(values)
        return self._maybe_sanitized(
            np.full(edges.num_vertices, fill, dtype=np.int64)
        )

    def out_degrees(self, edges: CSRGraph) -> np.ndarray:
        return self._maybe_sanitized(
            edges.out_degrees().astype(np.int64).copy()
        )

    def _maybe_sanitized(self, array: np.ndarray) -> np.ndarray:
        """Under ``Schedule(sanitize=True)``, allocate instrumented vectors.

        The views start inert (no sanitizer bound); ``declare_effect_summary``
        activates them once the generated module has published its globals,
        binding each vector to its program-level name.
        """
        if not self.schedule.sanitize:
            return array
        return array.view(SanitizedVector)

    @staticmethod
    def div(left, right):
        """DSL division: floor division for integers, true division otherwise."""
        if isinstance(left, (int, np.integer)) and isinstance(
            right, (int, np.integer)
        ):
            return left // right
        return left / right

    # ------------------------------------------------------------------
    # Priority queue construction (the schedule's global switch)
    # ------------------------------------------------------------------
    def new_priority_queue(
        self,
        allow_coarsening: bool,
        direction: str,
        priority_vector: np.ndarray,
        start_vertex: int = -1,
    ):
        if self.resume is not None:
            initial = self.resume[1]
        else:
            initial = None if start_vertex is None or start_vertex < 0 else [start_vertex]
        shared = dict(
            direction=direction,
            delta=self.schedule.delta,
            allow_coarsening=allow_coarsening,
            stats=self.stats,
            initial_vertices=initial,
        )
        if self.schedule.is_relaxed:
            queue = RelaxedPriorityQueue(priority_vector, slack=4, **shared)
        elif self.schedule.is_eager:
            queue = EagerBucketQueue(priority_vector, **shared)
        else:
            queue = LazyBucketQueue(
                priority_vector, num_open_buckets=self.schedule.num_buckets, **shared
            )
        self.queues.append(queue)
        return queue

    # ------------------------------------------------------------------
    # Extern boundary
    # ------------------------------------------------------------------
    def call_extern(self, name: str, *args):
        if name not in self.extern_functions:
            raise CompileError(
                f"program calls extern function {name!r} but no binding was "
                f"provided (pass extern_functions={{'{name}': ...}})"
            )
        return self.extern_functions[name](self, *args)

    # ------------------------------------------------------------------
    # Race-classification contract (the midend's analysis, asserted here)
    # ------------------------------------------------------------------
    def declare_race_report(
        self,
        udf: str,
        direction: str,
        parallelization: str,
        sites: list[dict],
    ) -> None:
        """Assert the compile-time race classification at run time.

        The Python backend embeds the midend's per-site race classification
        in the generated module.  Executing it checks two things:

        1. the classification was computed under the *same* schedule the
           program now runs with (a stale report would make every per-site
           decision unsound), and
        2. no site was classified ``unordered_racy`` — such a program is a
           correctness bug under the chosen parallel schedule (diagnostic
           ``R001``), and this backend refuses to run it.
        """
        if (
            direction != self.schedule.direction
            or parallelization != self.schedule.parallelization
        ):
            raise GraphItError(
                f"race classification for UDF {udf!r} was computed under "
                f"schedule ({direction}, {parallelization}) but the program "
                f"is executing under ({self.schedule.direction}, "
                f"{self.schedule.parallelization}); recompile with the "
                f"schedule you intend to run"
            )
        racy = [s for s in sites if s.get("class") == "unordered_racy"]
        if racy:
            first = racy[0]
            raise GraphItError(
                f"R001: refusing to execute UDF {udf!r}: unordered racy "
                f"write to {first.get('target')} (line {first.get('line')}): "
                f"{first.get('reason')}"
            )
        self.race_reports.append(
            {
                "udf": udf,
                "direction": direction,
                "parallelization": parallelization,
                "sites": list(sites),
            }
        )

    def declare_execution(self, execution: str) -> None:
        """Assert the compile-time execution mode at run time.

        The generated module records the ``configExecution`` mode it was
        compiled under; executing it against a context whose schedule chose a
        different mode means the module's synchronization assumptions (barrier
        placement, commit ordering) were planned for a different engine —
        recompile instead of silently running the other mode.
        """
        if execution != self.schedule.execution:
            raise GraphItError(
                f"program was compiled with execution={execution!r} but the "
                f"context is running with "
                f"execution={self.schedule.execution!r}; recompile with the "
                f"schedule you intend to run"
            )

    # ------------------------------------------------------------------
    # Effect-summary contract (the schedule sanitizer)
    # ------------------------------------------------------------------
    def declare_effect_summary(self, summary: dict) -> None:
        """Receive the midend's per-UDF effect summary from the module.

        Always recorded (``self.effect_summary``); under
        ``Schedule(sanitize=True)`` it additionally arms the sanitizer and
        activates every instrumented vector the module has published so
        far, binding each to its program-level name.
        """
        self.effect_summary = dict(summary)
        if not self.schedule.sanitize:
            return
        self.sanitizer = Sanitizer(summary)
        for name, value in self.globals.items():
            if isinstance(value, SanitizedVector):
                value._sanitizer = self.sanitizer
                value._effect_name = name

    @staticmethod
    def _effect_udf_name(udf: Callable) -> str:
        """The effect-summary key for an apply callable.

        The histogram transform's generated UDF keeps the original UDF's
        summary (the transform preserves its effects on the priority
        vector), so the suffix is stripped.
        """
        name = getattr(udf, "__name__", str(udf))
        if name.endswith(TRANSFORMED_SUFFIX):
            name = name[: -len(TRANSFORMED_SUFFIX)]
        return name

    def _effect_scope(self, udf: Callable, frontier=None, edges=None):
        """Bracket one apply dispatch of ``udf`` as a sanitizer scope (a
        shared no-op context when the sanitizer is off, so an unsanitized
        apply pays no scope and no name lookup)."""
        if self.sanitizer is None:
            return _NO_SCOPE
        return self._sanitized_scope(self._effect_udf_name(udf), frontier, edges)

    @contextmanager
    def _sanitized_scope(self, udf_name: str, frontier, edges):
        """A dispatch that raises aborts the scope without validating, so
        the original error surfaces unmasked."""
        self.sanitizer.begin_apply(udf_name, frontier=frontier, edges=edges)
        try:
            yield
        except BaseException:
            self.sanitizer.abort()
            raise
        self.sanitizer.end_apply()

    # ------------------------------------------------------------------
    # Lazy apply operator (Figure 9(a)/(b))
    # ------------------------------------------------------------------
    def apply_update_priority(
        self,
        edges: CSRGraph,
        bucket: np.ndarray,
        udf: Callable,
        queue,
        kernel: dict | None = None,
    ) -> None:
        if len(bucket) == 0:
            return  # an empty bucket is not a round
        vectorized = self._use_kernel(kernel, _PRIORITY_KINDS)
        pull = self.schedule.direction == "DensePull"
        name = "apply.pull" if pull else "apply.push"
        self._note_apply(vectorized, len(bucket))
        with trace_span(
            name,
            "runtime",
            frontier=int(len(bucket)),
            vectorized=bool(vectorized),
        ), self._effect_scope(
            udf,
            # Pull traversal touches every vertex, so frontier containment
            # does not apply; push writes must stay within the bucket's
            # out-neighborhood.
            frontier=None if pull else bucket,
            edges=edges,
        ):
            if vectorized:
                if pull:
                    self._apply_pull_vectorized(edges, bucket, kernel, queue)
                else:
                    self._apply_push_vectorized(edges, bucket, kernel, queue)
                return
            if pull:
                self._apply_pull(edges, bucket, udf)
            else:
                self._apply_push(edges, bucket, udf, queue)

    def _use_kernel(self, kernel: dict | None, kinds: tuple[str, ...]) -> bool:
        return (
            self.vectorize
            and kernel is not None
            and kernel.get("kind") in kinds
        )

    def _note_apply(self, vectorized: bool, frontier_size: int | None) -> None:
        """Count one apply-operator invocation — the only place the
        per-context and the registry apply counts move, so they agree.
        The eager operator drains the whole queue in one invocation and
        has no single frontier to report (``frontier_size=None``)."""
        if vectorized:
            self.vectorized_applies += 1
        else:
            self.scalar_applies += 1
        _APPLY_CALLS.inc()
        (_APPLY_VECTORIZED if vectorized else _APPLY_SCALAR).inc()
        if frontier_size is not None:
            _APPLY_FRONTIER.observe(frontier_size)

    def charge(self, degrees: np.ndarray) -> None:
        """Charge one relax call to the cost model: each vertex costs its
        degree + 1, split across the schedule's virtual threads."""
        self.stats.charge(
            degrees + 1, self.schedule.parallelization, self.schedule.chunk_size
        )

    def _udf_arity(self, udf: Callable) -> int:
        """Number of positional parameters ``udf`` accepts.

        ``__code__.co_argcount`` breaks on callables without a ``__code__``
        (``functools.partial``, bound methods of C classes, objects with
        ``__call__``); :func:`inspect.signature` handles them all.  The
        answer is cached per callable because the operators ask on every
        round.
        """
        try:
            return self._arity_cache[udf]
        except KeyError:
            pass
        except TypeError:
            # Unhashable callable: compute without caching.
            return self._compute_arity(udf)
        arity = self._compute_arity(udf)
        self._arity_cache[udf] = arity
        return arity

    @staticmethod
    def _compute_arity(udf: Callable) -> int:
        parameters = inspect.signature(udf).parameters.values()
        return sum(
            1
            for p in parameters
            if p.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
        )

    def _apply_push(
        self, edges: CSRGraph, bucket: np.ndarray, udf: Callable, queue
    ) -> None:
        self.stats.begin_round()
        self.charge(edges.out_degrees()[bucket])
        self._scalar_push(edges, bucket, udf, atomic=True)
        self.stats.end_round(syncs=queue.round_syncs())

    def _scalar_push(
        self, edges: CSRGraph, sources: np.ndarray, udf: Callable, atomic: bool
    ) -> None:
        """Run ``udf`` on every out-edge of ``sources``, one edge at a time."""
        weighted = self._udf_arity(udf) == 3
        for source in sources.tolist():
            for destination, weight in edges.out_edges(source):
                self.stats.relaxations += 1
                if atomic:
                    self.stats.atomic_ops += 1
                if weighted:
                    udf(source, destination, weight)
                else:
                    udf(source, destination)

    def _frontier_mask(self, size: int, bucket: np.ndarray) -> np.ndarray:
        """Context-owned boolean frontier-membership mask.

        Reused across rounds: instead of allocating and zero-filling an
        ``num_vertices`` array every pull round, only the positions set last
        round are cleared before the new bucket is marked.
        """
        mask = self._mask_buffer
        if mask is None or mask.size != size:
            mask = self._mask_buffer = np.zeros(size, dtype=bool)
            self._mask_set = np.empty(0, dtype=np.int64)
        mask[self._mask_set] = False
        mask[bucket] = True
        self._mask_set = np.asarray(bucket, dtype=np.int64)
        return mask

    def _apply_pull(self, edges: CSRGraph, bucket: np.ndarray, udf: Callable) -> None:
        weighted = self._udf_arity(udf) == 3
        on_frontier = self._frontier_mask(edges.num_vertices, bucket)
        self.stats.begin_round()
        self.charge(edges.in_degrees())
        for destination in range(edges.num_vertices):
            sources = edges.in_neighbors(destination)
            weights = edges.in_weights(destination)
            for source, weight in zip(sources.tolist(), weights.tolist()):
                self.stats.relaxations += 1
                if not on_frontier[source]:
                    continue
                # Pull direction: no atomics needed (Figure 9(b)).
                if weighted:
                    udf(source, destination, weight)
                else:
                    udf(source, destination)
        self.stats.end_round(syncs=2)

    # ------------------------------------------------------------------
    # Vectorized apply operators (batch-kernel path)
    #
    # When the midend's vectorization pass recognized the UDF's shape it
    # emits a kernel descriptor alongside the scalar closure; these
    # operators execute whole edge streams through numpy.  The sum kinds
    # reproduce the scalar interpreter above exactly, counters included.
    # The extremal kinds read a chunk snapshot and charge RuntimeStats once
    # per vertex improved in a chunk; their outputs are bit-identical
    # to the scalar interpreter's under the monotone-priority contract (no
    # update lands below the current bucket), and the guarded A* kind for
    # any heuristic — see ``_relax_stream``.
    # ------------------------------------------------------------------
    def _apply_push_vectorized(
        self, edges: CSRGraph, bucket: np.ndarray, kernel: dict, queue
    ) -> None:
        self.stats.begin_round()
        self.charge(edges.out_degrees()[bucket])
        eager = isinstance(queue, EagerBucketQueue)

        def commit(chunk: np.ndarray, prefetched) -> None:
            # All mutation (priority writes, queue inserts, stats) happens
            # here, after the read-only gather.
            src, dst, wgt = prefetched
            self.stats.relaxations += int(dst.size)
            self.stats.atomic_ops += int(dst.size)
            self._dispatch_stream(kernel, queue, src, dst, wgt, eager)

        self.engine.run(bucket, lambda chunk: gather_out_edges(edges, chunk), commit)
        self.stats.end_round(syncs=queue.round_syncs())

    def _apply_pull_vectorized(
        self, edges: CSRGraph, bucket: np.ndarray, kernel: dict, queue
    ) -> None:
        on_frontier = self._frontier_mask(edges.num_vertices, bucket)
        self.stats.begin_round()
        self.charge(edges.in_degrees())
        all_vertices = np.arange(edges.num_vertices, dtype=np.int64)

        def commit(chunk: np.ndarray, prefetched) -> None:
            src, dst, wgt = prefetched
            self.stats.relaxations += int(dst.size)
            # Pull direction: only edges whose source is on the frontier run
            # the UDF (and no atomics, Figure 9(b)).
            mask = on_frontier[src]
            self._dispatch_stream(kernel, queue, src[mask], dst[mask], wgt[mask], False)

        self.engine.run(
            all_vertices, lambda chunk: gather_in_edges(edges, chunk), commit
        )
        self.stats.end_round(syncs=2)

    def _dispatch_stream(
        self,
        kernel: dict,
        queue,
        src: np.ndarray,
        dst: np.ndarray,
        wgt: np.ndarray,
        eager: bool,
    ) -> None:
        """Run one relax call's edge stream through its batch kernel: the
        extremal kinds route each improved vertex into the eager bins or
        the lazy buffer."""
        if kernel["kind"] == "sum_const":
            self._run_sum_stream(kernel, queue, dst, eager)
            return
        if dst.size == 0:
            return
        improved, values = self._relax_stream(kernel, queue, src, dst, wgt)
        if improved.size:
            self.stats.priority_updates += int(improved.size)
            if values is not None:
                queue.insert_updates(improved, values)
            elif eager:
                queue.insert_changed_batch(improved)
            else:
                queue.buffer_changed_batch(improved)

    # -- shared batch helpers ------------------------------------------
    @staticmethod
    def _as_stream(out, size: int) -> np.ndarray:
        """A kernel expression's result as one int64 per stream position."""
        out = np.asarray(out)
        if out.ndim == 0:
            out = np.full(size, int(out), dtype=np.int64)
        return out.astype(np.int64, copy=False)

    # -- stream processors ---------------------------------------------
    def _relax_stream(self, kernel, queue, src, dst, wgt):
        """``updatePriorityMin`` / ``Max`` over an edge stream; returns
        ``(the sorted distinct vertices whose priority improved, None)``, or
        on a queue that finalizes nothing ``(vertices, values)`` of every
        update the scalar loop makes, in stream order: approximate ordering
        keeps one bucket entry per update, stale copies included, so only
        that sequence reproduces its bins.

        What is the DSL operator's contract, not the kernel's, happens here:
        the UDF's value expression evaluated over the whole stream, the A*
        guard (``if v < aux[dst]: aux[dst] = v; pq.updatePriorityMin(dst,
        priority(v))`` — scatter into ``aux``, then one priority offer per
        guard-passing edge, which the same kernel folds to one update per
        improved vertex), and Table 1's refusal to update a vertex whose
        bucket was already processed.  The null priority maps to an order
        past every bucket in either direction, so an untracked vertex is
        never refused.
        """
        cur = queue.current_order  # None before the first dequeue
        k_cur = None if cur is None else queue.value_of_order(cur)
        if not queue.finalizes:
            cur = None  # approximate ordering finalizes nothing
        kind = kernel["kind"]
        vals = self._as_stream(kernel["value"](src, dst, wgt, k_cur), dst.size)
        if kind == "guarded_write_min":
            # The scalar guard has no finalized check of its own.
            aux = kernel["aux"]()
            passing = vals < aux[dst]
            # An extern heuristic need not be consistent, and then the scalar
            # answer depends on the order of writes: a chunk that improves
            # ``aux`` at one of its own sources is taken one source at a time,
            # so every read sees the writes scalar order puts before it.
            cuts = np.flatnonzero(src[1:] != src[:-1]) + 1
            if cuts.size and np.isin(dst[passing], src).any():
                vertices, values = zip(*(
                    self._relax_stream(kernel, queue, *part)
                    for part in zip(*(np.split(a, cuts) for a in (src, dst, wgt)))
                ))
                if queue.finalizes:
                    return np.unique(np.concatenate(vertices)), None
                return np.concatenate(vertices), np.concatenate(values)
            scatter_extremum(aux, dst, vals, np.minimum)
            dst = dst[passing]
            vals = self._as_stream(
                kernel["priority"](dst, k_cur, vals[passing]), dst.size
            )
        pv = queue.priority_vector
        reduce = np.maximum if kind == "write_max" else np.minimum
        # The stream's best offer tells whether any offer is inverted.  An
        # offer at or past the current bucket cannot improve a vertex whose
        # bucket was already processed, so only an inverted stream needs
        # Table 1's refusal filter.
        if (
            cur is not None
            and dst.size
            and queue.order_of_value(reduce.reduce(vals)) < cur
        ):
            live = np.asarray(queue.order_of_value(pv[dst])) >= cur
            if not live.all():
                dst, vals = dst[live], vals[live]
            if dst.size and queue.order_of_value(reduce.reduce(vals)) < cur:
                if kind != "guarded_write_min":
                    self.inverted_batches += 1
                inverted = np.asarray(queue.order_of_value(vals)) < cur
                dst, vals = self._freeze_at_first_inversion(dst, vals, inverted)
        if queue.finalizes:
            return scatter_extremum(pv, dst, vals, reduce), None
        accepted = _accepted_offers(pv[dst], dst, vals, reduce)
        dst, vals = dst[accepted], vals[accepted]
        scatter_extremum(pv, dst, vals, reduce)
        return dst, vals

    @staticmethod
    def _freeze_at_first_inversion(dst, vals, inverted):
        """Table 1's refusal, replayed inside one chunk.

        An offer that lands below the current bucket (a priority inversion:
        the program broke the monotone-priority contract — an inconsistent
        A* heuristic, a negative weight) finalizes its vertex the moment it
        is written, so the scalar interpreter refuses every later offer to
        that vertex, even a better one.  Such an offer beats every offer
        that is not inverted, so the vertex ends at its *first* inverted
        offer in stream order: keep that one, drop the vertex's others.
        """
        hit = np.flatnonzero(inverted)
        frozen, first = np.unique(dst[hit], return_index=True)
        keep = ~np.isin(dst, frozen)
        return (
            np.concatenate([dst[keep], frozen]),
            np.concatenate([vals[keep], vals[hit[first]]]),
        )

    def _run_sum_stream(self, kernel, queue, dst, eager) -> None:
        """Batch ``updatePrioritySum(dst, c, getCurrentPriority())``.

        Each destination appearing ``count`` times takes ``s = min(count,
        steps-to-threshold)`` successful unit steps; the eager queue receives
        one insertion per intermediate value (the churn the paper measures),
        the lazy queue one buffered attempt per success.
        """
        if dst.size == 0:
            return
        # Scalar raise order: the UDF evaluates getCurrentPriority() (its
        # threshold argument) before updatePrioritySum checks the sum sign.
        threshold = int(queue.get_current_priority())
        constant = int(kernel["constant"])
        queue._check_sum_sign(constant)
        pv = queue.priority_vector
        null = queue.null_priority
        cur = queue._cur_order
        vertices, counts = np.unique(dst, return_counts=True)
        p0 = pv[vertices]
        if cur is not None:
            finalized = (p0 != null) & (
                np.asarray(queue.order_of_value(p0)) < cur
            )
        else:
            finalized = np.zeros(vertices.size, dtype=bool)
        active = ~finalized
        if bool(np.any(p0[active] == null)):
            raise PriorityQueueError(
                "updatePrioritySum on a vertex with null priority"
            )
        act_v = vertices[active]
        act_c = counts[active].astype(np.int64)
        ap0 = p0[active]
        if act_v.size == 0:
            return
        step = abs(constant)
        gap = ap0 - threshold if constant < 0 else threshold - ap0
        # Steps until the clamp threshold absorbs further updates: ceil for
        # a positive gap, one overshoot-clamping step for a negative gap.
        steps = np.where(gap > 0, -(-gap // step), np.where(gap < 0, 1, 0))
        s_counts = np.minimum(act_c, steps)
        total = int(s_counts.sum())
        self.stats.priority_updates += total
        final = ap0 + s_counts * constant
        if constant < 0:
            final = np.maximum(final, threshold)
        else:
            final = np.minimum(final, threshold)
        writers = s_counts > 0
        pv[act_v[writers]] = final[writers]
        if total == 0:
            return
        rep_v = np.repeat(act_v, s_counts)
        if eager:
            # One bucket insertion per intermediate priority value, exactly
            # like the scalar per-update _insert calls.
            offsets = np.repeat(np.cumsum(s_counts) - s_counts, s_counts)
            i_arr = np.arange(total, dtype=np.int64) - offsets + 1
            inter = np.repeat(ap0, s_counts) + i_arr * constant
            if constant < 0:
                inter = np.maximum(inter, threshold)
            else:
                inter = np.minimum(inter, threshold)
            orders = np.asarray(queue.order_of_value(inter), dtype=np.int64)
            if cur is not None:
                below = int(np.count_nonzero(orders < cur))
                if below:
                    queue.priority_inversions += below
                    orders = np.maximum(orders, cur)
            queue.insert_batch_at(rep_v, orders)
        else:
            queue.buffer_attempts_batch(rep_v)

    def apply_edges(self, edges: CSRGraph, udf: Callable) -> None:
        """Whole-edgeset unordered apply (original GraphIt's ``edges.apply``).

        Every edge is processed once per call, in scalar order — the
        building block of the unordered baselines (Bellman-Ford).  There is
        no batch kernel: without a queue's rounds a fixed-iteration apply
        has no snapshot a batch could read without changing its outputs.
        """
        self._note_apply(False, edges.num_edges)
        with trace_span(
            "apply.edges", "runtime", vectorized=False
        ), self._effect_scope(udf, edges=edges):
            # Whole-edgeset apply: every vertex is a legal write target, so
            # only the name-level rules apply (frontier=None).
            self.stats.begin_round()
            self.charge(edges.out_degrees())
            all_vertices = np.arange(edges.num_vertices, dtype=np.int64)
            self._scalar_push(edges, all_vertices, udf, atomic=False)
            self.stats.end_round(syncs=1)

    # ------------------------------------------------------------------
    # Lazy with constant sum (Figure 10)
    # ------------------------------------------------------------------
    def apply_update_priority_histogram(
        self,
        edges: CSRGraph,
        bucket: np.ndarray,
        transformed_udf: Callable,
        queue: LazyBucketQueue,
        kernel: dict | None = None,
    ) -> None:
        if len(bucket) == 0:
            return  # an empty bucket is not a round
        vectorized = self._use_kernel(kernel, ("sum_hist",))
        self._note_apply(vectorized, len(bucket))
        with trace_span(
            "apply.histogram",
            "runtime",
            frontier=int(len(bucket)),
            vectorized=vectorized,
        ), self._effect_scope(
            transformed_udf,
            frontier=bucket,
            edges=edges,
        ):
            self._apply_update_priority_histogram(
                edges, bucket, transformed_udf, queue, kernel if vectorized else None
            )

    def _apply_update_priority_histogram(
        self,
        edges: CSRGraph,
        bucket: np.ndarray,
        transformed_udf: Callable,
        queue: LazyBucketQueue,
        kernel: dict | None,
    ) -> None:
        self.stats.begin_round()
        self.charge(edges.out_degrees()[bucket])
        neighbors = self.engine.run(
            bucket,
            lambda chunk: gather_out_edges(edges, chunk)[1],
            lambda chunk, neighbors: neighbors,
        )
        self.stats.relaxations += int(neighbors.size)
        # The transformed UDF's own ``priority > k`` guard, applied before
        # binning: a neighbour already peeled (at or below k) is never counted.
        k = queue.get_current_priority()
        neighbors = neighbors[queue.priority_vector[neighbors] > k]
        vertices, counts = histogram_counts(neighbors, self.stats)
        if kernel is not None:
            queue.apply_histogram_updates(vertices, counts, int(kernel["constant"]), k)
        else:
            changed: list[int] = []
            for vertex, count in zip(vertices.tolist(), counts.tolist()):
                if transformed_udf(vertex, count) is not None:
                    changed.append(vertex)
                    self.stats.priority_updates += 1
            queue.buffer_changed_batch(np.array(changed, dtype=np.int64))
        self.stats.end_round(syncs=2)

    # ------------------------------------------------------------------
    # Eager ordered processing operator (Section 5.2, Figures 6/7/9(c))
    # ------------------------------------------------------------------
    def ordered_process_eager(
        self,
        edges: CSRGraph,
        queue: EagerBucketQueue,
        udf: Callable,
        stop_condition: Callable[[], bool] | None = None,
        fusion_threshold: int = 0,
        kernel: dict | None = None,
    ) -> None:
        """Build the UDF's relaxer and hand it to the shared eager loop
        (:func:`repro.core.executors.run_eager`): rounds, the bucket-fusion
        drain and the produce/commit split live there."""
        vectorized = self._use_kernel(kernel, _PRIORITY_KINDS)
        self._note_apply(vectorized, None)
        degrees = edges.out_degrees()

        def gather(chunk: np.ndarray):
            # Pure CSR gather (runs on the worker thread under the parallel
            # engine).  The scalar interpreter walks edges itself and never
            # runs on the worker: the engine is serial whenever vectorize=False.
            return gather_out_edges(edges, chunk) if vectorized else None

        def relax(chunk: np.ndarray, prefetched) -> None:
            # Each relax call (a round's frontier or a fused local bucket)
            # is its own sanitizer scope: writes must stay within the
            # chunk's out-neighborhood.
            with trace_span(
                "apply.push",
                "runtime",
                frontier=int(chunk.size),
                vectorized=bool(vectorized),
            ), self._effect_scope(udf, frontier=chunk, edges=edges):
                self.charge(degrees[chunk])
                if not vectorized:
                    self._scalar_push(edges, chunk, udf, atomic=True)
                    return
                src, dst, wgt = gather(chunk) if prefetched is None else prefetched
                self.stats.relaxations += int(dst.size)
                self.stats.atomic_ops += int(dst.size)
                self._dispatch_stream(kernel, queue, src, dst, wgt, True)

        relax.gather = gather
        with trace_span(
            "ordered_process_eager",
            "runtime",
            fusion_threshold=int(fusion_threshold),
            vectorized=bool(vectorized),
        ):
            executors.run_eager(
                queue, relax, self.engine, self.stats, fusion_threshold, stop_condition
            )
