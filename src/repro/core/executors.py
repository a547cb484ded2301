"""Ordered-processing executors: the runtime form of the dequeue loop.

Section 5.2 of the paper describes how the compiler replaces the user's

    while (pq.finished() == false)
        var bucket = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(udf);

loop with an *ordered processing operator* backed by an optimized runtime
library.  These functions are that library, and they are *the* loop for both
runtimes: the hand-written algorithms (``repro.algorithms``) and the code the
Python backend generates (``Context.ordered_process_eager``) hand their
relaxers to the same executors.  Each drives one bucketing strategy:

- :func:`run_eager` — thread-local buckets, optional **bucket fusion**
  (Figure 7): after draining its share of the global bucket, a thread keeps
  processing its own local bucket for the current priority, with no global
  synchronization, while that bucket stays under the size threshold.
- :func:`run_lazy` / :func:`run_lazy_pull` — buffered bucket updates reduced
  once per round (Figure 5), push or DensePull traversal (Figure 9(b));
  costs two global synchronizations per round (buffer reduction + round
  barrier).
- :func:`run_relaxed` — approximate priority ordering (Galois emulation):
  chunked processing with synchronization only at priority-window advances.

Executors are generic over a :class:`Relaxer`, which owns everything about
*how* a chunk's edges update priorities; the executors own only round
structure, work partitioning and accounting.

Every round goes through ``pool.run_round(chunks, relax.gather, commit)``:
a pure *produce* phase (``gather``: CSR edge gathers, which read only
immutable topology) and a mutating *commit* phase (the relaxer proper).
Under ``execution="serial"`` that is the inline per-chunk loop; under
``execution="parallel"`` the gathers run on real worker threads and the
deterministic strategies replay commits in chunk order on the coordinating
thread, which makes the committed instruction sequence — and therefore the
outputs *and every stats counter* — bit-identical to serial.  The relaxed
strategy commits in completion order under a lock instead (priority
inversions allowed).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Protocol

import numpy as np

from ..buckets.eager import EagerBucketQueue
from ..buckets.lazy import LazyBucketQueue
from ..buckets.relaxed import RelaxedPriorityQueue
from ..errors import CompileError
from ..graph.csr import CSRGraph
from ..obs import span as trace_span
from ..runtime.stats import RuntimeStats
from ..runtime.threads import VirtualThreadPool

__all__ = [
    "Relaxer",
    "run_eager",
    "run_lazy",
    "run_lazy_pull",
    "run_relaxed",
]


class Relaxer(Protocol):
    """How one chunk of a round updates priorities.

    ``gather(chunk, thread_id)`` is the read-only produce phase; whatever it
    returns is handed back as ``prefetched``.  ``relax(chunk, thread_id,
    prefetched)`` applies the updates as virtual thread ``thread_id`` and
    returns the work units performed (edges traversed plus bucket
    operations), which the executor charges to the thread for the
    simulated-time cost model.  ``prefetched`` is ``None`` for chunks that did
    not exist at produce time (fused local buckets): the relaxer gathers
    those itself.
    """

    def __call__(self, chunk: np.ndarray, thread_id: int, prefetched: Any) -> int: ...

    def gather(self, chunk: np.ndarray, thread_id: int) -> Any: ...


StopCondition = Callable[[], bool]


def _frontiers(queue, should_stop: StopCondition | None) -> Iterator[np.ndarray]:
    """Dequeue ready sets until the queue drains or ``should_stop`` fires."""
    while True:
        frontier = queue.dequeue_ready_set()
        if frontier.size == 0 or (should_stop is not None and should_stop()):
            return
        yield frontier


def _charged(relax: Relaxer, stats: RuntimeStats):
    """The commit of a strategy without fusion: relax, charge the work."""

    def commit(chunk: np.ndarray, thread_id: int, prefetched) -> None:
        stats.add_thread_work(thread_id, relax(chunk, thread_id, prefetched))

    return commit


def run_eager(
    graph: CSRGraph,
    queue: EagerBucketQueue,
    relax: Relaxer,
    pool: VirtualThreadPool,
    stats: RuntimeStats,
    fusion_threshold: int = 0,
    should_stop: StopCondition | None = None,
) -> None:
    """Drive the eager ordered-processing loop (Figures 6 and 7).

    ``fusion_threshold > 0`` enables bucket fusion with that size threshold;
    0 reproduces plain GAPBS-style eager processing.
    """
    if pool.num_threads != queue.num_threads:
        raise CompileError(
            "thread pool and eager queue disagree on the number of threads"
        )
    pool.bind_stats(stats)
    degrees = graph.out_degrees()
    fused = 0

    def commit(chunk: np.ndarray, thread_id: int, prefetched) -> None:
        """One thread's slice of the round — its initial relaxation *and* its
        bucket-fusion drain, exactly what the serial loop body does for this
        thread — so replaying commits in chunk order reproduces the serial
        instruction sequence bit-for-bit.  Only the initial relaxation's edge
        gather was prefetched concurrently; a fused run's local bucket does
        not exist until the preceding commit, so its gathers stay on the
        coordinator (Figure 7 keeps fused runs entirely thread-local, with no
        synchronization, either).
        """
        nonlocal fused
        stats.add_thread_work(thread_id, relax(chunk, thread_id, prefetched))
        if fusion_threshold > 0:
            # Figure 7, lines 14-20: keep draining this thread's local
            # bucket for the current priority without synchronizing.
            while True:
                local = queue.pop_local_bucket(thread_id, fusion_threshold)
                if local is None:
                    break
                fused += 1
                with trace_span(
                    "eager.fused_run", "runtime", worker=thread_id, size=int(local.size)
                ):
                    stats.add_thread_work(thread_id, relax(local, thread_id, None))

    for frontier in _frontiers(queue, should_stop):
        with trace_span("eager.round", "runtime", frontier=int(frontier.size)) as sp:
            stats.begin_round()
            fused = 0
            chunks = pool.partition(frontier, degrees=degrees[frontier])
            pool.run_round(chunks, relax.gather, commit, ordered=True)
            stats.end_round(syncs=1, fused=fused)
            sp["fused_runs"] = fused


def run_lazy(
    graph: CSRGraph,
    queue: LazyBucketQueue,
    relax: Relaxer,
    pool: VirtualThreadPool,
    stats: RuntimeStats,
    should_stop: StopCondition | None = None,
    round_overhead: Callable[[np.ndarray], int] | None = None,
) -> None:
    """Drive the lazy ordered-processing loop (Figure 5).

    Each round costs two global synchronizations: one to reduce the update
    buffer into per-vertex bucket updates, one at the round barrier.
    ``round_overhead(frontier)`` charges extra per-round work, distributed
    evenly across threads — used by the Julienne emulation to model its
    per-round out-degree reduction for the direction optimization.
    """
    stats.num_threads = pool.num_threads
    pool.bind_stats(stats)
    degrees = graph.out_degrees()
    commit = _charged(relax, stats)
    for frontier in _frontiers(queue, should_stop):
        stats.begin_round()
        if round_overhead is not None:
            _charge_evenly(stats, pool.num_threads, round_overhead(frontier))
        chunks = pool.partition(frontier, degrees=degrees[frontier])
        # Fig. 5's round protocol: private produces, then a barrier, then
        # the reduction/commit — the two syncs charged below.
        pool.run_round(chunks, relax.gather, commit, ordered=True)
        stats.end_round(syncs=2)


def _charge_evenly(stats: RuntimeStats, num_threads: int, units: int) -> None:
    """Charge ``units`` of work spread evenly across all threads."""
    if units <= 0:
        return
    per_thread = units // num_threads + 1
    for thread_id in range(num_threads):
        stats.add_thread_work(thread_id, per_thread)


def run_lazy_pull(
    graph: CSRGraph,
    queue: LazyBucketQueue,
    relax_pull: Relaxer,
    pool: VirtualThreadPool,
    stats: RuntimeStats,
    frontier_map: np.ndarray,
    should_stop: StopCondition | None = None,
) -> None:
    """Drive the lazy loop with DensePull traversal (Figure 9(b)).

    Every round scans all vertices' in-edges against a dense frontier map —
    the layout cost the direction optimization trades against atomic-free
    updates.  ``frontier_map`` must be a zeroed boolean array of size |V|
    shared with the relaxer.
    """
    stats.num_threads = pool.num_threads
    pool.bind_stats(stats)
    all_vertices = np.arange(graph.num_vertices, dtype=np.int64)
    in_degrees = graph.in_degrees()
    commit = _charged(relax_pull, stats)
    for frontier in _frontiers(queue, should_stop):
        frontier_map.fill(False)
        frontier_map[frontier] = True
        stats.begin_round()
        chunks = pool.partition(all_vertices, degrees=in_degrees)
        pool.run_round(chunks, relax_pull.gather, commit, ordered=True)
        stats.end_round(syncs=2)


def run_relaxed(
    graph: CSRGraph,
    queue: RelaxedPriorityQueue,
    relax: Relaxer,
    pool: VirtualThreadPool,
    stats: RuntimeStats,
    should_stop: StopCondition | None = None,
) -> None:
    """Drive approximately-ordered processing (Galois emulation).

    There is no per-priority barrier: a global synchronization is charged
    only when the priority window advances, modelling Galois' ordered-list
    scheduler.  Work-efficiency is lost instead (stale and duplicate entries
    are processed), which the relaxation counters expose.
    """
    stats.num_threads = pool.num_threads
    pool.bind_stats(stats)
    degrees = graph.out_degrees()
    commit = _charged(relax, stats)
    previous_order: int | None = None
    rounds_since_sync = 0
    for frontier in _frontiers(queue, should_stop):
        stats.begin_round()
        chunks = pool.partition(frontier, degrees=degrees[frontier])
        # Galois emulation: no per-round commit order — under the parallel
        # engine commits apply in completion order under its lock, so
        # priority inversions across workers are possible (and admissible).
        pool.run_round(chunks, relax.gather, commit, ordered=False)
        # A synchronization is charged when the priority window advances and
        # periodically for distributed termination detection (Galois'
        # scheduler is cheap but not free).
        advanced = queue.current_order != previous_order
        previous_order = queue.current_order
        rounds_since_sync += 1
        syncs = 0
        if advanced or rounds_since_sync >= 8:
            syncs = 1
            rounds_since_sync = 0
        stats.end_round(syncs=syncs)
