"""The eager ordered-processing executor: the runtime form of the loop.

Section 5.2 of the paper describes how the compiler replaces the user's

    while (pq.finished() == false)
        var bucket = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(udf);

loop with an *ordered processing operator* backed by an optimized runtime
library.  :func:`run_eager` is that operator for the eager strategies, and
the code the Python backend generates (``Context.ordered_process_eager``)
hands it the UDF's relaxer: thread-local buckets and optional **bucket
fusion** (Figure 7) — after draining its share of the global bucket, a
thread keeps processing its own local bucket for the current priority,
with no global synchronization, while that bucket stays under the size
threshold.  Under the lazy and relaxed strategies the user's while loop
survives in the generated code and each round is one apply call.

The executor is generic over a :class:`Relaxer`, which owns everything about
*how* a chunk's edges update priorities; the executor owns only round
structure, work partitioning and accounting.

Every round goes through ``pool.run_round(chunks, relax.gather, commit)``:
a pure *produce* phase (``gather``: CSR edge gathers, which read only
immutable topology) and a mutating *commit* phase (the relaxer proper).
Under ``execution="serial"`` that is the inline per-chunk loop; under
``execution="parallel"`` the gathers run on real worker threads and the
commits replay in chunk order on the coordinating thread, which makes the
committed instruction sequence — and therefore the outputs *and every stats
counter* — bit-identical to serial.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

import numpy as np

from ..buckets.eager import EagerBucketQueue
from ..errors import CompileError
from ..graph.csr import CSRGraph
from ..obs import span as trace_span
from ..runtime.stats import RuntimeStats
from ..runtime.threads import VirtualThreadPool

__all__ = ["Relaxer", "run_eager"]


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


def run_eager(
    graph: CSRGraph,
    queue: EagerBucketQueue,
    relax: Relaxer,
    pool: VirtualThreadPool,
    stats: RuntimeStats,
    fusion_threshold: int = 0,
    should_stop: Callable[[], bool] | None = None,
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

    while True:
        # Dequeue ready sets until the queue drains or ``should_stop`` fires.
        frontier = queue.dequeue_ready_set()
        if frontier.size == 0 or (should_stop is not None and should_stop()):
            return
        with trace_span("eager.round", "runtime", frontier=int(frontier.size)) as sp:
            stats.begin_round()
            fused = 0
            chunks = pool.partition(frontier, degrees=degrees[frontier])
            pool.run_round(chunks, relax.gather, commit)
            stats.end_round(syncs=1, fused=fused)
            sp["fused_runs"] = fused
