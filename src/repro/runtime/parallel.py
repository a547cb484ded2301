"""Real shared-memory parallel execution of ordered-processing rounds.

Until PR 3 the runtime was *simulated*-parallel only: :class:`VirtualThreadPool`
partitioned every frontier into per-thread chunks, but the chunks were executed
one after another on the calling thread.  PR 2 changed the economics — the
batch numpy kernels that now implement every vectorizable ``apply`` release the
GIL while they gather edges and scan segments, so running the per-thread
partitions on *real* threads buys genuine overlap on multicore hardware.

:class:`ParallelExecutionEngine` is the piece that makes that safe.  It builds
on one structural observation about the PR 2 kernels: every round splits into

``produce``
    a pure, read-only phase (CSR edge gathers, per-chunk running-extrema
    scans, histogram counting) that only *reads* shared state, and

``commit``
    a mutating phase (priority-vector writes, bucket/buffer inserts,
    statistics) that is cheap relative to ``produce``.

The engine therefore runs all ``produce`` calls concurrently on a worker pool
and then applies the ``commit`` calls on the coordinating thread, in chunk
order after a round barrier, for every strategy (the relaxed one included).
Because the commit sequence is then *exactly* the sequence the serial engine
executes, outputs and every :class:`~repro.runtime.stats.RuntimeStats`
counter are bit-identical to the sequential oracle by construction — this is
the determinism contract the differential test layer enforces.  The barrier
is the paper's Fig. 5 synchronization point; the engine records how long the
coordinator waited on it (``barrier_wait_time``) and how often
(``barrier_waits``).

In ``serial`` mode the engine degenerates to the inline loop the runtime has
always executed — same object code path, zero threads, zero new stats — so
``execution=serial`` remains the bit-exact baseline and the default.

Worker threads are drawn from process-wide :class:`ThreadPoolExecutor`
instances cached per worker count, so repeated rounds (thousands for
delta-stepping on large graphs) never pay thread start-up, and the process
never leaks an unbounded number of threads.
"""

from __future__ import annotations

import atexit
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import SchedulingError
from ..obs import metrics
from ..obs import span as trace_span

__all__ = ["ParallelExecutionEngine", "EXECUTION_MODES", "shutdown_executors"]

_ROUNDS = metrics.counter("parallel.rounds")
_CHUNK_SIZE = metrics.histogram("parallel.chunk_size")
_WORKERS = metrics.gauge("parallel.workers")
_SHARD_MERGES = metrics.counter("parallel.shard_merges")
_BARRIER_WAIT_US = metrics.histogram("parallel.barrier_wait_us")

# "native" dispatches to a compiled shared-library kernel before the Python
# runtime is entered; if that falls through (no toolchain — N101) the Python
# engine treats the mode exactly like "serial" (nothing below branches on
# it), which *is* the documented fallback behaviour.
EXECUTION_MODES = ("serial", "parallel", "native")

# ---------------------------------------------------------------------------
# Shared worker pools
# ---------------------------------------------------------------------------

_EXECUTORS: dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def _shared_executor(num_workers: int) -> ThreadPoolExecutor:
    """Return the process-wide executor with ``num_workers`` threads."""
    with _EXECUTORS_LOCK:
        pool = _EXECUTORS.get(num_workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=num_workers,
                thread_name_prefix=f"repro-worker-{num_workers}",
            )
            _EXECUTORS[num_workers] = pool
        return pool


def shutdown_executors() -> None:
    """Shut down every cached worker pool (idempotent; used by tests/atexit)."""
    with _EXECUTORS_LOCK:
        pools = list(_EXECUTORS.values())
        _EXECUTORS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_executors)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

Produce = Callable[[np.ndarray, int], Any]
Commit = Callable[[np.ndarray, int, Any], None]


class ParallelExecutionEngine:
    """Executes one round's per-thread chunks serially or on real threads.

    Parameters
    ----------
    num_workers:
        Number of OS worker threads used in ``parallel`` mode (also the
        number of virtual threads the chunks were partitioned for).
    mode:
        ``"serial"`` (inline loop, the bit-exact baseline) or ``"parallel"``
        (real :class:`ThreadPoolExecutor` workers).
    stats:
        Optional :class:`~repro.runtime.stats.RuntimeStats` receiving
        per-worker wall time and barrier-wait counters.  Serial mode never
        touches it, so serial stat dumps stay byte-identical to earlier
        releases.
    """

    def __init__(self, num_workers: int = 1, mode: str = "serial", stats=None):
        if mode not in EXECUTION_MODES:
            raise SchedulingError(
                f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
            )
        if num_workers < 1:
            raise SchedulingError("num_workers must be positive")
        self.num_workers = int(num_workers)
        self.mode = mode
        self.stats = stats

    # -- helpers ---------------------------------------------------------

    @property
    def is_parallel(self) -> bool:
        return self.mode == "parallel" and self.num_workers > 1

    def _record(
        self,
        worker_times: dict[int, float],
        barrier_wait: float,
        chunks: Sequence[np.ndarray],
    ) -> None:
        if self.stats is not None:
            self.stats.record_parallel_round(worker_times, barrier_wait)
        _ROUNDS.inc()
        _WORKERS.set(self.num_workers)
        _BARRIER_WAIT_US.observe(int(barrier_wait * 1e6))
        for chunk in chunks:
            if len(chunk):
                _CHUNK_SIZE.observe(len(chunk))
        # The round barrier is the natural merge point for the per-worker
        # metric shards: every worker is quiescent here, and the merges are
        # commutative sums, so the merged registry state is deterministic.
        _SHARD_MERGES.inc()
        metrics.merge_shards()

    # -- round execution -------------------------------------------------

    def run_round(
        self,
        chunks: Sequence[np.ndarray],
        produce: Produce,
        commit: Commit,
    ) -> None:
        """Run one round: ``produce`` every chunk, then ``commit`` each result.

        ``produce(chunk, thread_id)`` must be read-only with respect to
        shared algorithm state; ``commit(chunk, thread_id, payload)`` owns all
        mutation.  Commits happen in chunk order after a barrier
        (deterministic; equals the serial schedule).
        """
        if not self.is_parallel:
            for thread_id, chunk in enumerate(chunks):
                if len(chunk) == 0:
                    continue
                commit(chunk, thread_id, produce(chunk, thread_id))
            return
        self._run_round_ordered(chunks, produce, commit)

    def _run_round_ordered(
        self, chunks: Sequence[np.ndarray], produce: Produce, commit: Commit
    ) -> None:
        work = [(tid, chunk) for tid, chunk in enumerate(chunks) if len(chunk)]
        if not work:
            return
        if len(work) == 1:
            # One populated chunk: threading buys nothing, skip the hop.
            tid, chunk = work[0]
            commit(chunk, tid, produce(chunk, tid))
            return
        pool = _shared_executor(self.num_workers)

        def timed_produce(chunk: np.ndarray, tid: int) -> tuple[Any, float]:
            # The span lands on the *worker's* trace track (per-worker chunk
            # spans); ``worker`` carries the logical virtual-thread id.
            with trace_span(
                "worker.produce", "parallel", worker=tid, chunk=int(len(chunk))
            ):
                start = time.perf_counter()
                payload = produce(chunk, tid)
                return payload, time.perf_counter() - start

        futures: list[tuple[int, np.ndarray, Future]] = [
            (tid, chunk, pool.submit(timed_produce, chunk, tid))
            for tid, chunk in work
        ]
        # Round barrier (Fig. 5): the coordinator blocks until every private
        # produce is done, then replays commits in chunk order.
        with trace_span("barrier.wait", "parallel", chunks=len(futures)):
            barrier_start = time.perf_counter()
            wait([fut for _, _, fut in futures])
            barrier_wait = time.perf_counter() - barrier_start
        worker_times: dict[int, float] = {}
        with trace_span("commit.replay", "parallel", ordered=True):
            for tid, chunk, fut in futures:
                payload, elapsed = fut.result()
                worker_times[tid] = worker_times.get(tid, 0.0) + elapsed
                commit(chunk, tid, payload)
        self._record(worker_times, barrier_wait, chunks)
