"""The thread engine behind ``execution="parallel"``.

The interpreter runs one chunk per round; virtual threads are the cost
model's split (:mod:`repro.runtime.threads`).  Under ``execution="parallel"``
:meth:`ParallelExecutionEngine.run` runs a round's read-only *produce*
phase (the CSR edge gather, which releases the GIL) on a worker thread
while the coordinator waits at the round barrier; the *commit* phase, every
mutation (priority writes, bucket inserts, statistics), then runs on the
coordinator, as in serial.  Outputs and every deterministic
:class:`~repro.runtime.stats.RuntimeStats` counter are therefore identical
to ``execution="serial"``; the engine adds only ``parallel_rounds``,
``barrier_waits`` and the wall-clock fields.  The real parallel path is
native (OpenMP); this engine stays until the benchmark stops probing it.

In ``serial`` mode, and at one thread, ``run`` is two plain calls.  The
one worker thread is process-wide, so rounds never pay thread start-up.
"""

from __future__ import annotations

import atexit
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

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

_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_LOCK = threading.Lock()


def _shared_executor() -> ThreadPoolExecutor:
    """The process-wide worker thread."""
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-worker"
            )
        return _EXECUTOR


def shutdown_executors() -> None:
    """Shut down the worker thread (idempotent; used by tests/atexit)."""
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        pool, _EXECUTOR = _EXECUTOR, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_executors)


class ParallelExecutionEngine:
    """Runs a round's produce phase inline or on the worker thread.

    Parameters
    ----------
    num_workers:
        The schedule's thread count; above one, ``parallel`` mode engages
        the worker thread.
    mode:
        One of :data:`EXECUTION_MODES`.
    stats:
        Optional :class:`~repro.runtime.stats.RuntimeStats` receiving the
        worker's wall time and the barrier counters.  Serial mode never
        touches it.
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

    @property
    def is_parallel(self) -> bool:
        return self.mode == "parallel" and self.num_workers > 1

    def run(
        self,
        chunk: np.ndarray,
        produce: Callable[[np.ndarray], Any],
        commit: Callable[[np.ndarray, Any], Any],
    ) -> Any:
        """``commit(chunk, produce(chunk))``: ``produce`` must only read
        shared state, ``commit`` owns every mutation.  In parallel mode
        ``produce`` runs on the worker thread behind a round barrier
        (Fig. 5) and ``commit`` on the calling thread after it."""
        if not self.is_parallel:
            return commit(chunk, produce(chunk))

        def timed_produce() -> tuple[Any, float]:
            # The span lands on the worker's trace track.
            with trace_span("worker.produce", "parallel", worker=0, chunk=int(len(chunk))):
                start = time.perf_counter()
                payload = produce(chunk)
                return payload, time.perf_counter() - start

        future = _shared_executor().submit(timed_produce)
        with trace_span("barrier.wait", "parallel", chunks=1):
            barrier_start = time.perf_counter()
            payload, elapsed = future.result()
            barrier_wait = time.perf_counter() - barrier_start
        if self.stats is not None:
            self.stats.record_parallel_round({0: elapsed}, barrier_wait)
        _ROUNDS.inc()
        _WORKERS.set(1)
        _BARRIER_WAIT_US.observe(int(barrier_wait * 1e6))
        if len(chunk):
            _CHUNK_SIZE.observe(len(chunk))
        # The barrier is the merge point for the per-worker metric shards:
        # the worker is quiescent here and the merges are commutative sums.
        _SHARD_MERGES.inc()
        metrics.merge_shards()
        with trace_span("commit.replay", "parallel", ordered=True):
            return commit(chunk, payload)
