"""The eager ordered-processing executor: the runtime form of the loop.

Section 5.2 of the paper describes how the compiler replaces the user's

    while (pq.finished() == false)
        var bucket = pq.dequeueReadySet();
        edges.from(bucket).applyUpdatePriority(udf);

loop with an *ordered processing operator* backed by an optimized runtime
library.  :func:`run_eager` is that operator for the eager strategies, and
the code the Python backend generates (``Context.ordered_process_eager``)
hands it the UDF's relaxer: eager bucket inserts and optional **bucket
fusion** (Figure 7) — after relaxing the global bucket, keep processing the
local bucket for the current priority, with no global synchronization,
while that bucket stays under the size threshold.  Under the lazy and
relaxed strategies the user's while loop survives in the generated code
and each round is one apply call.

The executor is generic over a :class:`Relaxer`, which owns everything about
*how* a chunk's edges update priorities and what the cost model charges for
it; the executor owns only round structure.  The interpreter runs one chunk
per round: each round is one relax call on the whole frontier plus one per
fused run; virtual threads are the cost model's split
(:mod:`repro.runtime.threads`).  A round's initial relaxation goes through
``engine.run(frontier, relax.gather, relax)``: a read-only *produce* phase
(the CSR edge gather) and the mutating relaxer proper, so under
``execution="parallel"`` the gather runs on the worker thread and outputs
and every stats counter stay identical to serial.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

import numpy as np

from ..buckets.eager import EagerBucketQueue
from ..obs import span as trace_span
from ..runtime.parallel import ParallelExecutionEngine
from ..runtime.stats import RuntimeStats

__all__ = ["Relaxer", "run_eager"]


class Relaxer(Protocol):
    """How one chunk updates priorities.

    ``gather(chunk)`` is the read-only produce phase; whatever it returns is
    handed back as ``prefetched``.  ``relax(chunk, prefetched)`` applies the
    updates and charges the chunk's work to the cost model.  ``prefetched``
    is ``None`` for a fused run's local bucket, which did not exist at
    produce time: the relaxer gathers it itself.
    """

    def __call__(self, chunk: np.ndarray, prefetched: Any) -> None: ...

    def gather(self, chunk: np.ndarray) -> Any: ...


def run_eager(
    queue: EagerBucketQueue,
    relax: Relaxer,
    engine: ParallelExecutionEngine,
    stats: RuntimeStats,
    fusion_threshold: int = 0,
    should_stop: Callable[[], bool] | None = None,
) -> None:
    """Drive the eager ordered-processing loop (Figures 6 and 7).

    ``fusion_threshold > 0`` enables bucket fusion with that size threshold;
    0 reproduces plain GAPBS-style eager processing.
    """
    while True:
        # Dequeue ready sets until the queue drains or ``should_stop`` fires.
        frontier = queue.dequeue_ready_set()
        if frontier.size == 0 or (should_stop is not None and should_stop()):
            return
        with trace_span("eager.round", "runtime", frontier=int(frontier.size)) as sp:
            stats.begin_round()
            engine.run(frontier, relax.gather, relax)
            fused = 0
            # Figure 7, lines 14-20: keep draining the local bucket for the
            # current priority without synchronizing.
            while fusion_threshold > 0:
                local = queue.pop_local_bucket(fusion_threshold)
                if local is None:
                    break
                fused += 1
                with trace_span("eager.fused_run", "runtime", size=int(local.size)):
                    relax(local, None)
            stats.end_round(syncs=1, fused=fused)
            sp["fused_runs"] = fused
