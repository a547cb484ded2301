"""Execution statistics and the simulated-parallel-time cost model.

The paper's comparisons between bucketing strategies reduce to a small set of
measurable quantities: number of processing rounds (each costing a global
synchronization), number of fused rounds (which cost no synchronization),
per-round work and its distribution across threads, bucket insertions, buffer
traffic for the lazy approach, and atomic operations.  :class:`RuntimeStats`
counts all of them, and :class:`CostModel` converts them to a simulated
parallel running time:

    time = sum over rounds of (max work of any thread in that round) * work_unit
         + (number of global synchronizations) * sync
         + serial per-operation charges (bucket inserts, buffer ops, atomics)

Because the Python interpreter executes everything sequentially, wall-clock
time alone cannot reflect barrier costs on a 24-core machine; the simulated
time restores exactly the component the paper's optimizations target (fewer
rounds, fewer synchronizations, balanced thread work).  The interpreter runs
one chunk per round: the per-thread work is the cost model's split of each
relax call (:meth:`RuntimeStats.charge`, :mod:`repro.runtime.threads`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .threads import split_work

__all__ = [
    "RuntimeStats",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "PARALLEL_ONLY_FIELDS",
    "WALL_CLOCK_FIELDS",
]


def _sum_by_key(mine: dict, theirs: dict) -> dict:
    for key, value in theirs.items():
        mine[key] = mine.get(key, 0.0) + float(value)
    return mine


# How two runs' values of one field combine: ``rule(mine, theirs) -> merged``.
_MERGES = {
    "sum": operator.add,
    "extend": operator.iadd,
    "sum-by-key": _sum_by_key,
    "keep": lambda mine, theirs: mine,
}
_KINDS = ("deterministic", "parallel_only", "wall_clock")


def _stat(default=0, *, merge: str = "sum", kind: str = "deterministic"):
    """Declare one :class:`RuntimeStats` field: its default, how two runs'
    values combine in :meth:`RuntimeStats.merge`, and what it is —
    ``deterministic`` (a pure function of program, schedule and graph; part
    of every oracle comparison), ``parallel_only`` (deterministic, but only
    the real-parallel engine populates it) or ``wall_clock`` (derived from
    clock reads, never compared)."""
    metadata = {"merge": merge, "kind": kind}
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


def _declared_fields(cls) -> dict[str, dict]:
    """``{public field: its _stat metadata}`` in declaration order.  A field
    without a valid declaration is an error, so ``merge()`` and the
    serializers can never silently skip a counter."""
    table = {f.name: f.metadata for f in fields(cls) if not f.name.startswith("_")}
    for name, meta in table.items():
        if meta.get("merge") not in _MERGES or meta.get("kind") not in _KINDS:
            raise TypeError(f"{cls.__name__}.{name} must be declared with _stat()")
    return table


@dataclass(frozen=True)
class CostModel:
    """Per-operation charges (arbitrary units; defaults loosely model cycles).

    Attributes
    ----------
    work_unit:
        Cost of one unit of thread work (one edge relaxation or one local
        bucket operation) on the critical path.
    sync:
        Cost of one global synchronization (barrier / round handoff).
    bucket_insert:
        Extra charge per bucket insertion beyond the generic work unit
        (amortized allocation + indexing).
    buffer_op:
        Charge per lazy-buffer append or reduction entry.
    atomic:
        Extra charge per atomic operation over a plain write.
    """

    work_unit: float = 1.0
    sync: float = 600.0
    bucket_insert: float = 2.0
    buffer_op: float = 2.0
    atomic: float = 4.0


DEFAULT_COST_MODEL = CostModel()


@dataclass
class RuntimeStats:
    """Counters collected during one algorithm execution."""

    num_threads: int = _stat(1, merge="keep")
    rounds: int = _stat()
    fused_rounds: int = _stat()
    global_syncs: int = _stat()
    relaxations: int = _stat()
    priority_updates: int = _stat()
    bucket_inserts: int = _stat()
    buffer_appends: int = _stat()
    buffer_reductions: int = _stat()
    histogram_updates: int = _stat()
    dedup_hits: int = _stat()
    atomic_ops: int = _stat()
    vertices_processed: int = _stat()
    # --- incremental recomputation (mutation resume) ------------------
    # Populated by the incremental engine; all stay 0 for from-scratch runs.
    incremental_runs: int = _stat()
    incremental_mutations: int = _stat()
    incremental_seeds: int = _stat()
    incremental_invalidated: int = _stat()
    incremental_vertices_touched: int = _stat()
    max_work_per_round: list[int] = _stat(list, merge="extend")
    total_work_per_round: list[int] = _stat(list, merge="extend")
    # --- workload telemetry (crossover axes) --------------------------
    # Frontier size and open-bucket occupancy recorded at each lazy/eager
    # ``dequeue_ready_set`` — the per-round shape of the traversal, the
    # axes the paper says drive the lazy/eager/fusion crossover.  Both are
    # appended only at coordinator-driven dequeues (deterministic under
    # the parallel engine, like ``vertices_processed``); the relaxed queue
    # skips them (its chunk order is scheduling-dependent by design).
    frontier_per_round: list[int] = _stat(list, merge="extend")
    bucket_occupancy_per_round: list[int] = _stat(list, merge="extend")
    # --- real-parallel observables ------------------------------------
    # All of these stay at their defaults under ``execution=serial`` so
    # serial stat dumps remain byte-identical across releases.
    execution: str = _stat("serial", merge="keep", kind="parallel_only")
    parallel_rounds: int = _stat(kind="parallel_only")
    barrier_waits: int = _stat(kind="parallel_only")
    barrier_wait_time: float = _stat(0.0, kind="wall_clock")
    worker_wall_time: dict[int, float] = _stat(
        dict, merge="sum-by-key", kind="wall_clock"
    )
    _current_work: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Open a new global round; per-thread work accumulators reset."""
        if self._current_work is not None:
            raise RuntimeError("begin_round called with a round already open")
        self._current_work = np.zeros(self.num_threads, dtype=np.int64)

    def charge(
        self,
        costs,
        policy: str = "dynamic-vertex-parallel",
        chunk_size: int = 64,
    ) -> None:
        """Charge one relax call's per-item work (a vertex costs its degree
        + 1) to the open round, split across the virtual threads by
        :func:`~repro.runtime.threads.split_work`."""
        if self._current_work is None:
            raise RuntimeError("charge called outside a round")
        self._current_work += split_work(costs, self.num_threads, policy, chunk_size)

    def end_round(self, syncs: int = 1, fused: int = 0) -> None:
        """Close the open round.

        Parameters
        ----------
        syncs:
            Number of global synchronizations this round performed (the lazy
            approach performs two: one to reduce the update buffer and one at
            the round boundary; the eager approach performs one).
        fused:
            Number of extra bucket-processing passes that were folded into
            this round by bucket fusion (they cost work but no sync).
        """
        if self._current_work is None:
            raise RuntimeError("end_round called without begin_round")
        self.rounds += 1
        self.fused_rounds += int(fused)
        self.global_syncs += int(syncs)
        self.max_work_per_round.append(int(self._current_work.max()))
        self.total_work_per_round.append(int(self._current_work.sum()))
        self._current_work = None

    def record_parallel_round(
        self, worker_times: dict[int, float], barrier_wait: float
    ) -> None:
        """Record one real-parallel round's wall-time observables.

        ``worker_times`` maps virtual-thread id to the wall-clock seconds its
        produce phase spent on a real worker thread; ``barrier_wait`` is how
        long the coordinator blocked at the round barrier.  Only the parallel
        engine calls this, so serial runs never populate these fields.
        """
        self.parallel_rounds += 1
        self.barrier_waits += 1
        self.barrier_wait_time += float(barrier_wait)
        _sum_by_key(self.worker_wall_time, worker_times)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Full JSON-safe serialization with deterministic key order.

        Keys follow field declaration order (stable across calls and
        processes); ``worker_wall_time`` serializes with *string* keys in
        ascending numeric order, because JSON objects cannot carry int keys.
        The private ``_current_work`` accumulator is never serialized.
        """
        out: dict = {}
        for name in _FIELDS:
            value = getattr(self, name)
            if isinstance(value, dict):
                value = {str(key): float(value[key]) for key in sorted(value)}
            elif isinstance(value, list):
                value = list(value)
            out[name] = value
        return out

    def deterministic_dict(self) -> dict:
        """The oracle-comparison dump: every ``deterministic`` field.

        A parallel run and the sequential oracle must agree on this dict
        bit for bit (the contract the differential test layer enforces);
        the excluded fields are exactly :data:`PARALLEL_ONLY_FIELDS` and
        :data:`WALL_CLOCK_FIELDS`.
        """
        return {
            key: value
            for key, value in self.to_dict().items()
            if _FIELDS[key]["kind"] == "deterministic"
        }

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_work(self) -> int:
        """Total work units across all threads and rounds."""
        return sum(self.total_work_per_round)

    @property
    def critical_path_work(self) -> int:
        """Work units on the simulated critical path (max thread per round)."""
        return sum(self.max_work_per_round)

    def simulated_time(self, cost_model: CostModel = DEFAULT_COST_MODEL) -> float:
        """Simulated parallel running time under ``cost_model`` (see module doc)."""
        parallel_ops = (
            self.bucket_inserts * cost_model.bucket_insert
            + (self.buffer_appends + self.buffer_reductions) * cost_model.buffer_op
            + self.atomic_ops * cost_model.atomic
        ) / max(1, self.num_threads)
        return (
            self.critical_path_work * cost_model.work_unit
            + self.global_syncs * cost_model.sync
            + parallel_ops
        )

    def merge(self, other: "RuntimeStats") -> None:
        """Accumulate another run's counters into this one (for averaging),
        each field by its declared ``merge`` rule."""
        for name, meta in _FIELDS.items():
            rule = _MERGES[meta["merge"]]
            setattr(self, name, rule(getattr(self, name), getattr(other, name)))


_FIELDS = _declared_fields(RuntimeStats)

# What :meth:`RuntimeStats.deterministic_dict` leaves out of oracle comparisons.
PARALLEL_ONLY_FIELDS, WALL_CLOCK_FIELDS = (
    tuple(name for name, meta in _FIELDS.items() if meta["kind"] == kind)
    for kind in ("parallel_only", "wall_clock")
)
