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
rounds, fewer synchronizations, balanced thread work).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = [
    "RuntimeStats",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "PARALLEL_ONLY_FIELDS",
    "WALL_CLOCK_FIELDS",
]

# Fields only the real-parallel engine populates.  Excluded (together with
# the wall-clock fields) from oracle comparisons: a parallel run is compared
# to the sequential oracle on every *deterministic* counter.
PARALLEL_ONLY_FIELDS = (
    "execution",
    "parallel_rounds",
    "barrier_waits",
    "barrier_wait_time",
    "worker_wall_time",
)

# Fields derived from wall-clock measurements — inherently nondeterministic,
# never part of any bit-identical comparison.
WALL_CLOCK_FIELDS = ("barrier_wait_time", "worker_wall_time", "phase_timings")


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

    num_threads: int = 1
    rounds: int = 0
    fused_rounds: int = 0
    global_syncs: int = 0
    relaxations: int = 0
    priority_updates: int = 0
    bucket_inserts: int = 0
    buffer_appends: int = 0
    buffer_reductions: int = 0
    histogram_updates: int = 0
    dedup_hits: int = 0
    atomic_ops: int = 0
    vertices_processed: int = 0
    # --- incremental recomputation (mutation resume) ------------------
    # All stay 0 for from-scratch runs, keeping historical stat dumps
    # byte-identical.  Populated by the incremental engine; deterministic,
    # so they participate in oracle comparisons.
    incremental_runs: int = 0
    incremental_mutations: int = 0
    incremental_seeds: int = 0
    incremental_invalidated: int = 0
    incremental_vertices_touched: int = 0
    max_work_per_round: list[int] = field(default_factory=list)
    total_work_per_round: list[int] = field(default_factory=list)
    # --- workload telemetry (crossover axes) --------------------------
    # Frontier size and open-bucket occupancy recorded at each lazy/eager
    # ``dequeue_ready_set`` — the per-round shape of the traversal, the
    # axes the paper says drive the lazy/eager/fusion crossover.  Both are
    # appended only at coordinator-driven dequeues (deterministic under
    # the parallel engine, like ``vertices_processed``); the relaxed queue
    # skips them (its chunk order is scheduling-dependent by design).
    frontier_per_round: list[int] = field(default_factory=list)
    bucket_occupancy_per_round: list[int] = field(default_factory=list)
    # --- real-parallel observables (PR 3) -----------------------------
    # All of these stay at their defaults under ``execution=serial`` so
    # serial stat dumps remain byte-identical across releases (the
    # differential tests compare ``dataclasses.asdict`` dumps).
    execution: str = "serial"
    parallel_rounds: int = 0
    barrier_waits: int = 0
    barrier_wait_time: float = 0.0
    worker_wall_time: dict[int, float] = field(default_factory=dict)
    # Timestamped phase timings (tracing subsystem).  Each entry is
    # {"phase": str, "start_us": float, "dur_us": float}, appended only
    # while a tracer is active (obs.stat_span), so untraced runs — the
    # differential oracle included — keep this empty and their stat dumps
    # bit-identical across releases.
    phase_timings: list[dict] = field(default_factory=list)
    _current_work: list[int] | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Open a new global round; per-thread work accumulators reset."""
        if self._current_work is not None:
            raise RuntimeError("begin_round called with a round already open")
        self._current_work = [0] * self.num_threads

    def add_thread_work(self, thread_id: int, units: int) -> None:
        """Charge ``units`` of work to ``thread_id`` in the open round."""
        if self._current_work is None:
            raise RuntimeError("add_thread_work called outside a round")
        self._current_work[thread_id] += int(units)

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
        self.max_work_per_round.append(max(self._current_work, default=0))
        self.total_work_per_round.append(sum(self._current_work))
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
        for thread_id, seconds in worker_times.items():
            self.worker_wall_time[thread_id] = (
                self.worker_wall_time.get(thread_id, 0.0) + float(seconds)
            )

    def record_phase(self, phase: str, start_us: float, dur_us: float) -> None:
        """Append one timestamped phase timing (tracing-on runs only).

        Called by :func:`repro.obs.stat_span`; the timestamps are
        microseconds on the active tracer's clock, so phase timings line up
        with the Chrome-trace spans of the same run.
        """
        self.phase_timings.append(
            {"phase": phase, "start_us": float(start_us), "dur_us": float(dur_us)}
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Full JSON-safe serialization with deterministic key order.

        Keys follow field declaration order (stable across calls and
        processes); ``worker_wall_time`` serializes with *string* keys in
        ascending numeric order, because JSON objects cannot carry int keys
        and a round-trip through ``json.dumps``/``loads`` must be lossless.
        The private ``_current_work`` accumulator is never serialized.
        """
        out: dict = {}
        for spec in fields(self):
            if spec.name.startswith("_"):
                continue
            value = getattr(self, spec.name)
            if spec.name == "worker_wall_time":
                value = {
                    str(tid): float(value[tid]) for tid in sorted(value)
                }
            elif isinstance(value, list):
                value = list(value)
            out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "RuntimeStats":
        """Inverse of :meth:`to_dict` (tolerates missing newer fields)."""
        known = {spec.name for spec in fields(cls) if not spec.name.startswith("_")}
        kwargs = {key: value for key, value in payload.items() if key in known}
        if "worker_wall_time" in kwargs:
            kwargs["worker_wall_time"] = {
                int(tid): float(seconds)
                for tid, seconds in kwargs["worker_wall_time"].items()
            }
        return cls(**kwargs)

    def deterministic_dict(self) -> dict:
        """The oracle-comparison dump: every deterministic counter, no
        wall-clock-dependent and no parallel-only fields.

        A parallel run and the sequential oracle must agree on this dict
        bit for bit (the contract the differential test layer enforces);
        the excluded fields are exactly :data:`PARALLEL_ONLY_FIELDS` and
        :data:`WALL_CLOCK_FIELDS`.
        """
        excluded = set(PARALLEL_ONLY_FIELDS) | set(WALL_CLOCK_FIELDS)
        return {
            key: value
            for key, value in self.to_dict().items()
            if key not in excluded
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
        """Accumulate another run's counters into this one (for averaging)."""
        self.rounds += other.rounds
        self.fused_rounds += other.fused_rounds
        self.global_syncs += other.global_syncs
        self.relaxations += other.relaxations
        self.priority_updates += other.priority_updates
        self.bucket_inserts += other.bucket_inserts
        self.buffer_appends += other.buffer_appends
        self.buffer_reductions += other.buffer_reductions
        self.histogram_updates += other.histogram_updates
        self.dedup_hits += other.dedup_hits
        self.atomic_ops += other.atomic_ops
        self.vertices_processed += other.vertices_processed
        self.incremental_runs += other.incremental_runs
        self.incremental_mutations += other.incremental_mutations
        self.incremental_seeds += other.incremental_seeds
        self.incremental_invalidated += other.incremental_invalidated
        self.incremental_vertices_touched += other.incremental_vertices_touched
        self.max_work_per_round.extend(other.max_work_per_round)
        self.total_work_per_round.extend(other.total_work_per_round)
        self.frontier_per_round.extend(other.frontier_per_round)
        self.bucket_occupancy_per_round.extend(other.bucket_occupancy_per_round)
        self.parallel_rounds += other.parallel_rounds
        self.barrier_waits += other.barrier_waits
        self.barrier_wait_time += other.barrier_wait_time
        for thread_id, seconds in other.worker_wall_time.items():
            self.worker_wall_time[thread_id] = (
                self.worker_wall_time.get(thread_id, 0.0) + seconds
            )
        self.phase_timings.extend(other.phase_timings)

    def summary(self) -> dict[str, float]:
        """A flat dictionary of the headline numbers, for reports."""
        return {
            "threads": self.num_threads,
            "rounds": self.rounds,
            "fused_rounds": self.fused_rounds,
            "global_syncs": self.global_syncs,
            "relaxations": self.relaxations,
            "bucket_inserts": self.bucket_inserts,
            "buffer_appends": self.buffer_appends,
            "total_work": self.total_work,
            "critical_path_work": self.critical_path_work,
            "simulated_time": self.simulated_time(),
        }
