"""The scheduling language (Table 2 of the paper).

A :class:`Schedule` captures every optimization knob for one labelled
``applyUpdatePriority`` statement; :class:`SchedulingProgram` is the fluent
builder the paper's schedules are written in::

    program = (SchedulingProgram()
        .config_apply_priority_update("s1", "lazy")
        .config_apply_priority_update_delta("s1", 4)
        .config_apply_direction("s1", "SparsePush")
        .config_apply_parallelization("s1", "dynamic-vertex-parallel"))

CamelCase aliases (``configApplyPriorityUpdate`` …) are provided so the
schedules in the paper can be transcribed verbatim.

Illegal combinations are rejected eagerly, mirroring the compiler's
feasibility analysis: the eager strategies require push-direction traversal
(the paper combines direction optimization only with lazy schedules), and
lazy-with-constant-sum additionally requires the midend to prove the UDF
performs a single constant-difference ``updatePrioritySum``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import SchedulingError
from ..runtime.parallel import EXECUTION_MODES
from ..runtime.threads import PARALLELIZATION_POLICIES

__all__ = [
    "PRIORITY_UPDATE_STRATEGIES",
    "TRAVERSAL_DIRECTIONS",
    "EXECUTION_MODES",
    "Schedule",
    "SchedulingProgram",
]

PRIORITY_UPDATE_STRATEGIES = (
    "eager_with_fusion",
    "eager_no_fusion",
    "lazy",
    "lazy_constant_sum",
    "relaxed",
)

TRAVERSAL_DIRECTIONS = ("SparsePush", "DensePull")


@dataclass(frozen=True)
class Schedule:
    """All optimization settings for one ``applyUpdatePriority`` statement.

    Attributes
    ----------
    priority_update:
        Bucket update strategy (``configApplyPriorityUpdate``).
        ``relaxed`` is Galois' approximate priority ordering: a dequeue
        takes a chunk spanning the few lowest open orders, nothing is ever
        finalized, and a global synchronization is charged only when the
        window of orders moves (or every 8 rounds).  Only the Python
        runtime lowers it (native execution is refused, ``S003``), only
        for a min/max update loop, and only with SparsePush traversal.
    delta:
        Priority-coarsening factor Δ (``configApplyPriorityUpdateDelta``).
    bucket_fusion_threshold:
        Local-bucket size threshold for bucket fusion
        (``configBucketFusionThreshold``); only meaningful with
        ``eager_with_fusion``.
    num_buckets:
        Number of materialized buckets for the lazy strategies
        (``configNumBuckets``).
    direction:
        Edge traversal direction (``configApplyDirection`` from the original
        GraphIt scheduling language).
    parallelization:
        Load-balancing policy (``configApplyParallelization``).  The
        interpreter runs one chunk per round, so there the policy (like
        ``num_threads`` and ``chunk_size``) only sets how the cost model
        splits each relax call's work across its virtual threads.
    num_threads:
        For the interpreter, the cost model's virtual-thread count.  Under
        ``execution="native"`` it is the OpenMP thread count, and 1 builds
        serial code: no atomic read-modify-write and no parallel region.
    chunk_size:
        Work-chunk granularity for dynamic policies (OpenMP's
        ``schedule(dynamic, 64)``).
    execution:
        ``serial`` runs each round inline (the differential-test oracle's
        mode); ``parallel`` runs each round's read-only edge gather on a
        worker thread via the
        :class:`~repro.runtime.parallel.ParallelExecutionEngine`, with
        results identical to serial; ``native``
        compiles the C++ backend into a cached shared library and runs it
        in-process, falling back to serial vectorized execution (with an
        ``N101`` diagnostic) when no C++ toolchain is available
        (``configExecution``).
    sanitize:
        Enable the schedule sanitizer: the runtime records every property
        vector actually read/written during each apply dispatch and fails
        loudly on any access outside the static effect summary embedded in
        the generated program (``repro run --sanitize``).  Off by default —
        instrumented vectors cost a bounds check per element access.
    incremental:
        Resume the converged run after graph mutations instead of
        recomputing from scratch (``repro run --incremental``).  Only
        programs whose ordered loop is an extremal min/max fixpoint are
        eligible (the ``I001`` analysis); requires the interpreted
        runtime — the native path owns its queues in C++ and cannot be
        re-seeded from Python (``configIncremental``).
    """

    priority_update: str = "eager_no_fusion"
    delta: int = 1
    bucket_fusion_threshold: int = 1000
    num_buckets: int = 128
    direction: str = "SparsePush"
    parallelization: str = "dynamic-vertex-parallel"
    num_threads: int = 8
    chunk_size: int = 64
    execution: str = "serial"
    sanitize: bool = False
    incremental: bool = False

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Validation (the compiler's schedule feasibility checks)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.priority_update not in PRIORITY_UPDATE_STRATEGIES:
            raise SchedulingError(
                f"unknown priority update strategy {self.priority_update!r}; "
                f"expected one of {PRIORITY_UPDATE_STRATEGIES}"
            )
        if self.direction not in TRAVERSAL_DIRECTIONS:
            raise SchedulingError(
                f"unknown traversal direction {self.direction!r}; "
                f"expected one of {TRAVERSAL_DIRECTIONS}"
            )
        if self.parallelization not in PARALLELIZATION_POLICIES:
            raise SchedulingError(
                f"unknown parallelization {self.parallelization!r}; "
                f"expected one of {PARALLELIZATION_POLICIES}"
            )
        if self.delta < 1:
            raise SchedulingError("delta must be >= 1")
        if self.num_buckets < 1:
            raise SchedulingError("num_buckets must be >= 1")
        if self.bucket_fusion_threshold < 1:
            raise SchedulingError("bucket fusion threshold must be >= 1")
        if self.num_threads < 1:
            raise SchedulingError("num_threads must be >= 1")
        if self.chunk_size < 1:
            raise SchedulingError("chunk_size must be >= 1")
        if self.execution not in EXECUTION_MODES:
            raise SchedulingError(
                f"unknown execution mode {self.execution!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        if self.execution == "native" and self.sanitize:
            raise SchedulingError(
                "the schedule sanitizer instruments the Python runtime; "
                "native execution cannot be sanitized (drop --sanitize or "
                "use execution='serial')"
            )
        if self.execution == "native" and self.incremental:
            raise SchedulingError(
                "incremental resume seeds the interpreted engine's queues "
                "from Python; native kernels own their buckets in C++ and "
                "cannot be re-seeded (drop --incremental or use "
                "execution='serial'/'parallel')"
            )
        if (self.is_eager or self.is_relaxed) and self.direction != "SparsePush":
            # Section 4.2: direction optimization combines with the *lazy*
            # priority update schedules; the eager and relaxed runtimes are
            # push-only.
            raise SchedulingError(
                f"{self.priority_update} bucket update requires SparsePush "
                "traversal; direction optimization is only available with "
                "lazy schedules"
            )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def is_eager(self) -> bool:
        return self.priority_update in ("eager_with_fusion", "eager_no_fusion")

    @property
    def is_relaxed(self) -> bool:
        return self.priority_update == "relaxed"

    @property
    def is_lazy(self) -> bool:
        return not (self.is_eager or self.is_relaxed)

    @property
    def uses_fusion(self) -> bool:
        return self.priority_update == "eager_with_fusion"

    @property
    def uses_histogram(self) -> bool:
        return self.priority_update == "lazy_constant_sum"

    def with_(self, **changes) -> "Schedule":
        """A modified copy (``dataclasses.replace`` with validation)."""
        return replace(self, **changes)


class SchedulingProgram:
    """Fluent builder over per-label schedules (the ``program->...`` chain).

    Beyond the merged per-label :class:`Schedule`, the builder records every
    individual command issued (``commands_for``) and every label a backend
    actually looked up (``consulted_labels``), so the diagnostics engine can
    flag configs for labels that never appear in any program — the silent
    misspelled-label footgun — and knobs that are dead under the chosen
    strategy.
    """

    def __init__(self, default: Schedule | None = None):
        self._default = default if default is not None else Schedule()
        self._schedules: dict[str, Schedule] = {}
        # Every (knob, value) command, in issue order, keyed by label.
        self._commands: dict[str, list[tuple[str, object]]] = {}
        # Labels schedule_for() was asked about (the footgun audit trail).
        self._consulted: set[str] = set()

    # ------------------------------------------------------------------
    # Table 2 commands
    # ------------------------------------------------------------------
    def config_apply_priority_update(self, label: str, config: str) -> "SchedulingProgram":
        return self._update(label, priority_update=config)

    def config_apply_priority_update_delta(
        self, label: str, config: int | str
    ) -> "SchedulingProgram":
        return self._update(label, delta=self._parse_int(config, "delta"))

    def config_bucket_fusion_threshold(
        self, label: str, config: int | str
    ) -> "SchedulingProgram":
        return self._update(
            label, bucket_fusion_threshold=self._parse_int(config, "threshold")
        )

    def config_num_buckets(self, label: str, config: int | str) -> "SchedulingProgram":
        return self._update(label, num_buckets=self._parse_int(config, "num_buckets"))

    # ------------------------------------------------------------------
    # Original GraphIt scheduling commands used in the paper
    # ------------------------------------------------------------------
    def config_apply_direction(self, label: str, config: str) -> "SchedulingProgram":
        return self._update(label, direction=config)

    def config_apply_parallelization(self, label: str, config: str) -> "SchedulingProgram":
        return self._update(label, parallelization=config)

    def config_num_threads(self, label: str, config: int | str) -> "SchedulingProgram":
        return self._update(label, num_threads=self._parse_int(config, "num_threads"))

    def config_chunk_size(self, label: str, config: int | str) -> "SchedulingProgram":
        return self._update(label, chunk_size=self._parse_int(config, "chunk_size"))

    def config_execution(self, label: str, config: str) -> "SchedulingProgram":
        return self._update(label, execution=config)

    def config_incremental(self, label: str, config: bool | str) -> "SchedulingProgram":
        return self._update(label, incremental=self._parse_bool(config, "incremental"))

    # CamelCase aliases so paper schedules paste directly.
    configApplyPriorityUpdate = config_apply_priority_update
    configApplyPriorityUpdateDelta = config_apply_priority_update_delta
    configBucketFusionThreshold = config_bucket_fusion_threshold
    configNumBuckets = config_num_buckets
    configApplyDirection = config_apply_direction
    configApplyParallelization = config_apply_parallelization
    configNumThreads = config_num_threads
    configChunkSize = config_chunk_size
    configExecution = config_execution
    configIncremental = config_incremental

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def schedule_for(self, label: str) -> Schedule:
        """The schedule for a label (the default when never configured).

        Every lookup is recorded; :attr:`consulted_labels` exposes which
        labels the compiler actually used, so callers can detect configured
        labels that were never consulted (usually a typo).
        """
        self._consulted.add(label)
        return self._schedules.get(label, self._default)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._schedules)

    @property
    def consulted_labels(self) -> frozenset[str]:
        """Labels :meth:`schedule_for` has been asked about so far."""
        return frozenset(self._consulted)

    def unconsulted_labels(self) -> tuple[str, ...]:
        """Configured labels no compilation ever looked up (typo suspects)."""
        return tuple(
            label for label in self._schedules if label not in self._consulted
        )

    def commands_for(self, label: str) -> tuple[tuple[str, object], ...]:
        """The individual (knob, value) commands issued for ``label``."""
        return tuple(self._commands.get(label, ()))

    def _update(self, label: str, **changes) -> "SchedulingProgram":
        if not label:
            raise SchedulingError("schedule label must be non-empty")
        current = self._schedules.get(label, self._default)
        self._schedules[label] = current.with_(**changes)
        self._commands.setdefault(label, []).extend(changes.items())
        return self

    @staticmethod
    def _parse_int(value: int | str, name: str) -> int:
        try:
            return int(value)
        except (TypeError, ValueError) as exc:
            raise SchedulingError(f"{name} must be an integer, got {value!r}") from exc

    @staticmethod
    def _parse_bool(value: bool | str, name: str) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise SchedulingError(f"{name} must be a boolean, got {value!r}")
