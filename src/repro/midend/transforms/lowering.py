"""The midend driver: analyses + schedule validation → a compilation plan.

``plan_program`` is what both backends consume.  It

1. type-checks the program and finds its priority queue(s),
2. recognizes the ordered-processing loop in ``main`` (Section 5.2),
3. resolves the schedule for the loop's label — from an explicit
   :class:`Schedule`/:class:`SchedulingProgram` argument or from the
   program's inline ``schedule:`` block,
4. runs the dependence analysis for atomics/deduplication insertion
   (Section 5.1),
5. runs the constant-sum analysis and builds the Figure 10 transformed UDF
   when the ``lazy_constant_sum`` strategy is scheduled, and
6. rejects infeasible combinations (eager without a recognizable loop,
   histogram without a constant-sum UDF, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import (
    CompileError,
    IncrementalityError,
    MonotonicityError,
    SchedulingError,
)
from ...lang import ast_nodes as ast
from ...obs import span as trace_span
from ...lang.symbols import SymbolTable
from ...lang.typecheck import typecheck
from ...lang.types import PriorityQueueType
from ..analysis.dependence import DependenceInfo, analyze_dependences
from ..analysis.diagnostics import validate_ir_or_raise
from ..analysis.effects import (
    IncrementalEligibility,
    ProgramEffectSummary,
    analyze_program_effects,
    classify_incremental_eligibility,
)
from ..analysis.loop_patterns import OrderedLoopInfo, recognize_ordered_loop
from ..analysis.races import RaceReport, analyze_races
from ..analysis.udf_analysis import (
    ConstantSumInfo,
    analyze_constant_sum,
    find_priority_updates,
)
from ..analysis.vectorize import VectorizeReport, analyze_vectorization
from ..schedule import Schedule, SchedulingProgram
from .histogram_transform import build_transformed_udf

__all__ = ["CompilationPlan", "plan_program", "schedule_from_block"]

# Maps inline schedule-block commands to SchedulingProgram methods.
_SCHEDULE_COMMANDS = {
    "configApplyPriorityUpdate": "config_apply_priority_update",
    "configApplyPriorityUpdateDelta": "config_apply_priority_update_delta",
    "configApplyUpdateDelta": "config_apply_priority_update_delta",
    "configBucketFusionThreshold": "config_bucket_fusion_threshold",
    "configNumBuckets": "config_num_buckets",
    "configApplyDirection": "config_apply_direction",
    "configApplyParallelization": "config_apply_parallelization",
    "configNumThreads": "config_num_threads",
    "configChunkSize": "config_chunk_size",
    "configExecution": "config_execution",
    "configIncremental": "config_incremental",
}


@dataclass
class CompilationPlan:
    """Everything a backend needs to generate code for one program."""

    program: ast.Program
    table: SymbolTable
    queue_names: set[str]
    loop: OrderedLoopInfo | None
    schedule: Schedule
    udf: ast.FuncDecl | None
    dependence: DependenceInfo | None
    constant_sum: ConstantSumInfo | None
    transformed_udf: ast.FuncDecl | None
    races: RaceReport | None = None
    # Per-UDF batch-kernel classification (UDF vectorization pass).  Maps
    # apply-UDF names to their :class:`VectorizeReport`; non-vectorizable
    # UDFs carry a located fallback reason surfaced as diagnostic ``V101``.
    vectorize: dict[str, VectorizeReport] = field(default_factory=dict)
    # Whole-program effect summary: per-UDF read/write/index sets, queue
    # metadata, and monotonicity verdicts.  The Python backend embeds its
    # runtime projection for the schedule sanitizer.
    effects: ProgramEffectSummary | None = None
    # Incremental-resume eligibility (the I001 analysis): computed for
    # every ordered program so `repro analyze` can report it, enforced as
    # a plan-time error only when the schedule requests incremental.
    incremental_eligibility: "IncrementalEligibility | None" = None

    @property
    def label(self) -> str | None:
        return self.loop.label if self.loop is not None else None

    @property
    def needs_atomics(self) -> bool:
        """Whether any classified site requires atomic lowering."""
        return self.races is not None and self.races.needs_atomics


def schedule_from_block(program: ast.Program) -> SchedulingProgram:
    """Build a :class:`SchedulingProgram` from the inline schedule block."""
    scheduling = SchedulingProgram()
    for statement in program.schedule:
        method_name = _SCHEDULE_COMMANDS.get(statement.command)
        if method_name is None:
            raise SchedulingError(
                f"line {statement.line}: unknown scheduling command "
                f"{statement.command!r}"
            )
        if len(statement.arguments) != 2:
            raise SchedulingError(
                f"line {statement.line}: {statement.command} takes a label "
                f"and one configuration value"
            )
        label, value = statement.arguments
        getattr(scheduling, method_name)(label, value)
    return scheduling


def plan_program(
    program: ast.Program,
    schedule: Schedule | SchedulingProgram | None = None,
) -> CompilationPlan:
    """Run the midend (see module docstring) and return the plan."""
    with trace_span("typecheck", "compiler"):
        table = typecheck(program)
    # The IR validator runs between every midend stage: catch a frontend
    # that handed over broken IR before any pass consumes it.
    with trace_span("midend.validate_ir", "compiler", stage="typed"):
        validate_ir_or_raise(program, "typed")

    queue_names = {
        const.name
        for const in program.constants
        if isinstance(const.declared_type, PriorityQueueType)
    }
    # Programs without a priority queue are plain (unordered) GraphIt
    # programs — e.g. the Bellman-Ford baseline; they compile with no
    # ordered-processing plan.

    main = program.function("main")
    if main is None:
        raise CompileError("program has no main function")

    with trace_span("midend.recognize_loop", "compiler"):
        loop = recognize_ordered_loop(main, queue_names)

    with trace_span("midend.resolve_schedule", "compiler") as sp:
        resolved = _resolve_schedule(program, schedule, loop)
        sp["priority_update"] = resolved.priority_update
        sp["delta"] = resolved.delta
        sp["execution"] = resolved.execution

    udf: ast.FuncDecl | None = None
    dependence: DependenceInfo | None = None
    constant_sum: ConstantSumInfo | None = None
    transformed: ast.FuncDecl | None = None
    races: RaceReport | None = None

    # The whole-program effect summary is computed for every program (also
    # loop-free ones such as Bellman-Ford: plain apply UDFs are summarized
    # too, so the schedule sanitizer covers them).
    with trace_span("midend.effects", "compiler"):
        effects = analyze_program_effects(
            program,
            resolved,
            queue_names=queue_names,
            loop=loop,
            source_file=program.source_file,
        )

    if loop is not None and loop.udf_name is not None:
        udf = program.function(loop.udf_name)
        if udf is None:
            raise CompileError(
                f"applyUpdatePriority references unknown function "
                f"{loop.udf_name!r}"
            )
        if not find_priority_updates(udf, queue_names):
            raise CompileError(
                f"the UDF {udf.name!r} contains no priority update operator"
            )
        with trace_span("midend.dependence", "compiler", udf=udf.name):
            dependence = analyze_dependences(udf, queue_names, resolved.direction)
        # The race/atomicity analysis (per-site classification) drives the
        # backends: the C++ generator emits atomics only for sites that
        # need them, the Python backend asserts the classification at run
        # time.  Racy classifications do NOT abort the plan — `repro lint`
        # reports them and the interpreter refuses to execute them.
        with trace_span("midend.races", "compiler", udf=udf.name):
            races = analyze_races(
                udf, queue_names, resolved, source_file=program.source_file
            )
        with trace_span("midend.constant_sum", "compiler", udf=udf.name):
            constant_sum = analyze_constant_sum(udf, queue_names)
        # Relaxed-schedule admissibility (M001): bucket fusion drains
        # same-bucket insertions out of the global order, which is only
        # sound for monotone priority updates.  Unordered-racy sites are
        # excluded — those are already fatal as R001.
        if resolved.uses_fusion and effects is not None:
            for verdict in effects.monotonicity:
                if (
                    verdict.udf_name == udf.name
                    and not verdict.admissible
                    and not verdict.racy_site
                ):
                    raise MonotonicityError(
                        f"schedule requests eager_with_fusion but "
                        f"{verdict.site} in UDF {udf.name!r} is "
                        f"{verdict.verdict.value} for its queue's "
                        f"processing order ({verdict.reason}); "
                        f"out-of-order bucket fusion would be unsound",
                        span=verdict.span,
                    )
        if resolved.uses_histogram:
            if constant_sum is None:
                raise CompileError(
                    "schedule requests lazy_constant_sum but the UDF is not "
                    "a single constant-difference updatePrioritySum "
                    "(Section 5.1's analysis rejected it)"
                )
            with trace_span("midend.histogram_transform", "compiler", udf=udf.name):
                transformed = build_transformed_udf(udf, constant_sum)

    # Incremental-resume eligibility (I001): computed for every program so
    # `repro analyze` reports the verdict; a schedule that *requests*
    # incremental on an ineligible program is a plan-time error (mirroring
    # M001 — a resume is a reordering of the tail of the run, so the same
    # extremal-fixpoint reasoning gates it).
    incremental_eligibility: IncrementalEligibility | None = None
    if effects is not None:
        with trace_span("midend.incremental_eligibility", "compiler"):
            incremental_eligibility = classify_incremental_eligibility(
                effects, udf
            )
    if resolved.incremental:
        if incremental_eligibility is None or not incremental_eligibility.eligible:
            reasons = (
                "; ".join(incremental_eligibility.reasons)
                if incremental_eligibility is not None
                and incremental_eligibility.reasons
                else "no effect summary available"
            )
            raise IncrementalityError(
                f"schedule requests incremental resume but the program is "
                f"not eligible: {reasons}"
            )

    # Relaxed ordering finalizes nothing and processes buckets out of order,
    # so like a resume it is only sound for an extremal min/max fixpoint;
    # and only the Python runtime has the relaxed queue.
    if resolved.is_relaxed and queue_names:
        if resolved.execution == "native":
            raise SchedulingError(
                "the relaxed strategy is lowered by the Python runtime only; "
                "native kernels have strict bucket queues (use "
                "execution='serial' or 'parallel')"
            )
        if incremental_eligibility is None or not incremental_eligibility.eligible:
            raise SchedulingError(
                "the relaxed strategy needs an ordered loop whose updates "
                "are min/max (an extremal fixpoint); sum updates and extern "
                "bucket processors need strict per-priority synchronization"
            )

    # The bucketing strategy only constrains *ordered* programs; a program
    # without a priority queue ignores it.
    if resolved.is_eager and queue_names:
        if loop is None:
            raise CompileError(
                "eager bucket update requires the ordered-processing while "
                "loop pattern, which was not found in main"
            )
        if not loop.eager_eligible:
            raise CompileError(
                "eager bucket update cannot be applied: the loop processes "
                "buckets through an extern function, so the compiler cannot "
                "replace it with the ordered processing operator"
            )

    # Post-lowering validation: the transforms must have left the IR in a
    # backend-consumable state (histogram UDF present iff scheduled, no
    # unresolved symbols introduced by the transform).
    with trace_span("midend.validate_ir", "compiler", stage="lowered"):
        validate_ir_or_raise(
            program, "lowered", schedule=resolved, transformed_udf=transformed
        )

    # UDF vectorization: classify every apply UDF as batch-kernel eligible
    # or scalar fallback.  The Python backend consumes the kernels; the
    # fallback reasons feed `repro lint` (V101).
    with trace_span("midend.vectorize", "compiler") as sp:
        vectorize = analyze_vectorization(
            program, queue_names, resolved, source_file=program.source_file
        )
        sp["udfs"] = sorted(vectorize)

    return CompilationPlan(
        program=program,
        table=table,
        queue_names=queue_names,
        loop=loop,
        schedule=resolved,
        udf=udf,
        dependence=dependence,
        constant_sum=constant_sum,
        transformed_udf=transformed,
        races=races,
        vectorize=vectorize,
        effects=effects,
        incremental_eligibility=incremental_eligibility,
    )


def _resolve_schedule(
    program: ast.Program,
    schedule: Schedule | SchedulingProgram | None,
    loop: OrderedLoopInfo | None,
) -> Schedule:
    label = loop.label if loop is not None else None
    if isinstance(schedule, Schedule):
        return schedule
    if isinstance(schedule, SchedulingProgram):
        return schedule.schedule_for(label if label is not None else "")
    if program.schedule:
        return schedule_from_block(program).schedule_for(
            label if label is not None else ""
        )
    return Schedule()
