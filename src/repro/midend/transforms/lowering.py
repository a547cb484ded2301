"""The midend driver: one analysis pass + schedule validation → a plan.

``plan_program`` is what both backends consume.  It

1. type-checks the program and validates its IR once,
2. derives the program's :class:`~repro.midend.analysis.facts.ProgramFacts`
   in one walk (the ordered loop of Section 5.2, the priority updates and
   constant-sum shape of Section 5.1, every shared access),
3. resolves the schedule for the loop's label — from an explicit
   :class:`Schedule`/:class:`SchedulingProgram` argument or from the
   program's inline ``schedule:`` block,
4. builds the Figure 10 transformed UDF when the ``lazy_constant_sum``
   strategy is scheduled, and
5. rejects infeasible combinations (eager without a recognizable loop,
   histogram without a constant-sum UDF, fusion over a non-monotone
   update, ...), reading every verdict from the facts.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from ..diagnostics import validate_ir_or_raise
from ..analysis.effects import classify_incremental_eligibility, classify_monotonicity
from ..analysis.facts import ProgramFacts, build_facts
from ..schedule import Schedule, SchedulingProgram
from .histogram_transform import build_transformed_udf

__all__ = ["CompilationPlan", "plan_program", "plan_with_facts", "schedule_from_block"]

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
    """Everything a backend needs to generate code for one program.

    Backends read the analysis results from ``facts``, applying the
    schedule's direction as they read them.
    """

    program: ast.Program
    table: SymbolTable
    schedule: Schedule
    facts: ProgramFacts
    #: the ordered loop's UDF (``None`` without one, or for extern loops)
    udf: ast.FuncDecl | None
    transformed_udf: ast.FuncDecl | None


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
    # Catch a frontend that handed over broken IR before any pass reads it.
    with trace_span("midend.validate_ir", "compiler", stage="typed"):
        validate_ir_or_raise(program, "typed")
    with trace_span("midend.facts", "compiler"):
        facts = build_facts(program)
    return plan_with_facts(program, table, facts, schedule)


def plan_with_facts(
    program: ast.Program,
    table: SymbolTable,
    facts: ProgramFacts,
    schedule: Schedule | SchedulingProgram | None,
) -> CompilationPlan:
    """The schedule-dependent half of :func:`plan_program`, over a typed,
    validated program and its facts (``repro lint`` reuses both)."""
    loop = facts.loop
    with trace_span("midend.resolve_schedule", "compiler") as sp:
        resolved = _resolve_schedule(program, schedule, facts)
        sp["priority_update"] = resolved.priority_update
        sp["delta"] = resolved.delta
        sp["execution"] = resolved.execution

    udf: ast.FuncDecl | None = None
    transformed: ast.FuncDecl | None = None
    if loop is not None and loop.udf_name is not None:
        udf = program.function(loop.udf_name)
        if udf is None:
            raise CompileError(
                f"applyUpdatePriority references unknown function "
                f"{loop.udf_name!r}"
            )
        udf_facts = facts.udfs[udf.name]
        if not udf_facts.updates:
            raise CompileError(
                f"the UDF {udf.name!r} contains no priority update operator"
            )
        # Relaxed-schedule admissibility (M001): bucket fusion drains
        # same-bucket insertions out of the global order, which is only
        # sound for monotone priority updates.  Unordered-racy sites are
        # excluded — those are already fatal as R001.
        if resolved.uses_fusion:
            for verdict in classify_monotonicity(facts):
                if (
                    verdict.udf_name == udf.name
                    and not verdict.admissible
                    and not verdict.racy_site(resolved.direction)
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
            if udf_facts.constant_sum is None:
                raise CompileError(
                    "schedule requests lazy_constant_sum but the UDF is not "
                    "a single constant-difference updatePrioritySum "
                    "(Section 5.1's analysis rejected it)"
                )
            with trace_span("midend.histogram_transform", "compiler", udf=udf.name):
                transformed = build_transformed_udf(udf, udf_facts.constant_sum)

    # A resume (I001) and relaxed ordering both reorder the tail of the
    # run, so both are only sound for an extremal min/max fixpoint; and
    # only the Python runtime has the relaxed queue.
    if resolved.incremental:
        eligibility = classify_incremental_eligibility(facts)
        if not eligibility.eligible:
            raise IncrementalityError(
                f"schedule requests incremental resume but the program is "
                f"not eligible: {'; '.join(eligibility.reasons)}"
            )
    if resolved.is_relaxed and facts.queue_names:
        if resolved.execution == "native":
            raise SchedulingError(
                "the relaxed strategy is lowered by the Python runtime only; "
                "native kernels have strict bucket queues (use "
                "execution='serial' or 'parallel')"
            )
        if not classify_incremental_eligibility(facts).eligible:
            raise SchedulingError(
                "the relaxed strategy needs an ordered loop whose updates "
                "are min/max (an extremal fixpoint); sum updates and extern "
                "bucket processors need strict per-priority synchronization"
            )

    # The bucketing strategy only constrains *ordered* programs; a program
    # without a priority queue ignores it.
    if resolved.is_eager and facts.queue_names:
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

    # No pass mutates ``program``: the post-lowering check covers only the
    # transformed UDF (present iff scheduled, no unresolved symbols).
    with trace_span("midend.validate_ir", "compiler", stage="lowered"):
        validate_ir_or_raise(
            program, "lowered", schedule=resolved, transformed_udf=transformed
        )

    return CompilationPlan(
        program=program,
        table=table,
        schedule=resolved,
        facts=facts,
        udf=udf,
        transformed_udf=transformed,
    )


def _resolve_schedule(
    program: ast.Program,
    schedule: Schedule | SchedulingProgram | None,
    facts: ProgramFacts,
) -> Schedule:
    loop = facts.loop
    label = loop.label if loop is not None and loop.label is not None else ""
    if isinstance(schedule, Schedule):
        return schedule
    if isinstance(schedule, SchedulingProgram):
        return schedule.schedule_for(label)
    if program.schedule:
        return schedule_from_block(program).schedule_for(label)
    # The paper's eager default, unless the program's ordered loop cannot
    # take the eager transform: then the lazy strategy it requires.
    if facts.queue_names and (loop is None or not loop.eager_eligible):
        return Schedule(priority_update="lazy")
    return Schedule()
