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
   strategy is scheduled,
5. classifies the races and the batch kernel of every apply-site UDF
   under the resolved schedule, and
6. rejects infeasible combinations (a malformed queue constructor or apply
   chain, Δ ≠ 1 on a queue that disallows coarsening, eager without a
   recognizable loop, histogram without a constant-sum UDF, fusion over a
   non-monotone update, ...), reading every verdict from the facts.

The backends only render the plan.  :func:`native_refusal` names why a
plan cannot lower to a native kernel; the runner asks it before generating
any text.
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
from ..analysis.facts import ProgramFacts, QueueInfo, build_facts
from ..analysis.races import RaceReport, classify_races
from ..analysis.vectorize import VectorizeReport, analyze_vectorization
from ..schedule import Schedule, SchedulingProgram
from .histogram_transform import build_transformed_udf

__all__ = [
    "CompilationPlan",
    "native_refusal",
    "plan_program",
    "plan_with_facts",
    "schedule_from_block",
]

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
    """Everything a backend needs to generate code for one program: the
    backends render it and derive nothing of their own."""

    program: ast.Program
    table: SymbolTable
    schedule: Schedule
    facts: ProgramFacts
    #: the Figure 10 function (``lazy_constant_sum`` only)
    transformed_udf: ast.FuncDecl | None
    #: the race classification of every apply-site UDF, by name
    races: dict[str, RaceReport]
    #: the batch-kernel classification of every apply-site UDF, by name
    kernels: dict[str, VectorizeReport]
    #: the queue the applies drive: the ordered loop's, else the first by name
    queue: QueueInfo | None
    #: the priority vector a resumed run binds to the caller's values
    #: (``None``: the program cannot resume)
    resume_vector: str | None


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

    for info in facts.queues.values():
        if info.problem is not None:
            raise CompileError(info.problem)
    for site in facts.apply_sites:
        if site.edgeset is None:
            raise CompileError(
                f"{site.call.method} requires an edges.from(bucket) chain",
                span=site.call.span,
            )

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

    for info in facts.queues.values():
        if info.allow_coarsening is False and resolved.delta != 1:
            raise SchedulingError(
                f"the priority queue {info.name!r} disallows coarsening but "
                f"the schedule sets delta={resolved.delta}"
            )
    if (
        resolved.uses_histogram
        and transformed is None
        and any(site.frontier is not None for site in facts.apply_sites)
    ):
        raise CompileError(
            "lazy_constant_sum requires the ordered-processing while loop "
            "pattern, which was not found in main"
        )

    # No pass mutates ``program``: the post-lowering check covers only the
    # transformed UDF (present iff scheduled, no unresolved symbols).
    with trace_span("midend.validate_ir", "compiler", stage="lowered"):
        validate_ir_or_raise(
            program, "lowered", schedule=resolved, transformed_udf=transformed
        )

    races = {name: classify_races(info, resolved) for name, info in facts.udfs.items()}
    queue_name = loop.queue_name if loop is not None else min(facts.queue_names, default=None)
    return CompilationPlan(
        program=program,
        table=table,
        schedule=resolved,
        facts=facts,
        transformed_udf=transformed,
        races=races,
        kernels=analyze_vectorization(facts, resolved, races),
        queue=facts.queues.get(queue_name),
        resume_vector=_resume_vector(program, facts),
    )


def native_refusal(plan: CompilationPlan) -> str | None:
    """Why ``plan`` cannot lower to a native kernel, or ``None`` when it can.

    The one place the C++ lowering's limits are named: the emitter raises
    it, the runner turns it into the ``N101`` fallback before generating
    any text."""
    queue = plan.queue
    if plan.schedule.is_relaxed:
        return (
            "the relaxed strategy is lowered by the Python runtime only; "
            "the C++ runtime has strict bucket queues"
        )
    if plan.program.externs:
        return (
            "the C++ backend does not support extern functions; as in the "
            "paper's artifact, A* and SetCover need hand-written C++ externs"
        )
    if queue is None or queue.priority_vector is None:
        return (
            "the C++ backend supports ordered (priority-queue) programs only; "
            "compile unordered programs with the Python backend"
        )
    if any(site.frontier is None for site in plan.facts.apply_sites):
        return (
            "the C++ backend applies UDFs to a frontier only "
            "(edges.from(bucket)); a whole-edgeset apply runs on the Python "
            "runtime"
        )
    if queue.order == "higher_first":
        if plan.schedule.uses_histogram:
            return (
                "lazy_constant_sum requires a lower_first queue in the C++ "
                "backend (the histogram transform tracks decrement counts)"
            )
        if plan.schedule.is_eager and queue.start_vertex is None:
            return (
                "the all-vertices priority queue form is not supported with "
                "eager higher_first schedules in the C++ backend; use a lazy "
                "schedule"
            )
    return None


def _resume_vector(program: ast.Program, facts: ProgramFacts) -> str | None:
    """The ordered loop's priority vector, when its declaration fills it
    with a scalar (the state a resumed run supplies instead)."""
    if facts.loop is None or facts.edgeset is None:
        return None
    name = facts.queue_vector(facts.loop.queue_name)
    for const in program.constants:
        if const.name == name and isinstance(
            const.initializer,
            (ast.IntLiteral, ast.FloatLiteral, ast.BoolLiteral, ast.Name),
        ):
            return name
    return None


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
