"""``repro lint``: every midend diagnostic over DSL source, in one pass.

:func:`lint_program` parses, type-checks and validates the program once,
derives its :class:`~repro.midend.analysis.facts.ProgramFacts` once and
plans it once; the race, schedule and vectorization layers then read those
facts — the races per apply site under that statement's own schedule.
"""

from __future__ import annotations

from ..errors import (
    CompileError,
    IncrementalityError,
    MonotonicityError,
    ParseError,
    SchedulingError,
    TypeCheckError,
)
from ..lang.parser import parse
from ..lang.typecheck import typecheck
from .diagnostics import (
    Diagnostic,
    Severity,
    check_schedule_compat,
    ir_validation_error,
    located_span,
    race_diagnostics,
    sorted_diagnostics,
    validate_ir,
)
from .analysis.facts import build_facts
from .analysis.races import classify_races
from .schedule import Schedule, SchedulingProgram
from .transforms.lowering import plan_with_facts, schedule_from_block

__all__ = ["lint_program"]

#: midend rejection -> the code it is reported under (first match wins)
_REJECTIONS = (
    (MonotonicityError, "M001"),
    (IncrementalityError, "I001"),
    (SchedulingError, "S003"),
    (CompileError, "V003"),
)


def lint_program(
    source: str,
    schedule: Schedule | SchedulingProgram | None = None,
    filename: str | None = None,
    include_info: bool = False,
) -> list[Diagnostic]:
    """Run every analysis over DSL ``source`` and collect diagnostics.

    Never raises for program problems — frontend rejections become located
    ``P001``/``T001`` diagnostics, midend rejections become ``M001``/
    ``I001``/``S003``/``V003``, and the race/validator/schedule layers
    contribute their own codes.  ``include_info`` adds the informational
    race-classification and vectorization notes (``R002``/``R003``/``V101``).
    """
    try:
        program = parse(source, filename)
    except ParseError as error:
        return [_rejection("P001", error, filename)]
    try:
        table = typecheck(program)
    except TypeCheckError as error:
        return [_rejection("T001", error, filename)]

    invalid = validate_ir(program, "typed")
    found: list[Diagnostic] = list(invalid)
    facts = build_facts(program)

    # Resolve the scheduling program (explicit > inline block > default).
    scheduling: SchedulingProgram | None = None
    resolved: Schedule | SchedulingProgram | None = schedule
    if isinstance(schedule, SchedulingProgram):
        scheduling = schedule
    elif schedule is None and program.schedule:
        try:
            scheduling = resolved = schedule_from_block(program)
        except SchedulingError as error:
            found.append(_rejection("S003", error, filename))
            return sorted_diagnostics(found)
    if scheduling is not None:
        found.extend(check_schedule_compat(program, scheduling, facts))

    # The midend plan: infeasible combinations become located diagnostics.
    plan = None
    try:
        if invalid:
            raise ir_validation_error(invalid, "typed")
        plan = plan_with_facts(program, table, facts, resolved)
    except (SchedulingError, CompileError) as error:
        code = next(code for kind, code in _REJECTIONS if isinstance(error, kind))
        found.append(_rejection(code, error, filename))

    # Race analysis over every UDF an apply names, under its statement's
    # own schedule (the plan classifies under the loop label's schedule,
    # the one the backends run).
    seen: set[str] = set()
    for site in facts.apply_sites:
        udf = facts.udfs.get(site.udf_name)
        if udf is None or udf.name in seen:
            continue  # an unresolved symbol is V001, reported above
        seen.add(udf.name)
        if isinstance(resolved, SchedulingProgram):
            active = resolved.schedule_for(site.label or "")
        elif isinstance(resolved, Schedule):
            active = resolved
        else:
            active = plan.schedule if plan is not None else Schedule()
        found.extend(race_diagnostics(classify_races(udf, active)))

    # Every apply UDF that stays on the scalar interpreter gets an
    # informational V101 with the located reason.
    if plan is not None:
        for report in plan.kernels.values():
            if report.vectorizable:
                continue
            found.append(
                Diagnostic(
                    code="V101",
                    severity=Severity.INFO,
                    message=(
                        f"UDF {report.udf_name!r} falls back to the "
                        f"scalar interpreter: {report.reason}"
                    ),
                    span=located_span(report.span, filename),
                )
            )

    if not include_info:
        found = [d for d in found if d.severity is not Severity.INFO]
    return sorted_diagnostics(_dedup(found))


def _rejection(code: str, error: Exception, filename: str | None) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        message=str(error),
        span=located_span(getattr(error, "span", None), filename),
    )


def _dedup(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    seen: set[tuple] = set()
    unique: list[Diagnostic] = []
    for diagnostic in diagnostics:
        key = (diagnostic.code, diagnostic.span.line, diagnostic.span.column,
               diagnostic.message)
        if key in seen:
            continue
        seen.add(key)
        unique.append(diagnostic)
    return unique
