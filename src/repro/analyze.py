"""``repro analyze`` — the whole-program effect analysis, as a document.

Builds a JSON-serializable report from one or more DSL programs:

- the per-UDF effect summaries (read/write/index sets, def-use chains),
- queue metadata and monotonicity verdicts with schedule admissibility,
- the runtime projection the schedule sanitizer checks against, and
- the pairwise fusion-safety matrix across every analyzed program (the
  single-program case reports the program's self-pair, i.e. whether it is
  structurally eligible to fuse with a compatible partner at all).

The same builder backs the CLI (``repro analyze --format json|text``) and
the golden effect-summary snapshot tests, so the checked-in goldens are
exactly what the tool prints.
"""

from __future__ import annotations

from .errors import CompileError, SchedulingError
from .lang.parser import parse
from .midend.analysis.effects import (
    ProgramEffectSummary,
    check_fusion_safety,
    fusion_matrix,
)
from .midend.schedule import Schedule
from .midend.transforms.lowering import plan_program

__all__ = ["build_analysis_document", "render_analysis_text"]


def _plan_source(source: str, schedule: Schedule | None, filename: str | None):
    """Compile ``source`` through the midend and return the full plan.

    Schedule resolution mirrors ``repro lint``: with no explicit schedule
    the program's own inline ``schedule:`` block applies, and programs
    whose default plan is infeasible (e.g. an extern bucket processor
    rejecting the eager default) are retried under the lazy strategy they
    require.
    """
    program = parse(source, filename)
    try:
        plan = plan_program(program, schedule)
    except (SchedulingError, CompileError):
        if schedule is not None:
            raise
        plan = plan_program(program, Schedule(priority_update="lazy"))
    if plan.effects is None:  # pragma: no cover - plan_program always fills it
        raise CompileError("midend produced no effect summary")
    return plan


def build_analysis_document(
    sources: dict[str, str],
    schedule: Schedule | None = None,
) -> dict:
    """The full ``repro analyze`` report over named ``sources``.

    ``sources`` maps a display name (file path or built-in name) to DSL
    text.  Programs are analyzed independently; the fusion matrix covers
    every unordered pair, plus each program's self-pair when only one
    program is given.
    """
    programs: dict[str, dict] = {}
    summaries: dict[str, ProgramEffectSummary] = {}
    for name, source in sources.items():
        plan = _plan_source(source, schedule, filename=name)
        effects, resolved = plan.effects, plan.schedule
        summaries[name] = effects
        programs[name] = {
            "schedule": {
                "priority_update": resolved.priority_update,
                "direction": resolved.direction,
                "delta": resolved.delta,
            },
            "effects": effects.to_json(),
            "runtime_summary": effects.runtime_summary(),
            "incremental": (
                plan.incremental_eligibility.to_json()
                if plan.incremental_eligibility is not None
                else None
            ),
        }
    if len(summaries) == 1:
        ((name, effects),) = summaries.items()
        fusion = [check_fusion_safety(name, effects, name, effects).to_json()]
    else:
        fusion = [v.to_json() for v in fusion_matrix(summaries)]
    return {"programs": programs, "fusion": fusion}


def render_analysis_text(document: dict) -> str:
    """Human-readable rendering of :func:`build_analysis_document`."""
    lines: list[str] = []
    for name, report in document["programs"].items():
        schedule = report["schedule"]
        effects = report["effects"]
        lines.append(
            f"{name} [{schedule['priority_update']}, "
            f"{schedule['direction']}, delta={schedule['delta']}]"
        )
        loop = effects["ordered_loop"]
        if loop["recognized"]:
            lines.append(
                f"  ordered loop: udf={loop['udf']} queue={loop['queue']}"
                + (" (extern processing)" if loop["extern_processing"] else "")
            )
        else:
            lines.append("  ordered loop: none recognized")
        for queue_name, queue in effects["queues"].items():
            lines.append(
                f"  queue {queue_name}: order={queue['order']} "
                f"priority_vector={queue['priority_vector']}"
            )
        for udf_name, udf in effects["udfs"].items():
            lines.append(
                f"  udf {udf_name}: reads={udf['reads']} "
                f"writes={udf['writes']} scalar_writes={udf['scalar_writes']}"
            )
            for access in udf["accesses"]:
                lines.append(
                    f"    {access['kind']} {access['rendered']} "
                    f"[{access['provenance']}"
                    f"{', owned' if access['owned'] else ''}"
                    f"{', guarded' if access['guarded_monotonic'] else ''}] "
                    f"line {access['line']}"
                )
        for verdict in effects["monotonicity"]:
            status = "admissible" if verdict["admissible"] else "INADMISSIBLE"
            lines.append(
                f"  monotonicity {verdict['site']}: {verdict['verdict']} "
                f"({status}) — {verdict['reason']}"
            )
        incremental = report.get("incremental")
        if incremental is not None:
            if incremental["eligible"]:
                lines.append(
                    f"  incremental: ELIGIBLE ({incremental['kind']}-combine"
                    + (
                        f", shape={incremental['relaxation_shape']}"
                        if incremental["relaxation_shape"]
                        else ""
                    )
                    + ")"
                )
            else:
                lines.append("  incremental: ineligible")
                for reason in incremental["reasons"]:
                    lines.append(f"    - {reason}")
        lines.append("")
    for verdict in document["fusion"]:
        first, second = verdict["pair"]
        if verdict["fusable"]:
            lines.append(f"fusion {first} x {second}: FUSABLE")
        else:
            lines.append(f"fusion {first} x {second}: blocked")
            for reason in verdict["reasons"]:
                lines.append(f"  - {reason}")
    return "\n".join(lines).rstrip() + "\n"
