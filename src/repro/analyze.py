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

from .lang.parser import parse
from .midend.analysis.effects import (
    check_fusion_safety,
    classify_incremental_eligibility,
    classify_monotonicity,
    fusion_matrix,
    runtime_summary,
)
from .midend.analysis.facts import ProgramFacts
from .midend.schedule import Schedule
from .midend.transforms.lowering import plan_program

__all__ = ["build_analysis_document", "render_analysis_text"]


def build_analysis_document(
    sources: dict[str, str],
    schedule: Schedule | dict[str, Schedule | None] | None = None,
) -> dict:
    """The full ``repro analyze`` report over named ``sources``.

    ``sources`` maps a display name (file path or built-in name) to DSL
    text.  Each program is planned independently under ``schedule`` (or
    its entry, for a per-name mapping) — with none, under its own (inline
    block, or the midend's feasible default) — and its facts are rendered
    under the resolved direction.  The fusion matrix covers every
    unordered pair, plus each program's self-pair when only one program is
    given.
    """
    programs: dict[str, dict] = {}
    plans = {}
    for name, source in sources.items():
        chosen = schedule.get(name) if isinstance(schedule, dict) else schedule
        plan = plan_program(parse(source, name), chosen)
        resolved, facts = plan.schedule, plan.facts
        plans[name] = plan
        programs[name] = {
            "schedule": {
                "priority_update": resolved.priority_update,
                "direction": resolved.direction,
                "delta": resolved.delta,
            },
            "effects": _effects_document(facts, resolved.direction),
            "runtime_summary": runtime_summary(facts, resolved.direction),
            "incremental": classify_incremental_eligibility(facts).to_json(),
        }
    if len(plans) == 1:
        ((name, plan),) = plans.items()
        fusion = [check_fusion_safety(name, plan, name, plan).to_json()]
    else:
        fusion = [v.to_json() for v in fusion_matrix(plans)]
    return {"programs": programs, "fusion": fusion}


def _effects_document(facts: ProgramFacts, direction: str) -> dict:
    """The facts of one program rendered under one traversal direction."""
    loop = facts.loop
    return {
        "direction": direction,
        "queues": {
            name: {
                "queue": info.name,
                "order": info.order,
                "priority_vector": info.priority_vector,
                "allow_coarsening": info.allow_coarsening,
            }
            for name, info in sorted(facts.queues.items())
        },
        "ordered_loop": {
            "recognized": loop is not None,
            "udf": loop.udf_name if loop is not None else None,
            "queue": loop.queue_name if loop is not None else None,
            "extern_processing": (
                loop is not None and loop.extern_processor is not None
            ),
        },
        "udfs": {
            name: {
                "udf": name,
                "direction": direction,
                "parameters": list(udf.parameters),
                "owned_param": udf.owned_param(direction),
                "reads": sorted(udf.read_set()),
                "writes": sorted(udf.write_set()),
                "scalar_writes": sorted(udf.scalar_write_set()),
                "accesses": [
                    {
                        "kind": access.kind.value,
                        "target": access.target_kind.value,
                        "base": access.base,
                        "rendered": access.rendered,
                        "index": access.index_name,
                        "provenance": access.provenance.value,
                        "owned": access.owned(direction),
                        "must": access.must,
                        "guarded_monotonic": access.guarded_monotonic,
                        "line": access.span.line,
                    }
                    for access in udf.write_accesses
                ],
                "def_use": {
                    local: {
                        "defs": udf.defs.get(local, []),
                        "uses": udf.uses.get(local, []),
                    }
                    for local in sorted(set(udf.defs) | set(udf.uses))
                },
            }
            for name, udf in sorted(facts.udfs.items())
        },
        "monotonicity": [m.to_json() for m in classify_monotonicity(facts)],
    }


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
