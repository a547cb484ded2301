"""Perf-regression attribution: diff two runs phase by phase.

``bench/run.py`` can tell you *that* a query time regressed; this
module answers *where*.  Both runs are reduced to a **phase profile** —
per-(category, name) self time, total time, and call counts, the same
aggregation ``repro profile`` prints — and the diff ranks phases by the
absolute self-time delta.  A 40% wall-time regression that is 95%
``native.compile`` is a cold kernel cache; one that is all
``bucket.reduce`` is a real runtime regression.  The ranking makes that
distinction mechanical.

Inputs are deliberately liberal: :func:`load_profile_document` accepts a
raw Chrome-trace file (as written by ``repro trace``), an already-reduced
phase-profile document, or a span file written by ``bench/run.py --traced``
(``bench/.out/spans-*.json``) — so ``repro trace-diff A B`` works on any
pair of artifacts the toolchain produces.
"""

from __future__ import annotations

import json

from .exporters import self_profile

__all__ = [
    "PHASE_PROFILE_SCHEMA",
    "phase_profile",
    "load_profile_document",
    "trace_diff",
    "format_trace_diff",
]

PHASE_PROFILE_SCHEMA = 1


def phase_profile(tracer_or_events) -> dict:
    """Reduce trace events to a serializable per-phase profile document.

    The document is ``{"schema": 1, "wall_us": <sum of top-level self
    time>, "phases": [{"cat", "name", "count", "total_us", "self_us"},
    ...]}`` with phases sorted by self time descending.
    """
    rows = self_profile(tracer_or_events)
    return {
        "schema": PHASE_PROFILE_SCHEMA,
        "wall_us": sum(row.self_us for row in rows),
        "phases": [
            {
                "cat": row.cat,
                "name": row.name,
                "count": row.count,
                "total_us": row.total_us,
                "self_us": row.self_us,
            }
            for row in rows
        ],
    }


def load_profile_document(source) -> dict:
    """Coerce ``source`` into a phase-profile document.

    ``source`` may be a path to a JSON file or an already-loaded dict, in
    any of three shapes:

    - a Chrome-trace document (``traceEvents`` key) — reduced via
      :func:`phase_profile`;
    - a phase-profile document (``phases`` key) — used as-is;
    - a benchmark span document (``spans`` key: ``[{"layer", "name",
      "start_us", "end_us", "self_us", ...}]`` as written by
      ``bench/common.SpanLog.write``) — aggregated per (layer, name) with
      the layer as the category.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = source
    if not isinstance(payload, dict):
        raise ValueError(
            "expected a JSON object (chrome trace, phase profile, or "
            f"span document), got {type(payload).__name__}"
        )
    if "phases" in payload:
        return payload
    if "spans" in payload:
        return _profile_from_spans(payload["spans"])
    if "traceEvents" in payload:
        return phase_profile(payload["traceEvents"])
    raise ValueError(
        "document has none of 'traceEvents', 'phases', or 'spans' "
        "- not a trace, profile, or span artifact"
    )


def _profile_from_spans(spans: list[dict]) -> dict:
    """Aggregate benchmark span rows into a phase-profile document."""
    phases: dict[tuple[str, str], dict] = {}
    for span in spans:
        phase = phases.setdefault(
            (span["layer"], span["name"]),
            {
                "cat": span["layer"],
                "name": span["name"],
                "count": 0,
                "total_us": 0.0,
                "self_us": 0.0,
            },
        )
        phase["count"] += 1
        phase["total_us"] += span["end_us"] - span["start_us"]
        phase["self_us"] += span["self_us"]
    rows = sorted(phases.values(), key=lambda phase: -phase["self_us"])
    return {
        "schema": PHASE_PROFILE_SCHEMA,
        "wall_us": sum(phase["self_us"] for phase in rows),
        "phases": rows,
    }


def trace_diff(baseline, fresh) -> dict:
    """Attribute the wall-time delta between two runs to phases.

    Both arguments go through :func:`load_profile_document`.  Returns
    ``{"wall_us": {...}, "rows": [...]}`` where each row carries the
    phase's baseline/fresh self time, the delta in microseconds, the
    delta as a percentage of the *baseline wall time* (so rows sum to the
    overall change), and the call-count change.  Rows are sorted by
    absolute delta, largest first — the attribution order.
    """
    base_doc = load_profile_document(baseline)
    fresh_doc = load_profile_document(fresh)

    def index(doc: dict) -> dict[tuple[str, str], dict]:
        return {(p["cat"], p["name"]): p for p in doc["phases"]}

    base_phases = index(base_doc)
    fresh_phases = index(fresh_doc)
    base_wall = float(base_doc.get("wall_us", 0.0))
    fresh_wall = float(fresh_doc.get("wall_us", 0.0))

    rows = []
    for key in sorted(set(base_phases) | set(fresh_phases)):
        base = base_phases.get(key)
        new = fresh_phases.get(key)
        base_self = float(base["self_us"]) if base else 0.0
        fresh_self = float(new["self_us"]) if new else 0.0
        delta = fresh_self - base_self
        rows.append(
            {
                "cat": key[0],
                "name": key[1],
                "baseline_self_us": base_self,
                "fresh_self_us": fresh_self,
                "delta_us": delta,
                # Share of the baseline wall time this phase's change
                # represents; the column that sums to the headline delta.
                "delta_pct_of_wall": (
                    100.0 * delta / base_wall if base_wall else 0.0
                ),
                "baseline_count": int(base["count"]) if base else 0,
                "fresh_count": int(new["count"]) if new else 0,
            }
        )
    rows.sort(key=lambda row: (-abs(row["delta_us"]), row["cat"], row["name"]))
    return {
        "wall_us": {
            "baseline": base_wall,
            "fresh": fresh_wall,
            "delta": fresh_wall - base_wall,
            "delta_pct": (
                100.0 * (fresh_wall - base_wall) / base_wall
                if base_wall
                else 0.0
            ),
        },
        "rows": rows,
    }


def format_trace_diff(diff: dict, top: int = 10) -> str:
    """Render a :func:`trace_diff` result as an aligned text table."""
    wall = diff["wall_us"]
    lines = [
        "wall time: {:.0f}us -> {:.0f}us ({:+.1f}%)".format(
            wall["baseline"], wall["fresh"], wall["delta_pct"]
        ),
        "",
        "{:<34} {:>12} {:>12} {:>12} {:>9}".format(
            "phase", "baseline_us", "fresh_us", "delta_us", "of_wall"
        ),
    ]
    for row in diff["rows"][: max(0, top)]:
        label = f"{row['cat']}:{row['name']}"
        lines.append(
            "{:<34} {:>12.0f} {:>12.0f} {:>+12.0f} {:>+8.1f}%".format(
                label[:34],
                row["baseline_self_us"],
                row["fresh_self_us"],
                row["delta_us"],
                row["delta_pct_of_wall"],
            )
        )
    shown = min(len(diff["rows"]), max(0, top))
    if shown < len(diff["rows"]):
        lines.append(f"... {len(diff['rows']) - shown} more phases")
    return "\n".join(lines)
