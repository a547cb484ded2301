"""Golden ``repro lint`` / ``repro analyze`` snapshots over a schedule grid.

Every built-in program and every ``examples/*.gt`` file has one JSON file
under ``tests/goldens/lint/``.  For each schedule of the grid (none, each
``priority_update`` strategy, and ``lazy`` + ``DensePull``) it stores

- the ``lint_program(..., include_info=True)`` findings as
  ``[code, severity, line, column, message]`` rows, and
- the ``build_analysis_document`` JSON, or the error that planning raised.

The test rebuilds both from source and requires an exact match, so any
change to a diagnostic, a race class, a monotonicity verdict, the fusion
relation or incremental eligibility shows up as a reviewable golden diff.

Regenerate after an intentional analysis change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_lint_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.analyze import build_analysis_document
from repro.errors import GraphItError
from repro.lang import ALL_PROGRAMS
from repro.midend import PRIORITY_UPDATE_STRATEGIES, Schedule
from repro.midend.lint import lint_program

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "lint"

PROGRAMS = {name: source for name, source in ALL_PROGRAMS.items()}
PROGRAMS.update(
    {path.stem: path.read_text() for path in sorted(EXAMPLES_DIR.glob("*.gt"))}
)

SCHEDULES = {"default": None}
SCHEDULES.update(
    {name: Schedule(priority_update=name) for name in PRIORITY_UPDATE_STRATEGIES}
)
SCHEDULES["lazy+DensePull"] = Schedule(priority_update="lazy", direction="DensePull")


def _snapshot(name: str) -> dict:
    source = PROGRAMS[name]
    snapshot: dict = {}
    for key, schedule in SCHEDULES.items():
        lint = [
            [d.code, str(d.severity), d.span.line, d.span.column, d.message]
            for d in lint_program(
                source, schedule=schedule, filename=name, include_info=True
            )
        ]
        try:
            analyze = build_analysis_document({name: source}, schedule)
        except GraphItError as error:
            analyze = {"error": f"{type(error).__name__}: {error}"}
        snapshot[key] = {"lint": lint, "analyze": analyze}
    # Round-trip through JSON so the comparison sees exactly what the
    # golden file stores (tuples become lists, keys become strings).
    return json.loads(json.dumps(snapshot))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_lint_and_analysis_match_golden(name: str) -> None:
    golden_path = GOLDEN_DIR / f"{name}.json"
    snapshot = _snapshot(name)
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
    assert golden_path.exists(), (
        f"missing golden {golden_path}; run with REPRO_REGEN_GOLDENS=1 "
        "to create it"
    )
    assert snapshot == json.loads(golden_path.read_text()), (
        f"lint/analyze output for {name} drifted from its golden; if the "
        "change is intentional regenerate with REPRO_REGEN_GOLDENS=1"
    )


def test_no_stale_goldens() -> None:
    """Every golden corresponds to a live program (catches renames)."""
    stale = [p.name for p in GOLDEN_DIR.glob("*.json") if p.stem not in PROGRAMS]
    assert not stale, f"goldens without a matching program: {stale}"
