"""The midend diagnostics engine: structured, located, stable-coded.

Three layers, all reporting :class:`Diagnostic` records with source spans,
a severity, and a stable code (``R…`` race analysis, ``V…`` IR validator,
``S…`` schedule checker, ``P…``/``T…`` frontend):

1. **Race/atomicity diagnostics** — the projection of a
   :class:`~repro.midend.analysis.races.RaceReport` onto user-facing
   findings: an unordered racy write is an ``R001`` error, benign guarded
   races and dedup requirements are informational notes.
2. **IR validator** (:func:`validate_ir`) — run once on the typed program
   and once on the transformed UDF lowering introduces; it turns silent
   miscompiles (unresolved symbols, lost types, misplaced lowering) into
   located errors.
3. **Schedule–program compatibility** (:func:`check_schedule_compat`) —
   cross-checks :class:`~repro.midend.schedule.SchedulingProgram` labels
   against the labels that actually occur in the program (the misspelled
   label footgun, ``S001``) and flags knobs that are dead under the chosen
   strategy (``S002``).

:func:`repro.midend.lint.lint_program` runs all three over DSL source.
"""

from __future__ import annotations

import difflib
import enum
from dataclasses import dataclass, field, replace

from ..errors import IRValidationError
from ..lang import ast_nodes as ast
from ..lang.span import Span
from ..lang.types import PriorityQueueType
from .analysis.facts import ProgramFacts, build_facts
from .analysis.races import RaceClass, RaceReport
from .schedule import Schedule, SchedulingProgram
from .transforms.histogram_transform import TRANSFORMED_SUFFIX

__all__ = [
    "Severity",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "race_diagnostics",
    "validate_ir",
    "check_schedule_compat",
    "render_diagnostic",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so errors sort first."""

    ERROR = 0
    WARNING = 1
    INFO = 2

    def __str__(self) -> str:
        return self.name.lower()


#: The stable diagnostic code registry.  Codes are append-only: tools and
#: suppression lists depend on them never being renumbered.
DIAGNOSTIC_CODES: dict[str, str] = {
    "P001": "syntax error (lexer/parser rejection)",
    "T001": "type error (frontend type checker rejection)",
    "V001": "unresolved symbol in the IR (call to an unknown function)",
    "V002": "program has no main function",
    "V003": "IR invariant violated (stage mismatch, lost type, bad lowering)",
    "S001": "schedule configures a label that appears in no program statement",
    "S002": "schedule knob is dead under the configured strategy",
    "S003": "schedule is infeasible for this program",
    "R001": "non-atomic write to shared state under a parallel schedule",
    "R002": "benign race: guarded monotonic test-and-set (note)",
    "R003": "sum update requires clamped fetch_add + deduplication (note)",
    "M001": "relaxed/fused schedule requires a monotone priority update",
    "I001": "incremental resume requires an extremal (min/max) ordered loop",
    # V1xx: UDF vectorization pass (batch-kernel classification).
    "V101": "apply UDF fell back to the scalar interpreter (not vectorizable)",
    "V102": "a batch min/max update landed below the current bucket (run time)",
    # N1xx: native execution path.
    "N101": "native execution unavailable; fell back to vectorized Python",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, message, and source span."""

    code: str
    severity: Severity
    message: str
    span: Span = field(default_factory=Span)

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:  # pragma: no cover - guard
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def with_file(self, file: str | None) -> "Diagnostic":
        if self.span.file is not None or file is None:
            return self
        return replace(self, span=self.span.with_file(file))

    def __str__(self) -> str:
        return render_diagnostic(self)


def render_diagnostic(diagnostic: Diagnostic) -> str:
    """``file:line:col: severity[CODE]: message`` (clickable in terminals)."""
    location = str(diagnostic.span) if diagnostic.span.is_known else "<program>"
    return (
        f"{location}: {diagnostic.severity}[{diagnostic.code}]: "
        f"{diagnostic.message}"
    )


def sorted_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(
        diagnostics, key=lambda d: (d.span.line, d.span.column, d.severity, d.code)
    )


# ----------------------------------------------------------------------
# Span fallbacks: every diagnostic must carry a *resolvable* span
# ----------------------------------------------------------------------
def _fallback_span(file: str | None) -> Span:
    """The top-of-file anchor used when no better location exists.

    Line 1 / column 1 is always resolvable in an editor, unlike the
    historical ``Span(file=...)`` dummy that rendered as ``?:?``.
    """
    return Span(line=1, column=1, file=file)


def located_span(span: Span | None, file: str | None) -> Span:
    """``span`` when it points at real source, else the file's anchor."""
    if span is not None and span.is_known:
        return span.with_file(span.file or file)
    return _fallback_span(file)


def _program_anchor(program: ast.Program) -> Span:
    """The first located declaration of the program (fallback: line 1)."""
    file = program.source_file
    for group in (program.functions, program.constants, program.elements):
        for node in group:
            span = Span.from_node(node, file=file)
            if span.is_known:
                return span
    return _fallback_span(file)


# ----------------------------------------------------------------------
# Layer 1: race/atomicity diagnostics
# ----------------------------------------------------------------------
def race_diagnostics(report: RaceReport) -> list[Diagnostic]:
    """Project a :class:`RaceReport` onto user-facing diagnostics."""
    found: list[Diagnostic] = []
    for site in report.sites:
        if site.race_class is RaceClass.UNORDERED_RACY:
            found.append(
                Diagnostic(
                    code="R001",
                    severity=Severity.ERROR,
                    message=(
                        f"write to {site.target} in UDF "
                        f"{report.udf_name!r} races under "
                        f"{report.parallelization}/{report.direction}: "
                        f"{site.reason}"
                    ),
                    span=site.span,
                )
            )
        elif site.race_class is RaceClass.BENIGN and "benign race" in site.reason:
            found.append(
                Diagnostic(
                    code="R002",
                    severity=Severity.INFO,
                    message=(
                        f"write to {site.target} in UDF "
                        f"{report.udf_name!r} is a {site.reason}"
                    ),
                    span=site.span,
                )
            )
        elif site.race_class is RaceClass.NEEDS_DEDUP:
            found.append(
                Diagnostic(
                    code="R003",
                    severity=Severity.INFO,
                    message=(
                        f"sum update on {site.target} in UDF "
                        f"{report.udf_name!r} lowers to clamped fetch_add "
                        f"with bucket deduplication"
                    ),
                    span=site.span,
                )
            )
    return found


# ----------------------------------------------------------------------
# Layer 2: the IR validator (run between midend passes)
# ----------------------------------------------------------------------
_BUILTIN_CALLS = frozenset({"load", "atoi", "max", "min"})

#: Pass ordering for stage checks.
_STAGES = ("parsed", "typed", "planned", "lowered")


def validate_ir(
    program: ast.Program,
    stage: str = "typed",
    *,
    schedule: Schedule | None = None,
    transformed_udf: ast.FuncDecl | None = None,
) -> list[Diagnostic]:
    """Check the invariants the midend passes must preserve.

    ``stage`` names the pass boundary being validated (one of
    ``parsed``/``typed``/``planned``/``lowered``).  Before lowering the
    whole program is checked; at ``lowered`` only what lowering introduced
    (no midend pass mutates ``program``): the transformed UDF, present iff
    the histogram schedule asks for it.  Returns the violations as
    diagnostics; :func:`validate_ir_or_raise` is the raising variant.
    """
    if stage not in _STAGES:
        raise ValueError(f"unknown IR stage {stage!r}; expected one of {_STAGES}")
    file = program.source_file
    found: list[Diagnostic] = []
    known_functions = {func.name for func in program.functions}
    known_externs = {extern.name for extern in program.externs}
    callable_names = known_functions | known_externs | _BUILTIN_CALLS

    if stage == "lowered":
        if (
            schedule is not None
            and schedule.uses_histogram
            and transformed_udf is None
        ):
            found.append(
                Diagnostic(
                    code="V003",
                    severity=Severity.ERROR,
                    message=(
                        "histogram schedule reached the backend without a "
                        "transformed UDF (lowering did not run)"
                    ),
                    span=_program_anchor(program),
                )
            )
        if transformed_udf is not None:
            valid_names = callable_names | {
                const.name
                for const in program.constants
                if isinstance(const.declared_type, PriorityQueueType)
            } | {name for name, _ in transformed_udf.parameters}
            for node in ast.walk(transformed_udf):
                if isinstance(node, ast.Call) and node.function not in valid_names:
                    found.append(
                        Diagnostic(
                            code="V001",
                            severity=Severity.ERROR,
                            message=(
                                f"transformed UDF {transformed_udf.name!r} "
                                f"calls unknown function {node.function!r}"
                            ),
                            span=Span.from_node(node, file=file),
                        )
                    )
        return sorted_diagnostics(found)

    # --- main exists -------------------------------------------------
    if program.function("main") is None:
        found.append(
            Diagnostic(
                code="V002",
                severity=Severity.ERROR,
                message="program has no main function",
                span=_program_anchor(program),
            )
        )

    # --- symbols resolved, types intact, no lowered function yet -----
    for func in program.functions:
        if func.name.endswith(TRANSFORMED_SUFFIX):
            found.append(
                Diagnostic(
                    code="V003",
                    severity=Severity.ERROR,
                    message=(
                        f"lowered function {func.name!r} present before "
                        f"the lowering stage (found at {stage!r})"
                    ),
                    span=Span.from_node(func, file=file),
                )
            )
        for name, declared in func.parameters:
            if declared is None:
                found.append(
                    _type_lost(f"parameter {name!r} of {func.name!r}", func, file)
                )
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and node.function not in callable_names:
                found.append(
                    Diagnostic(
                        code="V001",
                        severity=Severity.ERROR,
                        message=(
                            f"call to unknown function {node.function!r} "
                            f"in {func.name!r} (symbol resolution broken "
                            f"after stage {stage!r})"
                        ),
                        span=Span.from_node(node, file=file),
                    )
                )
            elif (
                isinstance(node, ast.MethodCall)
                and node.method in ("applyUpdatePriority", "apply")
                and node.arguments
                and isinstance(node.arguments[0], ast.Name)
                and node.arguments[0].identifier not in callable_names
            ):
                found.append(
                    Diagnostic(
                        code="V001",
                        severity=Severity.ERROR,
                        message=(
                            f"{node.method} references unknown function "
                            f"{node.arguments[0].identifier!r}"
                        ),
                        span=Span.from_node(node, file=file),
                    )
                )
            elif isinstance(node, ast.VarDecl) and node.declared_type is None:
                found.append(_type_lost(f"var {node.name!r}", node, file))
    for const in program.constants:
        if const.declared_type is None:
            found.append(_type_lost(f"const {const.name!r}", const, file))
    return sorted_diagnostics(found)


def _type_lost(what: str, node: ast.Node, file: str | None) -> Diagnostic:
    return Diagnostic(
        code="V003",
        severity=Severity.ERROR,
        message=f"declared type of {what} was lost by a midend pass",
        span=Span.from_node(node, file=file),
    )


def validate_ir_or_raise(program: ast.Program, stage: str, **kwargs) -> None:
    """Raise :class:`IRValidationError` on the first validator finding."""
    found = validate_ir(program, stage, **kwargs)
    if found:
        raise ir_validation_error(found, stage)


def ir_validation_error(found: list[Diagnostic], stage: str) -> IRValidationError:
    """The error a pass boundary raises for the validator's ``found``."""
    first = found[0]
    return IRValidationError(
        f"[{first.code}] {first.message} (IR validation at stage {stage!r})",
        span=first.span,
    )


# ----------------------------------------------------------------------
# Layer 3: schedule–program compatibility
# ----------------------------------------------------------------------
#: knob name (as stored by SchedulingProgram commands) -> (predicate on the
#: final schedule, explanation).  A knob is *dead* when configured but the
#: strategy it modifies is not in effect.
def _dead_knob_rules():
    return (
        (
            "bucket_fusion_threshold",
            lambda s: not s.uses_fusion,
            "bucket_fusion_threshold only applies to eager_with_fusion",
        ),
        (
            "num_buckets",
            lambda s: not s.is_lazy,
            "num_buckets only applies to the lazy strategies",
        ),
        (
            "chunk_size",
            lambda s: s.parallelization == "static-vertex-parallel",
            "chunk_size only applies to the dynamic parallelization policies",
        ),
        (
            "execution",
            lambda s: s.execution == "parallel" and s.num_threads == 1,
            "execution=parallel with num_threads=1 never engages the "
            "thread engine (a one-thread round runs inline, as in serial)",
        ),
        (
            "num_threads",
            lambda s: s.num_threads == 1 and s.execution == "parallel",
            "num_threads=1 collapses the cost model's work split and disables "
            "the thread engine the schedule requests",
        ),
        (
            "parallelization",
            lambda s: s.execution == "native",
            "native kernels always use OpenMP dynamic scheduling; the "
            "parallelization policy only steers the interpreter's cost model",
        ),
        (
            "chunk_size",
            lambda s: s.execution == "native",
            "native kernels hard-code schedule(dynamic, 64); chunk_size "
            "only steers the Python runtime",
        ),
    )


def check_schedule_compat(
    program: ast.Program,
    scheduling: SchedulingProgram,
    facts: ProgramFacts | None = None,
) -> list[Diagnostic]:
    """Cross-check a scheduling program against the actual program labels."""
    file = program.source_file
    label_spans = (facts if facts is not None else build_facts(program)).labels
    found: list[Diagnostic] = []

    for label in scheduling.labels:
        if label not in label_spans:
            suggestion = _closest(label, label_spans)
            hint = f"; did you mean {suggestion!r}?" if suggestion else ""
            found.append(
                Diagnostic(
                    code="S001",
                    severity=Severity.ERROR,
                    message=(
                        f"schedule configures label {label!r} but no "
                        f"statement in the program carries it"
                        f" (program labels: "
                        f"{sorted(label_spans) or 'none'}){hint}"
                    ),
                    span=_schedule_command_span(program, label, label_spans),
                )
            )
            continue
        final = scheduling.schedule_for(label)
        configured = {knob for knob, _ in scheduling.commands_for(label)}
        for knob, is_dead, why in _dead_knob_rules():
            if knob in configured and is_dead(final):
                found.append(
                    Diagnostic(
                        code="S002",
                        severity=Severity.WARNING,
                        message=(
                            f"knob {knob!r} configured for label {label!r} "
                            f"is dead under "
                            f"priority_update={final.priority_update!r}, "
                            f"parallelization={final.parallelization!r}: "
                            f"{why}"
                        ),
                        span=label_spans[label],
                    )
                )
    return sorted_diagnostics(found)


def _schedule_command_span(
    program: ast.Program, label: str, label_spans: dict[str, Span]
) -> Span:
    """Locate a misspelled label at the inline schedule command naming it.

    When the scheduling program was built through the Python API (no inline
    command exists), fall back to the closest actual label's statement, then
    to the first labeled statement, then to the program's first declaration —
    every S001 stays anchored to real source.
    """
    for statement in program.schedule:
        if statement.arguments and statement.arguments[0] == label:
            return Span.from_node(statement, file=program.source_file)
    suggestion = _closest(label, label_spans)
    if suggestion is not None:
        return label_spans[suggestion]
    if label_spans:
        return min(label_spans.values())
    return _program_anchor(program)


def _closest(candidate: str, pool) -> str | None:
    """Cheap edit-distance-1-ish suggestion for misspelled labels."""
    matches = difflib.get_close_matches(candidate, sorted(pool), n=1, cutoff=0.5)
    return matches[0] if matches else None
