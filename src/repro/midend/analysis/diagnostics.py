"""The midend diagnostics engine: structured, located, stable-coded.

Three layers, all reporting :class:`Diagnostic` records with source spans,
a severity, and a stable code (``R…`` race analysis, ``V…`` IR validator,
``S…`` schedule checker, ``P…``/``T…`` frontend):

1. **Race/atomicity diagnostics** — the projection of
   :mod:`~repro.midend.analysis.races` onto user-facing findings: an
   unordered racy write is an ``R001`` error, benign guarded races and
   dedup requirements are informational notes.
2. **IR validator** (:func:`validate_ir`) — run between midend passes; it
   checks the invariants each pass is supposed to preserve (symbols
   resolved, types intact, lowered constructs only after lowering) and
   turns silent miscompiles into located errors.
3. **Schedule–program compatibility** (:func:`check_schedule_compat`) —
   cross-checks :class:`~repro.midend.schedule.SchedulingProgram` labels
   against the labels that actually occur in the program (the misspelled
   label footgun, ``S001``) and flags knobs that are dead under the chosen
   strategy (``S002``).

:func:`lint_program` runs the full pipeline over DSL source and collects
everything without stopping at the first failure where possible; it backs
the ``repro lint`` CLI subcommand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ...errors import (
    CompileError,
    IncrementalityError,
    IRValidationError,
    MonotonicityError,
    ParseError,
    SchedulingError,
    TypeCheckError,
)
from ...lang import ast_nodes as ast
from ...lang.parser import parse
from ...lang.span import Span
from ...lang.typecheck import typecheck
from ...lang.types import PriorityQueueType
from ..schedule import Schedule, SchedulingProgram
from .races import RaceClass, RaceReport, analyze_races

__all__ = [
    "Severity",
    "Diagnostic",
    "DIAGNOSTIC_CODES",
    "race_diagnostics",
    "validate_ir",
    "check_schedule_compat",
    "lint_program",
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


def _sorted(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
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


def _located(span: Span | None, file: str | None) -> Span:
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
    ``parsed``/``typed``/``planned``/``lowered``).  Returns the violations
    as diagnostics; :func:`validate_ir_or_raise` is the raising variant the
    pipeline uses.
    """
    if stage not in _STAGES:
        raise ValueError(f"unknown IR stage {stage!r}; expected one of {_STAGES}")
    file = program.source_file
    found: list[Diagnostic] = []

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

    # --- symbols resolved: every Call / apply target names a function
    known_functions = {func.name for func in program.functions}
    known_externs = {extern.name for extern in program.externs}
    callable_names = known_functions | known_externs | _BUILTIN_CALLS
    for func in program.functions:
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
            if (
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

    # --- types intact: declarations keep their declared types --------
    for func in program.functions:
        for name, declared in func.parameters:
            if declared is None:
                found.append(
                    _type_lost(f"parameter {name!r} of {func.name!r}", func, file)
                )
        for node in ast.walk(func):
            if isinstance(node, ast.VarDecl) and node.declared_type is None:
                found.append(_type_lost(f"var {node.name!r}", node, file))
    for const in program.constants:
        if const.declared_type is None:
            found.append(_type_lost(f"const {const.name!r}", const, file))

    # --- lowered constructs only after lowering ----------------------
    from ..transforms.histogram_transform import TRANSFORMED_SUFFIX

    stage_index = _STAGES.index(stage)
    if stage_index < _STAGES.index("lowered"):
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
    else:
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
            queue_names = {
                const.name
                for const in program.constants
                if isinstance(const.declared_type, PriorityQueueType)
            }
            valid_names = callable_names | queue_names | {
                name for name, _ in transformed_udf.parameters
            }
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
    return _sorted(found)


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
        first = found[0]
        raise IRValidationError(
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


def program_labels(program: ast.Program) -> set[str]:
    """All statement labels (``#s1#``) appearing anywhere in the program."""
    labels: set[str] = set()
    for func in program.functions:
        for node in ast.walk(func):
            label = getattr(node, "label", None)
            if label:
                labels.add(label)
    return labels


def check_schedule_compat(
    program: ast.Program, scheduling: SchedulingProgram
) -> list[Diagnostic]:
    """Cross-check a scheduling program against the actual program labels."""
    file = program.source_file
    labels_in_program = program_labels(program)
    label_spans = _label_spans(program)
    found: list[Diagnostic] = []

    for label in scheduling.labels:
        if label not in labels_in_program:
            suggestion = _closest(label, labels_in_program)
            hint = f"; did you mean {suggestion!r}?" if suggestion else ""
            found.append(
                Diagnostic(
                    code="S001",
                    severity=Severity.ERROR,
                    message=(
                        f"schedule configures label {label!r} but no "
                        f"statement in the program carries it"
                        f" (program labels: "
                        f"{sorted(labels_in_program) or 'none'}){hint}"
                    ),
                    span=_schedule_command_span(program, label),
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
                        span=label_spans.get(label, _fallback_span(file)),
                    )
                )
    return _sorted(found)


def _schedule_command_span(program: ast.Program, label: str) -> Span:
    """Locate a misspelled label at the inline schedule command naming it.

    When the scheduling program was built through the Python API (no inline
    command exists), fall back to the closest actual label's statement, then
    to the first labeled statement, then to the program's first declaration —
    every S001 stays anchored to real source.
    """
    for statement in program.schedule:
        if statement.arguments and statement.arguments[0] == label:
            return Span.from_node(statement, file=program.source_file)
    label_spans = _label_spans(program)
    suggestion = _closest(label, set(label_spans))
    if suggestion is not None:
        return label_spans[suggestion]
    if label_spans:
        return min(label_spans.values())
    return _program_anchor(program)


def _label_spans(program: ast.Program) -> dict[str, Span]:
    spans: dict[str, Span] = {}
    for func in program.functions:
        for node in ast.walk(func):
            label = getattr(node, "label", None)
            if label and label not in spans:
                spans[label] = Span.from_node(node, file=program.source_file)
    return spans


def _closest(candidate: str, pool: set[str]) -> str | None:
    """Cheap edit-distance-1-ish suggestion for misspelled labels."""
    import difflib

    matches = difflib.get_close_matches(candidate, sorted(pool), n=1, cutoff=0.5)
    return matches[0] if matches else None


# ----------------------------------------------------------------------
# The full pipeline: repro lint
# ----------------------------------------------------------------------
def lint_program(
    source: str,
    schedule: Schedule | SchedulingProgram | None = None,
    filename: str | None = None,
    include_info: bool = False,
) -> list[Diagnostic]:
    """Run every analysis over DSL ``source`` and collect diagnostics.

    Never raises for program problems — frontend rejections become located
    ``P001``/``T001`` diagnostics, midend rejections become ``V003``/
    ``S003``, and the race/validator/schedule layers contribute their own
    codes.  ``include_info`` adds the informational race-classification
    notes (``R002``/``R003``).
    """
    found: list[Diagnostic] = []

    try:
        program = parse(source, filename)
    except ParseError as error:
        return [
            Diagnostic(
                code="P001",
                severity=Severity.ERROR,
                message=str(error),
                span=_located(getattr(error, "span", None), filename),
            )
        ]

    try:
        typecheck(program)
    except TypeCheckError as error:
        found.append(
            Diagnostic(
                code="T001",
                severity=Severity.ERROR,
                message=str(error),
                span=_located(getattr(error, "span", None), filename),
            )
        )
        return _sorted(found)

    found.extend(validate_ir(program, "typed"))

    # Resolve the scheduling program (explicit > inline block > default).
    from ..transforms.lowering import schedule_from_block

    scheduling: SchedulingProgram | None = None
    resolved: Schedule | SchedulingProgram | None = schedule
    if isinstance(schedule, SchedulingProgram):
        scheduling = schedule
    elif schedule is None and program.schedule:
        try:
            scheduling = schedule_from_block(program)
            resolved = scheduling
        except SchedulingError as error:
            found.append(
                Diagnostic(
                    code="S003",
                    severity=Severity.ERROR,
                    message=str(error),
                    span=_located(getattr(error, "span", None), filename),
                )
            )
            return _sorted(found)
    if scheduling is not None:
        found.extend(check_schedule_compat(program, scheduling))

    # The midend plan: infeasible combinations become located diagnostics.
    from ..transforms.lowering import plan_program

    plan = None
    try:
        try:
            plan = plan_program(program, resolved)
        except (SchedulingError, CompileError):
            if resolved is not None:
                raise
            # No schedule was requested: programs whose ordered loop is
            # eager-ineligible (e.g. SetCover's extern bucket processor)
            # still lint clean under the lazy strategy they require.
            plan = plan_program(program, Schedule(priority_update="lazy"))
            resolved = plan.schedule
    except MonotonicityError as error:
        found.append(
            Diagnostic(
                code="M001",
                severity=Severity.ERROR,
                message=str(error),
                span=_located(getattr(error, "span", None), filename),
            )
        )
    except IncrementalityError as error:
        found.append(
            Diagnostic(
                code="I001",
                severity=Severity.ERROR,
                message=str(error),
                span=_located(getattr(error, "span", None), filename),
            )
        )
    except SchedulingError as error:
        found.append(
            Diagnostic(
                code="S003",
                severity=Severity.ERROR,
                message=str(error),
                span=_located(getattr(error, "span", None), filename),
            )
        )
    except CompileError as error:
        found.append(
            Diagnostic(
                code="V003",
                severity=Severity.ERROR,
                message=str(error),
                span=_located(getattr(error, "span", None), filename),
            )
        )

    # Race analysis over every UDF used by an apply, under its statement's
    # schedule (the plan covers only the recognized ordered loop).
    queue_names = {
        const.name
        for const in program.constants
        if isinstance(const.declared_type, PriorityQueueType)
    }
    seen: set[str] = set()
    for udf_name, label in _apply_udfs(program):
        if udf_name in seen:
            continue
        seen.add(udf_name)
        udf = program.function(udf_name)
        if udf is None:
            continue  # V001 already reported by the validator
        if isinstance(resolved, SchedulingProgram):
            active = resolved.schedule_for(label or "")
        elif isinstance(resolved, Schedule):
            active = resolved
        elif plan is not None:
            active = plan.schedule
        else:
            active = Schedule()
        report = analyze_races(udf, queue_names, active, source_file=filename)
        found.extend(race_diagnostics(report))

    # UDF vectorization classification: every apply UDF that stays on the
    # scalar interpreter gets an informational V101 with the located reason.
    if plan is not None:
        for vec_report in plan.vectorize.values():
            if vec_report.vectorizable:
                continue
            found.append(
                Diagnostic(
                    code="V101",
                    severity=Severity.INFO,
                    message=(
                        f"UDF {vec_report.udf_name!r} falls back to the "
                        f"scalar interpreter: {vec_report.reason}"
                    ),
                    span=_located(vec_report.span, filename),
                )
            )

    if not include_info:
        found = [d for d in found if d.severity is not Severity.INFO]
    return _sorted(_dedup(found))


def _apply_udfs(program: ast.Program):
    """(udf name, statement label) for every apply-style call site."""
    for func in program.functions:
        for node in ast.walk(func):
            if not isinstance(node, (ast.ExprStmt,)):
                continue
            expression = node.expression
            if (
                isinstance(expression, ast.MethodCall)
                and expression.method in ("applyUpdatePriority", "apply")
                and expression.arguments
                and isinstance(expression.arguments[0], ast.Name)
            ):
                yield expression.arguments[0].identifier, node.label


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
