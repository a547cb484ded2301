"""Whole-program effect verdicts, read from the program's facts.

Every function here is a projection of a
:class:`~repro.midend.analysis.facts.ProgramFacts`:

- :func:`classify_monotonicity` proves each priority update (and each
  direct store to a queue's priority vector) monotone-decreasing,
  monotone-increasing or non-monotone.  A verdict is *admissible* when the
  proven direction matches the queue's processing order; inadmissible
  verdicts gate the fused schedules (``M001``).
- :func:`classify_incremental_eligibility` decides whether a converged run
  may be resumed after graph mutations (``I001``): only an extremal
  (min/max) fixpoint can be re-seeded.
- :func:`check_fusion_safety` decides whether two programs' ordered
  traversals may share one fused traversal.
- :func:`runtime_summary` renders the facts under one traversal direction
  as the contract the runtime schedule sanitizer checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ...lang import ast_nodes as ast
from ...lang.span import Span
from .facts import (
    Access,
    AccessKind,
    ProgramFacts,
    QueueInfo,
    TargetKind,
    UDFFacts,
    constant_value,
    same_indexed_read,
)

__all__ = [
    "FusionVerdict",
    "IncrementalEligibility",
    "Monotonicity",
    "MonotonicityVerdict",
    "check_fusion_safety",
    "classify_incremental_eligibility",
    "classify_monotonicity",
    "fusion_matrix",
    "runtime_summary",
]


# ----------------------------------------------------------------------
# Monotonicity (relaxed-schedule admissibility)
# ----------------------------------------------------------------------
class Monotonicity(enum.Enum):
    DECREASING = "monotone-decreasing"
    INCREASING = "monotone-increasing"
    NON_MONOTONE = "non-monotone"


#: queue processing order -> the update direction it admits
_ADMITS = {"lower_first": Monotonicity.DECREASING,
           "higher_first": Monotonicity.INCREASING}


@dataclass
class MonotonicityVerdict:
    """The proof result for one priority-update (or direct-write) site.

    ``eager_with_fusion`` drains same-bucket insertions out of the global
    order, which is only sound when every update moves priorities toward
    the processing front: then a vertex processed "early" can never have
    its priority improved past work that already ran.
    """

    udf_name: str
    queue_name: str | None  # None when the owning queue is unknown
    site: str  # rendered site, e.g. "priority(pq)" or "dist[dst]"
    verdict: Monotonicity
    #: whether the proven direction matches the queue's processing order
    admissible: bool
    reason: str
    span: Span = field(default_factory=Span)
    #: the direct store behind the verdict (``None`` for update operators)
    store: Access | None = None

    def racy_site(self, direction: str) -> bool:
        """Whether the site is an unordered-racy write under ``direction``:
        the race analysis reports it as R001, so M001 does not."""
        store = self.store
        return (
            store is not None
            and not store.owned(direction)
            and not store.guarded_monotonic
        )

    def to_json(self) -> dict:
        return {
            "udf": self.udf_name,
            "queue": self.queue_name,
            "site": self.site,
            "verdict": self.verdict.value,
            "admissible": self.admissible,
            "reason": self.reason,
            "line": self.span.line,
        }


def classify_monotonicity(facts: ProgramFacts) -> list[MonotonicityVerdict]:
    """One verdict per priority update and per direct priority-vector
    store, over every apply UDF."""
    vector_owner = {
        info.priority_vector: info
        for info in facts.queues.values()
        if info.priority_vector is not None
    }
    verdicts: list[MonotonicityVerdict] = []
    for udf in facts.udfs.values():
        for access in udf.accesses:
            if access.kind is AccessKind.PRIORITY_UPDATE:
                verdicts.append(
                    _update_verdict(udf.name, access, facts.queues.get(access.base))
                )
            elif (
                access.target_kind is TargetKind.VECTOR
                and access.base in vector_owner
            ):
                verdicts.append(
                    _store_verdict(udf.name, access, vector_owner[access.base])
                )
    return verdicts


def _admissible(verdict: Monotonicity, queue: QueueInfo | None) -> bool:
    if queue is None or queue.order not in _ADMITS:
        return verdict is not Monotonicity.NON_MONOTONE
    return verdict is _ADMITS[queue.order]


def _update_verdict(udf_name, access, queue) -> MonotonicityVerdict:
    update = access.update
    if update.op == "min":
        verdict = Monotonicity.DECREASING
        reason = "updatePriorityMin stores min(old, new): never increases"
    elif update.op == "max":
        verdict = Monotonicity.INCREASING
        reason = "updatePriorityMax stores max(old, new): never decreases"
    else:  # sum
        constant = constant_value(update.value_arg)
        if constant is None:
            verdict = Monotonicity.NON_MONOTONE
            reason = (
                "updatePrioritySum with a non-constant difference: the "
                "sign may differ between invocations"
            )
        elif constant < 0:
            verdict = Monotonicity.DECREASING
            reason = f"updatePrioritySum adds the constant {constant} (< 0)"
        elif constant > 0:
            verdict = Monotonicity.INCREASING
            reason = f"updatePrioritySum adds the constant {constant} (> 0)"
        else:
            verdict = Monotonicity.NON_MONOTONE
            reason = "updatePrioritySum adds the constant 0: a no-op update"
    return MonotonicityVerdict(
        udf_name=udf_name,
        queue_name=update.queue_name,
        site=access.rendered,
        verdict=verdict,
        admissible=_admissible(verdict, queue),
        reason=reason,
        span=access.span,
    )


def _store_verdict(udf_name, access, queue) -> MonotonicityVerdict:
    """A direct store is monotone only under a comparison against its own
    target; the comparison's operator, normalized so the old value sits on
    the right (``new < pv[v]``), gives the direction."""
    guard = access.guard
    if guard is None:
        verdict = Monotonicity.NON_MONOTONE
        reason = (
            f"unguarded store to the priority vector {access.base!r}: the "
            f"stored value is unconstrained relative to the old priority"
        )
    elif guard.operator in ("==", "!="):
        verdict = Monotonicity.NON_MONOTONE
        reason = f"guard {guard.operator!r} constrains equality, not direction"
    else:
        operator = guard.operator
        if not same_indexed_read(guard.right, access.base, access.node.target.index):
            operator = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[operator]
        below = operator in ("<", "<=")
        verdict = Monotonicity.DECREASING if below else Monotonicity.INCREASING
        reason = (
            "store guarded by a comparison proving the new value is "
            f"{'below' if below else 'above'} the old priority"
        )
    return MonotonicityVerdict(
        udf_name=udf_name,
        queue_name=queue.name,
        site=access.rendered,
        verdict=verdict,
        admissible=_admissible(verdict, queue),
        reason=reason,
        span=access.span,
        store=access,
    )


# ----------------------------------------------------------------------
# Incremental-resume eligibility (the I001 gate)
# ----------------------------------------------------------------------
@dataclass
class IncrementalEligibility:
    """Whether a program's ordered loop can be resumed after mutations.

    Resuming is sound only for an *extremal fixpoint*: every update a min
    (``lower_first``) or max (``higher_first``) combine, so a re-seeded
    queue converges back from any sound over-approximation.  Sum updates
    (the k-core peel) encode the run's history, not a fixpoint; extern
    bucket processors are invisible; non-monotone or inadmissible updates
    are unsafe to reorder, and a resume reorders the tail of the run.
    """

    eligible: bool
    #: "min" or "max" when eligible — the extremal combine direction
    kind: str | None
    loop_udf: str | None
    loop_queue: str | None
    #: every disqualifying fact (empty when eligible)
    reasons: list[str] = field(default_factory=list)
    #: the canonical relaxation body the incremental engine implements:
    #: "dist_plus_weight", "min_width_weight", or "unrecognized"
    relaxation_shape: str | None = None

    def to_json(self) -> dict:
        return {
            "eligible": self.eligible,
            "kind": self.kind,
            "udf": self.loop_udf,
            "queue": self.loop_queue,
            "reasons": list(self.reasons),
            "relaxation_shape": self.relaxation_shape,
        }


#: update op -> (kind, the queue order that makes the combine extremal)
_EXTREMAL_OPS = {"min": ("min", "lower_first"), "max": ("max", "higher_first")}


def classify_incremental_eligibility(facts: ProgramFacts) -> IncrementalEligibility:
    """One verdict per program: can a converged run be resumed?"""
    loop = facts.loop
    reasons: list[str] = []
    kind: str | None = None

    if loop is None:
        reasons.append(
            "no recognized ordered loop: there is no converged priority "
            "vector to resume from"
        )
    elif loop.extern_processor is not None:
        reasons.append(
            "the ordered loop hands buckets to an extern processor; its "
            "effects are invisible to the resume analysis"
        )

    for verdict in classify_monotonicity(facts):
        if verdict.verdict is Monotonicity.NON_MONOTONE:
            reasons.append(
                f"{verdict.site}: non-monotone priority update "
                f"({verdict.reason})"
            )
        elif not verdict.admissible:
            reasons.append(
                f"{verdict.site}: update direction does not match the "
                f"queue's processing order ({verdict.reason})"
            )

    loop_udf = facts.loop_udf
    if loop is not None and loop_udf is None:
        reasons.append(
            f"ordered loop UDF {loop.udf_name!r} has no effect summary"
        )
    if loop_udf is not None:
        updates = loop_udf.priority_updates
        if not updates:
            reasons.append(
                f"UDF {loop.udf_name!r} performs no priority update; "
                f"nothing for a resumed queue to re-drive"
            )
        for access in updates:
            update = access.update
            if update.op not in _EXTREMAL_OPS:
                reasons.append(
                    f"{access.rendered}: updatePrioritySum mutates the "
                    f"priority by a difference; the converged vector "
                    f"records run history, not an extremal fixpoint, so "
                    f"it cannot seed a resume"
                )
                continue
            op_kind, required_order = _EXTREMAL_OPS[update.op]
            queue = facts.queues.get(update.queue_name)
            if queue is not None and queue.order not in (None, required_order):
                reasons.append(
                    f"{access.rendered}: {update.op}-combine on a "
                    f"{queue.order} queue is not an extremal fixpoint"
                )
                continue
            if kind is not None and kind != op_kind:
                reasons.append(
                    f"{access.rendered}: mixes min and max combines in "
                    f"one ordered loop"
                )
            kind = kind or op_kind

    shape: str | None = None
    if loop_udf is not None and kind is not None and not reasons:
        shape = _relaxation_shape(loop_udf, facts.queue_vector(loop.queue_name), kind)

    eligible = not reasons and kind is not None
    return IncrementalEligibility(
        eligible=eligible,
        kind=kind if eligible else None,
        loop_udf=loop.udf_name if loop is not None else None,
        loop_queue=loop.queue_name if loop is not None else None,
        reasons=reasons,
        relaxation_shape=shape,
    )


def _relaxation_shape(udf: UDFFacts, vector: str | None, kind: str) -> str:
    """Match the loop UDF's update value against the canonical bodies:
    ``dist_plus_weight`` (min of ``vec[src] + weight``, the shortest-path
    family) and ``min_width_weight`` (max of ``min(vec[src], weight)``,
    widest path).  Anything else is eligible in principle, but the
    incremental engine has no relaxer for it."""
    src = udf.src_param
    weights = set(udf.parameters) - {src, udf.dst_param}

    def reads_vector(expr) -> bool:
        return (
            isinstance(expr, ast.Index)
            and isinstance(expr.base, ast.Name)
            and expr.base.identifier == vector
            and isinstance(expr.index, ast.Name)
            and expr.index.identifier == src
        )

    def vector_and_weight(first, second) -> bool:
        is_weight = isinstance(second, ast.Name) and second.identifier in weights
        other = isinstance(first, ast.Name) and first.identifier in weights
        return (reads_vector(first) and is_weight) or (
            reads_vector(second) and other
        )

    for access in udf.priority_updates:
        value = _resolve(access.update.value_arg, udf.single_assignments)
        if (
            kind == "min"
            and isinstance(value, ast.BinaryOp)
            and value.operator == "+"
            and vector_and_weight(value.left, value.right)
        ):
            return "dist_plus_weight"
        if (
            kind == "max"
            and isinstance(value, ast.Call)
            and value.function == "min"
            and len(value.arguments) == 2
            and vector_and_weight(*value.arguments)
        ):
            return "min_width_weight"
    return "unrecognized"


def _resolve(expr, definitions: dict) -> ast.Expr:
    seen: set[str] = set()
    while isinstance(expr, ast.Name) and expr.identifier in definitions:
        if expr.identifier in seen:  # pragma: no cover - cycle guard
            break
        seen.add(expr.identifier)
        expr = definitions[expr.identifier]
    return expr


# ----------------------------------------------------------------------
# Pairwise fusion safety
# ----------------------------------------------------------------------
@dataclass
class FusionVerdict:
    """Whether two programs' ordered traversals may be fused."""

    first: str
    second: str
    fusable: bool
    #: human-readable blockers; empty when fusable
    reasons: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "pair": [self.first, self.second],
            "fusable": self.fusable,
            "reasons": list(self.reasons),
        }


def check_fusion_safety(
    first_name: str, first, second_name: str, second
) -> FusionVerdict:
    """Decide whether two planned programs may share one traversal.

    ``first`` and ``second`` are compilation plans (facts + schedule).
    Both need a recognized ordered loop without an extern processor; their
    queues must process in the same order and follow the same update
    discipline (one processing front, one bucket-update rule); neither loop
    UDF may write a shared scalar (per-query vectors are renamed apart,
    scalars are not) or race, and every priority update must be
    admissible, or fusing would extend one query's unsoundness to its
    partner.
    """
    reasons: list[str] = []
    reasons.extend(_structure_blockers(first_name, first.facts))
    reasons.extend(_structure_blockers(second_name, second.facts))

    if not reasons:
        order_a = _loop_order(first.facts)
        order_b = _loop_order(second.facts)
        if order_a != order_b:
            reasons.append(
                f"processing-order mismatch: {first_name} processes "
                f"{order_a!r} but {second_name} processes {order_b!r}; a "
                f"fused traversal has a single processing front"
            )
        discipline_a = _update_discipline(first.facts)
        discipline_b = _update_discipline(second.facts)
        if discipline_a != discipline_b:
            reasons.append(
                f"update-discipline mismatch: {first_name} uses "
                f"{discipline_a} updates but {second_name} uses "
                f"{discipline_b} updates; bucket maintenance differs"
            )

    for name, plan in ((first_name, first), (second_name, second)):
        reasons.extend(_effect_blockers(name, plan.facts, plan.schedule.direction))

    return FusionVerdict(
        first=first_name,
        second=second_name,
        fusable=not reasons,
        reasons=reasons,
    )


def _structure_blockers(name: str, facts: ProgramFacts) -> list[str]:
    if facts.loop is None:
        return [
            f"{name} has no recognized ordered-processing loop to fuse into"
        ]
    if facts.loop.extern_processor is not None:
        return [
            f"{name} delegates bucket processing to an extern function; "
            f"its effects are not analyzable"
        ]
    return []


def _loop_order(facts: ProgramFacts) -> str | None:
    info = facts.queues.get(facts.loop.queue_name)
    return info.order if info is not None else None


def _update_discipline(facts: ProgramFacts) -> str:
    """``"relaxation"`` (min/max) or ``"accumulation"`` (sum) of the loop UDF."""
    udf = facts.loop_udf
    if udf is None:
        return "none"
    ops = {a.update.op for a in udf.priority_updates}
    if ops <= {"min", "max"} and ops:
        return "relaxation"
    if ops == {"sum"}:
        return "accumulation"
    return "mixed" if ops else "none"


def _effect_blockers(name: str, facts: ProgramFacts, direction: str) -> list[str]:
    reasons: list[str] = []
    udf = facts.loop_udf
    if udf is not None:
        for access in udf.write_accesses:
            if access.target_kind is TargetKind.SCALAR:
                reasons.append(
                    f"{name}: UDF {udf.name!r} writes the shared scalar "
                    f"{access.base!r}; scalars are not renamed apart between "
                    f"fused queries"
                )
            elif (
                access.target_kind is TargetKind.VECTOR
                and not access.owned(direction)
                and not access.guarded_monotonic
            ):
                reasons.append(
                    f"{name}: UDF {udf.name!r} performs an unordered "
                    f"racy write to {access.rendered}; unsound under any "
                    f"parallel traversal, fused or not"
                )
    for verdict in classify_monotonicity(facts):
        if udf is not None and verdict.udf_name != udf.name:
            continue
        if not verdict.admissible and not verdict.racy_site(direction):
            reasons.append(
                f"{name}: {verdict.site} in UDF {verdict.udf_name!r} is "
                f"{verdict.verdict.value} for its queue's processing order "
                f"({verdict.reason})"
            )
    return reasons


def fusion_matrix(plans: dict) -> list[FusionVerdict]:
    """All unordered pairs of ``plans``, in sorted name order."""
    names = sorted(plans)
    return [
        check_fusion_safety(a, plans[a], b, plans[b])
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]


# ----------------------------------------------------------------------
# Renderings under one direction
# ----------------------------------------------------------------------
def runtime_summary(facts: ProgramFacts, direction: str) -> dict:
    """Per-UDF read/write/racy sets with priority-queue effects folded onto
    the queue's priority vector — the contract the schedule sanitizer
    checks dynamic accesses against."""
    out: dict[str, dict] = {}
    for name, udf in facts.udfs.items():
        reads = udf.read_set()
        writes = udf.write_set()
        racy: set[str] = set()
        write_index: dict[str, set[str]] = {}
        for access in udf.write_accesses:
            if access.target_kind is TargetKind.VECTOR:
                write_index.setdefault(access.base, set()).add(
                    access.provenance.value
                )
                if not access.owned(direction) and not access.guarded_monotonic:
                    racy.add(access.base)
            elif access.target_kind is TargetKind.QUEUE:
                vector = facts.queue_vector(access.base)
                folded = (
                    vector if vector is not None else f"priority({access.base})"
                )
                # The update both reads the old priority and writes the new one.
                reads.add(folded)
                writes.add(folded)
                if access.index_name is not None:
                    write_index.setdefault(folded, set()).add(
                        access.provenance.value
                    )
        out[name] = {
            "reads": sorted(reads),
            "writes": sorted(writes),
            "racy": sorted(racy),
            "write_index": {k: sorted(v) for k, v in sorted(write_index.items())},
        }
    return out
