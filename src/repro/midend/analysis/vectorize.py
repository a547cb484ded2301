"""Batch-kernel classification of apply UDFs (UDF vectorization).

The scalar interpreter runs an apply UDF one edge at a time; like the
GraphIt compilers, this pass specializes the UDF shapes of the paper's
evaluated algorithms into batch kernels — numpy expressions over whole
edge streams, executed with vectorized scatter-reduces:

``write_min`` / ``write_max``
    One ``updatePriorityMin``/``Max`` on the destination whose new value
    is a pure batch expression (SSSP, wBFS, PPSP, widest path).
``guarded_write_min``
    The A* idiom: a guarded monotonic min-write to an auxiliary vector,
    then an ``updatePriorityMin`` whose priority is derived from the
    written value and destination-indexed reads.
``sum_const`` / ``sum_hist``
    One constant-difference ``updatePrioritySum`` clamped at the current
    priority (k-core), under the plain schedules / ``lazy_constant_sum``.

Anything else — a whole-edgeset ``edges.apply``, an ``unordered_racy``
write (R001) — stays on the scalar interpreter, with a located reason that
``repro lint`` reports as ``V101``.  Outputs are bit-identical to the
scalar interpreter (``write_min``/``write_max`` while no update lands below
the current bucket, else ``V102``).  Every fact the matchers consult is a
read of the program's :class:`~repro.midend.analysis.facts.ProgramFacts`;
batch expressions are rendered as numpy source over the stream variables
``src``/``dst``/``weight``/``k_cur`` (and ``new_val``), which the Python
backend embeds verbatim in the kernel descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...lang import ast_nodes as ast
from ...lang.span import Span
from ..schedule import Schedule
from .facts import PriorityUpdate, ProgramFacts, TargetKind, UDFFacts
from .races import RaceReport

__all__ = ["VectorKernel", "VectorizeReport", "analyze_vectorization"]


@dataclass
class VectorKernel:
    """Everything the backend needs to emit one batch kernel descriptor."""

    kind: str  # write_min | write_max | guarded_write_min | sum_const | sum_hist
    queue_name: str | None = None
    value: str | None = None  # batch expr for the candidate value
    priority: str | None = None  # guarded kind: priority expr (uses new_val)
    aux: str | None = None  # guarded kind: guarded-write target vector
    constant: int | None = None  # sum kinds: the constant difference


@dataclass
class VectorizeReport:
    """The classification of one apply UDF under one schedule."""

    udf_name: str
    kernel: VectorKernel | None
    reason: str
    span: Span = field(default_factory=Span)

    @property
    def vectorizable(self) -> bool:
        return self.kernel is not None


class _Fallback(Exception):
    """Raised inside the matcher to abort to scalar_fallback with a reason."""

    def __init__(self, reason: str, span: Span | None = None):
        super().__init__(reason)
        self.reason = reason
        self.span = span


# ----------------------------------------------------------------------
# Batch expression classification
# ----------------------------------------------------------------------
_ARITH_OPS = {"+", "-", "*"}
_COMPARE_OPS = {"<", ">", "<=", ">=", "==", "!="}


class _ExprClassifier:
    """Renders a UDF expression as a numpy batch expression string.

    Tracks which program vectors the expression reads at the destination
    and whether it depends on the edge at all (source or weight); the kind
    matchers use both to enforce the safety conditions (destination reads
    of written vectors are only legal through the structural patterns the
    runtime handles exactly, and the guarded kind's priority is evaluated
    once per improved vertex, where no edge exists any more).
    """

    def __init__(
        self, udf: UDFFacts, facts: ProgramFacts, new_val_name: str | None = None
    ):
        self.src_param = udf.src_param
        self.dst_param = udf.dst_param
        self.weight_param = udf.parameters[2] if len(udf.parameters) > 2 else None
        self.locals_inline = udf.single_assignments
        self.vector_names = facts.vectors
        self.scalar_names = facts.scalars
        self.queue_names = facts.queue_names
        self.new_val_name = new_val_name
        self.reads_at_dst: set[str] = set()
        # First sub-expression that depends on the edge (source or weight).
        self.edge_use: ast.Expr | None = None
        self._inlining: set[str] = set()

    def classify(self, expression: ast.Expr) -> str:
        if isinstance(expression, ast.IntLiteral):
            return repr(expression.value)
        if isinstance(expression, ast.BoolLiteral):
            return "True" if expression.value else "False"
        if isinstance(expression, ast.Name):
            return self._name(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._binary(expression)
        if isinstance(expression, ast.UnaryOp):
            operand = self.classify(expression.operand)
            if expression.operator == "-":
                return f"(-{operand})"
            if expression.operator == "not":
                return f"(~({operand}))"
            raise _Fallback(
                f"operator {expression.operator!r} has no batch form",
                expression.span,
            )
        if isinstance(expression, ast.Call):
            return self._call(expression)
        if isinstance(expression, ast.Index):
            return self._index(expression)
        if isinstance(expression, ast.MethodCall):
            if (
                expression.method in ("getCurrentPriority", "get_current_priority")
                and isinstance(expression.receiver, ast.Name)
                and expression.receiver.identifier in self.queue_names
            ):
                return "k_cur"
            raise _Fallback(
                f"method call {expression.method!r} has no batch form",
                expression.span,
            )
        raise _Fallback(
            f"{type(expression).__name__} expression has no batch form",
            expression.span,
        )

    def _name(self, expression: ast.Name) -> str:
        name = expression.identifier
        if name == self.dst_param:
            return "dst"
        if name in (self.src_param, self.weight_param):
            self.edge_use = self.edge_use or expression
            return "src" if name == self.src_param else "weight"
        if self.new_val_name is not None and name == self.new_val_name:
            return "new_val"
        if name in self.locals_inline:
            if name in self._inlining:
                raise _Fallback(
                    f"local {name!r} is self-referential", expression.span
                )
            self._inlining.add(name)
            try:
                return self.classify(self.locals_inline[name])
            finally:
                self._inlining.discard(name)
        if name == "INT_MAX" or name in self.scalar_names:
            return name
        raise _Fallback(
            f"reads {name!r}, which is not a parameter, an inlineable local, "
            f"or a scalar global",
            expression.span,
        )

    def _binary(self, expression: ast.BinaryOp) -> str:
        left = self.classify(expression.left)
        right = self.classify(expression.right)
        operator = expression.operator
        if operator in _ARITH_OPS or operator in _COMPARE_OPS:
            return f"({left} {operator} {right})"
        if operator == "and":
            return f"(({left}) & ({right}))"
        if operator == "or":
            return f"(({left}) | ({right}))"
        raise _Fallback(
            f"operator {operator!r} has no elementwise batch form",
            expression.span,
        )

    def _call(self, expression: ast.Call) -> str:
        if expression.function in ("min", "max") and len(expression.arguments) == 2:
            numpy_name = (
                "np.minimum" if expression.function == "min" else "np.maximum"
            )
            left = self.classify(expression.arguments[0])
            right = self.classify(expression.arguments[1])
            return f"{numpy_name}({left}, {right})"
        raise _Fallback(
            f"call to {expression.function!r} has no batch form",
            expression.span,
        )

    def _index(self, expression: ast.Index) -> str:
        base = expression.base
        index = expression.index
        if not (isinstance(base, ast.Name) and base.identifier in self.vector_names):
            raise _Fallback(
                "indexed read of something other than a program vector",
                expression.span,
            )
        if not isinstance(index, ast.Name):
            raise _Fallback(
                f"vector {base.identifier!r} indexed by a non-parameter "
                f"expression",
                expression.span,
            )
        if index.identifier == self.src_param:
            self.edge_use = self.edge_use or expression
            return f"{base.identifier}[src]"
        if index.identifier == self.dst_param:
            self.reads_at_dst.add(base.identifier)
            return f"{base.identifier}[dst]"
        raise _Fallback(
            f"vector {base.identifier!r} indexed by {index.identifier!r}, "
            f"which is neither the source nor the destination parameter",
            expression.span,
        )


# ----------------------------------------------------------------------
# Kind matchers
# ----------------------------------------------------------------------
def _flat_statements(
    body: list[ast.Stmt],
) -> tuple[list[ast.VarDecl], list[ast.Stmt]]:
    """Split a flat body into leading-interleaved VarDecls and the rest."""
    decls: list[ast.VarDecl] = []
    rest: list[ast.Stmt] = []
    for statement in body:
        if isinstance(statement, ast.VarDecl):
            decls.append(statement)
        else:
            rest.append(statement)
    return decls, rest


def _match_priority_udf(
    udf: UDFFacts, facts: ProgramFacts, schedule: Schedule
) -> VectorKernel:
    """Classify an ``applyUpdatePriority`` UDF, or raise ``_Fallback``."""
    parameters = udf.parameters
    if len(parameters) < 2:
        raise _Fallback("edge UDF needs (src, dst[, weight]) parameters")
    dst_param = parameters[1]

    updates = udf.updates
    if len(updates) != 1:
        raise _Fallback(
            f"contains {len(updates)} priority updates; exactly one is "
            f"required for a batch kernel"
        )
    update = updates[0]
    if not (
        isinstance(update.vertex_arg, ast.Name)
        and update.vertex_arg.identifier == dst_param
    ):
        raise _Fallback(
            "the priority update does not target the destination parameter",
            Span.from_node(update.call),
        )
    queue = facts.queues.get(update.queue_name)
    if queue is None or queue.order is None or queue.priority_vector is None:
        raise _Fallback(
            f"could not resolve the constructor of queue "
            f"{update.queue_name!r} (direction and priority vector unknown)"
        )
    direction, priority_vector = queue.order, queue.priority_vector

    for access in udf.accesses:
        if access.target_kind is TargetKind.SCALAR and not access.is_local:
            raise _Fallback(
                f"assigns to the scalar global {access.base!r}, a side effect "
                f"outside every recognized batch pattern",
                access.node.span,
            )

    def classifier(new_val_name: str | None = None) -> _ExprClassifier:
        return _ExprClassifier(udf, facts, new_val_name)

    if update.op == "sum":
        if schedule.uses_histogram:
            kind = "sum_hist"
        else:
            kind = "sum_const"
        info = udf.constant_sum
        if info is None:
            raise _Fallback(
                "updatePrioritySum is not a single constant-difference "
                "update clamped at the current priority",
                Span.from_node(update.call),
            )
        if info.constant == 0:
            raise _Fallback("constant-sum difference is zero (no-op UDF)")
        decls, rest = _flat_statements(udf.decl.body)
        if len(rest) != 1 or not isinstance(rest[0], ast.ExprStmt):
            raise _Fallback(
                "constant-sum UDF has statements beyond the priority update"
            )
        return VectorKernel(
            kind=kind, queue_name=update.queue_name, constant=info.constant
        )

    # min/max kinds: direction gating keeps the null-priority sentinel on
    # the side where the plain comparison already matches the scalar path.
    if update.op == "min" and direction != "lower_first":
        raise _Fallback(
            "updatePriorityMin on a higher_first queue: the null-priority "
            "sentinel breaks the plain batch comparison"
        )
    if update.op == "max" and direction != "higher_first":
        raise _Fallback(
            "updatePriorityMax on a lower_first queue: the null-priority "
            "sentinel breaks the plain batch comparison"
        )

    decls, rest = _flat_statements(udf.decl.body)
    if len(rest) == 1 and isinstance(rest[0], ast.ExprStmt):
        if rest[0].expression is not update.call:
            raise _Fallback("unrecognized statement alongside the update")
        # ---- plain write_min / write_max -----------------------------
        cls = classifier()
        value = cls.classify(update.value_arg)
        written = {priority_vector}
        illegal = cls.reads_at_dst & written
        if illegal:
            raise _Fallback(
                f"the new value reads {sorted(illegal)[0]!r} at the "
                f"destination, which the kernel itself writes"
            )
        return VectorKernel(
            kind="write_min" if update.op == "min" else "write_max",
            queue_name=update.queue_name,
            value=value,
        )

    if len(rest) == 1 and isinstance(rest[0], ast.If):
        return _match_guarded(
            rest[0],
            update,
            priority_vector,
            classifier,
            dst_param,
        )
    raise _Fallback("UDF body does not match any recognized batch shape")


def _match_guarded(
    guard_stmt: ast.If,
    update: PriorityUpdate,
    priority_vector: str,
    classifier,
    dst_param: str,
) -> VectorKernel:
    """The A* shape: ``if v < aux[dst] { aux[dst] = v; pq.updateMin(dst, p) }``."""
    if update.op != "min":
        raise _Fallback("guarded batch kernels support min updates only")
    if guard_stmt.else_body:
        raise _Fallback("guarded update with an else branch")
    then_decls, then_rest = _flat_statements(guard_stmt.then_body)
    if then_decls:
        raise _Fallback("guarded update declares locals inside the guard")
    if len(then_rest) != 2:
        raise _Fallback(
            "guard body must be exactly the auxiliary write followed by "
            "the priority update"
        )
    assign, update_stmt = then_rest
    if not (
        isinstance(assign, ast.Assign)
        and isinstance(assign.target, ast.Index)
        and isinstance(assign.target.base, ast.Name)
        and isinstance(assign.target.index, ast.Name)
        and assign.target.index.identifier == dst_param
    ):
        raise _Fallback(
            "guard body does not start with a destination-indexed "
            "vector write"
        )
    if not (
        isinstance(update_stmt, ast.ExprStmt)
        and update_stmt.expression is update.call
    ):
        raise _Fallback("guard body does not end with the priority update")
    aux = assign.target.base.identifier
    if aux == priority_vector:
        raise _Fallback(
            "guarded write targets the priority vector itself; the "
            "two-level batch algorithm needs a distinct auxiliary vector"
        )

    value_cls = classifier()
    value = value_cls.classify(assign.value)
    condition = guard_stmt.condition
    if not (
        isinstance(condition, ast.BinaryOp)
        and condition.operator == "<"
        and isinstance(condition.right, ast.Index)
        and isinstance(condition.right.base, ast.Name)
        and condition.right.base.identifier == aux
        and isinstance(condition.right.index, ast.Name)
        and condition.right.index.identifier == dst_param
    ):
        raise _Fallback(
            "guard is not the monotonic test `value < aux[dst]` against "
            "the written vector"
        )
    guard_value_cls = classifier()
    guard_value = guard_value_cls.classify(condition.left)
    if guard_value != value:
        raise _Fallback(
            "the guarded comparison tests a different value than the one "
            "written"
        )

    assigned_local = (
        condition.left.identifier
        if isinstance(condition.left, ast.Name)
        else None
    )
    priority_cls = classifier(new_val_name=assigned_local)
    priority = priority_cls.classify(update.value_arg)
    if priority_cls.edge_use is not None:
        raise _Fallback(
            "the guarded priority reads the source or the edge weight; the "
            "batch kernel updates the queue once per improved vertex, from "
            "the written value and destination-indexed reads only",
            Span.from_node(priority_cls.edge_use),
        )

    written = {aux, priority_vector}
    for cls in (value_cls, priority_cls):
        illegal = cls.reads_at_dst & written
        if illegal:
            raise _Fallback(
                f"a batch expression reads {sorted(illegal)[0]!r} at the "
                f"destination, which the kernel writes"
            )
    return VectorKernel(
        kind="guarded_write_min",
        queue_name=update.queue_name,
        value=value,
        priority=priority,
        aux=aux,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def analyze_vectorization(
    facts: ProgramFacts, schedule: Schedule, races: dict[str, RaceReport]
) -> dict[str, VectorizeReport]:
    """Classify every apply UDF under ``schedule``, given each one's race
    report under it; never raises — a fallback carries its located
    reason."""
    reports: dict[str, VectorizeReport] = {}
    for site in facts.apply_sites:
        udf = facts.udfs.get(site.udf_name)
        if udf is None or udf.name in reports:
            continue  # an unresolved symbol is V001, reported by the validator
        reports[udf.name] = _classify(
            udf, facts, schedule, site.priority, races[udf.name]
        )
    return reports


def _classify(
    udf: UDFFacts, facts, schedule, is_priority_apply, races: RaceReport
) -> VectorizeReport:
    # Race gate: only race-free (ordered-safe / seeded-CAS-equivalent)
    # UDFs vectorize.  Unordered racy programs are refused at runtime.
    racy = races.racy_sites
    if racy:
        first = racy[0]
        return VectorizeReport(
            udf_name=udf.name,
            kernel=None,
            reason=(
                f"race analysis classified the write to {first.target} as "
                f"unordered_racy (R001); only race-free UDFs vectorize"
            ),
            span=first.span,
        )
    try:
        if not is_priority_apply:
            raise _Fallback(
                "whole-edgeset apply runs in scalar order; only "
                "priority-queue updates have a batch kernel"
            )
        kernel = _match_priority_udf(udf, facts, schedule)
    except _Fallback as fallback:
        return VectorizeReport(
            udf_name=udf.name,
            kernel=None,
            reason=fallback.reason,
            span=fallback.span if fallback.span is not None else udf.span,
        )
    return VectorizeReport(
        udf_name=udf.name,
        kernel=kernel,
        reason=f"recognized batch shape {kernel.kind!r}",
        span=udf.span,
    )
