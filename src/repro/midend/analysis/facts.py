"""The midend's one analysis pass: every fact about a program, derived once.

:func:`build_facts` walks each function once and freezes into one
:class:`ProgramFacts` what the compiler's questions (Sections 4–5) need:
the ordered loop (Section 5.2) and every labelled apply site; each apply
UDF's priority updates and constant-sum shape (Section 5.1, Figure 10);
every access to shared state in statement order, with its index
provenance and monotonic guard; single-assignment locals and def-use
chains; each queue's processing order and priority vector.

Only one bit depends on the schedule: which edge endpoint the parallel
loop owns.  It is applied when a fact is read (:meth:`Access.owned`), so
one set of facts serves every direction and every per-label schedule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ...errors import CompileError
from ...lang import ast_nodes as ast
from ...lang.span import Span
from ...lang.types import EdgeSetType, PriorityQueueType, VectorType

__all__ = ["ProgramFacts", "UDFFacts", "build_facts"]

_UPDATE_METHODS = {
    "updatePriorityMin": "min",
    "updatePriorityMax": "max",
    "updatePrioritySum": "sum",
}
_APPLY_METHODS = ("applyUpdatePriority", "apply")
_ORDERS = ("lower_first", "higher_first")
_CURRENT_PRIORITY = ("getCurrentPriority", "get_current_priority")
_COMPARISONS = ("<", ">", "<=", ">=", "!=", "==")


# ----------------------------------------------------------------------
# The facts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PriorityUpdate:
    """One priority-update operator occurrence inside a UDF."""

    op: str  # "min", "max", or "sum"
    call: ast.MethodCall
    queue_name: str
    vertex_arg: ast.Expr
    value_arg: ast.Expr  # new value (min/max) or difference (sum)
    threshold_arg: ast.Expr | None  # sum only
    old_arg: ast.Expr | None = None  # 3-arg min/max form: the read old value

    @property
    def has_old_value(self) -> bool:
        """Whether the UDF passed the current priority (the 3-arg form),
        which seeds the C++ backend's CAS loop instead of an atomic load."""
        return self.old_arg is not None


@dataclass(frozen=True)
class ConstantSumInfo:
    """Everything the histogram transform (Figure 10) needs."""

    update: PriorityUpdate
    constant: int
    threshold_is_current_priority: bool
    vertex_param: str


class AccessKind(enum.Enum):
    """What an access does to its target."""

    READ = "read"
    WRITE = "write"
    PRIORITY_UPDATE = "priority_update"


class TargetKind(enum.Enum):
    """What kind of shared state an access touches."""

    VECTOR = "vector"  # a per-vertex property vector
    SCALAR = "scalar"  # a shared scalar global
    QUEUE = "queue"  # the priority queue (via updatePriority*)


class IndexProvenance(enum.Enum):
    """Where an access's index comes from.  ``LOCAL`` is a UDF-local
    variable, which may alias any vertex id."""

    SRC = "src"
    DST = "dst"
    LOCAL = "local"
    CONSTANT = "constant"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Access:
    """One access to (potentially) shared state inside a UDF."""

    node: ast.Node
    kind: AccessKind
    target_kind: TargetKind
    base: str  # vector/scalar name, or the queue name for updates
    rendered: str  # e.g. "dist[dst]", "done", "priority(pq)"
    span: Span
    index_name: str | None = None
    provenance: IndexProvenance = IndexProvenance.UNKNOWN
    #: must-write (unconditional) vs may-write (guarded or inside a loop)
    must: bool = True
    #: the guard comparison reading the write's own target (the
    #: A*/Bellman-Ford test-and-set idiom), if any
    guard: ast.BinaryOp | None = None
    #: scalar write of a compile-time literal (idempotent)
    constant_store: bool = False
    #: True for writes to UDF-local variables (never shared)
    is_local: bool = False
    #: the priority-update descriptor, for PRIORITY_UPDATE accesses
    update: PriorityUpdate | None = None

    @property
    def guarded_monotonic(self) -> bool:
        return self.guard is not None

    def owned(self, direction: str) -> bool:
        """Whether the index is the endpoint the parallel loop owns under
        ``direction`` (thread-owned, hence race-free)."""
        if direction == "DensePull":
            return self.provenance is IndexProvenance.DST
        return self.provenance is IndexProvenance.SRC


@dataclass(frozen=True)
class QueueInfo:
    """Construction-time metadata of one priority queue."""

    name: str
    #: "lower_first" or "higher_first" (the processing order)
    order: str | None = None
    #: the property vector the queue tracks priorities in
    priority_vector: str | None = None
    allow_coarsening: bool | None = None
    #: the constructor's start vertex; ``None`` for the all-vertices form
    start_vertex: ast.Expr | None = None
    #: why the constructor is malformed (the planner refuses it)
    problem: str | None = None


@dataclass(frozen=True)
class OrderedLoopInfo:
    """One recognized ordered-processing loop (Section 5.2)::

        while (pq.finished() == false) [and (done == false)]
            var bucket : vertexset{V} = pq.dequeueReadySet();
            [ if <stop-condition>  done = true;  else ]
            #label# edges.from(bucket).applyUpdatePriority(udf);
            [ end ]
            delete bucket;
        end

    The dequeued bucket may be used only by the apply statement, so the
    eager schedules may replace the whole loop with the ordered processing
    operator.  An extern bucket processor (``processBucket(bucket)``) in
    place of the apply is recognized but not eager-eligible.
    """

    while_stmt: ast.While
    bucket_name: str
    queue_name: str
    label: str | None
    udf_name: str | None  # None for the extern-processor variant
    edgeset_name: str | None
    stop_condition: ast.Expr | None
    done_variable: str | None
    extern_processor: str | None

    @property
    def eager_eligible(self) -> bool:
        """Whether the eager transform may replace this loop."""
        return self.udf_name is not None


@dataclass(frozen=True)
class ApplySite:
    """One ``edges[.from(set)].apply*(udf)`` statement."""

    udf_name: str
    label: str | None
    #: ``applyUpdatePriority`` (a queue drives it) vs whole-edgeset ``apply``
    priority: bool
    call: ast.MethodCall | None = None
    #: the edgeset the chain starts from; ``None`` for a malformed chain
    edgeset: str | None = None
    #: the ``from(...)`` argument; ``None`` for a whole-edgeset ``apply``
    frontier: ast.Expr | None = None


@dataclass(frozen=True)
class UDFFacts:
    """The direction-free facts of one apply UDF."""

    decl: ast.FuncDecl
    span: Span
    parameters: tuple[str, ...]
    src_param: str
    dst_param: str
    #: every priority update on a known queue, in pre-order
    updates: tuple[PriorityUpdate, ...]
    #: write-side accesses in statement order (``then`` before ``else``)
    accesses: tuple[Access, ...]
    #: vector reads (``Index`` nodes that are not write targets), pre-order
    reads: tuple[Access, ...]
    #: per-local definition and use lines
    defs: dict[str, list[int]]
    uses: dict[str, list[int]]
    #: locals defined exactly once, by a declaration with an initializer
    single_assignments: dict[str, ast.Expr]
    constant_sum: ConstantSumInfo | None

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def weight_param(self) -> str | None:
        return self.parameters[2] if len(self.parameters) > 2 else None

    def owned_param(self, direction: str) -> str:
        return self.dst_param if direction == "DensePull" else self.src_param

    @property
    def write_accesses(self) -> list[Access]:
        """Shared-state writes (locals excluded), in statement order."""
        return [a for a in self.accesses if not a.is_local]

    @property
    def priority_updates(self) -> list[Access]:
        return [
            a for a in self.accesses if a.kind is AccessKind.PRIORITY_UPDATE
        ]

    def read_set(self) -> set[str]:
        return {a.base for a in self.reads}

    def write_set(self) -> set[str]:
        """Vector names written anywhere (priority targets excluded)."""
        return {
            a.base
            for a in self.write_accesses
            if a.target_kind is TargetKind.VECTOR
        }

    def scalar_write_set(self) -> set[str]:
        return {
            a.base
            for a in self.write_accesses
            if a.target_kind is TargetKind.SCALAR
        }


@dataclass(frozen=True)
class ProgramFacts:
    """Everything the midend knows about one program, schedule-free."""

    queue_names: frozenset[str]
    queues: dict[str, QueueInfo]
    #: program constants that are property vectors / plain scalars
    vectors: frozenset[str]
    scalars: frozenset[str]
    loop: OrderedLoopInfo | None
    apply_sites: tuple[ApplySite, ...]
    #: facts of every resolvable apply-site UDF, in apply-site order
    udfs: dict[str, UDFFacts]
    #: statement label -> span of its first occurrence
    labels: dict[str, Span]
    #: argv slots whose ``atoi`` value ``main`` uses as a vertex (a vector
    #: index or the queue's start vertex), ascending
    vertex_arguments: tuple[int, ...] = ()
    #: whether any function has a ``print`` statement
    prints: bool = False
    #: how many integer arguments (``argv[2:]``) ``main`` reads
    num_args_required: int = 0
    #: the first edgeset constant
    edgeset: str | None = None
    #: the vector constants in declaration order (the native output order)
    outputs: tuple[str, ...] = ()
    #: function name -> the program constants it assigns, sorted
    rebinds: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def queue_vector(self, queue_name: str) -> str | None:
        info = self.queues.get(queue_name)
        return info.priority_vector if info is not None else None

    @property
    def loop_udf(self) -> UDFFacts | None:
        """Facts of the ordered loop's UDF (``None`` for extern loops)."""
        if self.loop is None:
            return None
        return self.udfs.get(self.loop.udf_name or "")


def constant_value(expression: ast.Expr) -> int | None:
    """Evaluate a literal (possibly negated) integer expression."""
    if isinstance(expression, ast.IntLiteral):
        return expression.value
    if (
        isinstance(expression, ast.UnaryOp)
        and expression.operator == "-"
        and isinstance(expression.operand, ast.IntLiteral)
    ):
        return -expression.operand.value
    return None


def same_indexed_read(expr: ast.Expr, base_name: str, index: ast.Expr) -> bool:
    """Whether ``expr`` reads ``base_name[index]`` (simple indices only)."""
    if not (
        isinstance(expr, ast.Index)
        and isinstance(expr.base, ast.Name)
        and expr.base.identifier == base_name
    ):
        return False
    left, right = expr.index, index
    if isinstance(left, ast.Name) and isinstance(right, ast.Name):
        return left.identifier == right.identifier
    if isinstance(left, ast.IntLiteral) and isinstance(right, ast.IntLiteral):
        return left.value == right.value
    return False


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------
def build_facts(program: ast.Program) -> ProgramFacts:
    """Walk every function of ``program`` once and freeze the facts."""
    file = program.source_file
    queue_names = frozenset(
        const.name
        for const in program.constants
        if isinstance(const.declared_type, PriorityQueueType)
    )
    outputs = tuple(
        const.name
        for const in program.constants
        if isinstance(const.declared_type, VectorType)
    )
    vectors = frozenset(outputs)
    scalars = frozenset(
        const.name
        for const in program.constants
        if const.name not in vectors
        and not isinstance(const.declared_type, (EdgeSetType, PriorityQueueType))
    )

    walks: dict[str, _FunctionWalk] = {}
    labels: dict[str, Span] = {}
    queue_fields: dict[str, dict] = {name: {"name": name} for name in queue_names}
    apply_sites: list[ApplySite] = []
    rebinds: dict[str, tuple[str, ...]] = {}
    constants = {const.name for const in program.constants}
    prints = False
    for func in program.functions:
        walk = _FunctionWalk(func, queue_names, file)
        walks.setdefault(func.name, walk)
        prints = prints or walk.prints
        for label, node in walk.labels:
            labels.setdefault(label, Span.from_node(node, file=file))
        for assign in walk.queue_constructors:
            queue_fields[assign.target.identifier] = {
                "name": assign.target.identifier,
                **_queue_constructor(assign.value),
            }
        apply_sites.extend(walk.apply_sites)
        assigned = {
            access.base
            for access in walk.accesses
            if access.target_kind is TargetKind.SCALAR and not access.is_local
        }
        result = {func.result[0]} if func.result is not None else set()
        rebinds.setdefault(func.name, tuple(sorted(assigned & constants - result)))

    udfs: dict[str, UDFFacts] = {}
    for site in apply_sites:
        walk = walks.get(site.udf_name)
        if walk is not None and site.udf_name not in udfs:
            udfs[site.udf_name] = walk.udf_facts()

    main = walks.get("main")
    return ProgramFacts(
        queue_names=queue_names,
        queues={name: QueueInfo(**entry) for name, entry in queue_fields.items()},
        vectors=vectors,
        scalars=scalars,
        loop=_recognize_loop(main, queue_names) if main is not None else None,
        apply_sites=tuple(apply_sites),
        udfs=udfs,
        labels=labels,
        vertex_arguments=_vertex_arguments(main, vectors) if main is not None else (),
        prints=prints,
        num_args_required=_num_args_required(main) if main is not None else 0,
        edgeset=next(
            (
                const.name
                for const in program.constants
                if isinstance(const.declared_type, EdgeSetType)
            ),
            None,
        ),
        outputs=outputs,
        rebinds=rebinds,
    )


def _queue_constructor(new: ast.New) -> dict:
    """The :class:`QueueInfo` fields of ``new priority_queue(allow_coarsening,
    direction, priority_vector[, start_vertex])``, or why it is malformed."""
    arguments = new.arguments
    if not 3 <= len(arguments) <= 4:
        return {
            "problem": "the priority queue constructor takes (allow_coarsening, "
            "direction, priority_vector[, start_vertex])"
        }
    allow, order, vector = arguments[:3]
    if not isinstance(allow, ast.BoolLiteral):
        return {
            "problem": "the priority queue's allow_coarsening must be the "
            "literal true or false"
        }
    if not (isinstance(order, ast.StringLiteral) and order.value in _ORDERS):
        return {
            "problem": "the priority queue direction must be the literal "
            "'lower_first' or 'higher_first'"
        }
    if not isinstance(vector, ast.Name):
        return {
            "problem": "the priority queue's priority_vector must be a named vector"
        }
    start = arguments[3] if len(arguments) == 4 else None
    if start is not None and (constant_value(start) or 0) < 0:
        start = None  # a negative start vertex: every vertex
    return {
        "allow_coarsening": allow.value,
        "order": order.value,
        "priority_vector": vector.identifier,
        "start_vertex": start,
    }


def _num_args_required(main: "_FunctionWalk") -> int:
    """How many integer arguments ``main`` reads: its highest literal
    ``argv[k]`` slot, less the graph path ``argv[1]``."""
    return max(
        [1]
        + [
            access.node.index.value
            for access in main.reads
            if access.base == "argv" and isinstance(access.node.index, ast.IntLiteral)
        ]
    ) - 1


def _vertex_arguments(main: "_FunctionWalk", vectors: frozenset[str]) -> tuple[int, ...]:
    """The argv slots ``k`` whose ``atoi(argv[k])`` indexes a vector or
    starts the queue in ``main``, directly or through a local that the
    value initialises and nothing reassigns."""
    initializers = {
        decl.name: decl.initializer
        for decl in main.declarations
        if decl.initializer is not None and main.definition_counts[decl.name] == 1
    }
    indexes = [access.node.index for access in main.reads if access.base in vectors]
    indexes += [
        access.node.target.index
        for access in main.accesses
        if access.target_kind is TargetKind.VECTOR and access.base in vectors
    ]
    indexes += [
        assign.value.arguments[3]
        for assign in main.queue_constructors
        if len(assign.value.arguments) > 3
    ]
    slots = set()
    for index in indexes:
        if isinstance(index, ast.Name):
            index = initializers.get(index.identifier, index)
        if (
            isinstance(index, ast.Call)
            and index.function == "atoi"
            and len(index.arguments) == 1
            and isinstance(argument := index.arguments[0], ast.Index)
            and isinstance(argument.base, ast.Name)
            and argument.base.identifier == "argv"
            and isinstance(argument.index, ast.IntLiteral)
        ):
            slots.add(argument.index.value)
    return tuple(sorted(slots))


class _FunctionWalk:
    """One pre-order walk of one function, collecting every fact in it.

    Statements are visited in source order (``then`` before ``else``) with
    the guards and loop depth they sit under; expressions in pre-order.
    """

    def __init__(self, func: ast.FuncDecl, queue_names: frozenset[str], file):
        self.func = func
        self.queue_names = queue_names
        self.file = file
        self.parameters = tuple(name for name, _ in func.parameters)
        self.src = self.parameters[0] if self.parameters else "src"
        self.dst = self.parameters[1] if len(self.parameters) > 1 else "dst"
        self.local_names = frozenset(self.parameters) | _declared_names(func.body)
        # program-level facts
        self.labels: list[tuple[str, ast.Stmt]] = []
        self.apply_sites: list[ApplySite] = []
        self.queue_constructors: list[ast.Assign] = []
        #: identifier -> ids of the statements whose own expressions name it
        self.name_owners: dict[str, list[int]] = {}
        # UDF-level facts
        self.updates: list[PriorityUpdate] = []
        self.accesses: list[Access] = []
        self.reads: list[Access] = []
        self.defs: dict[str, list[int]] = {}
        self.uses: dict[str, list[int]] = {}
        self.declarations: list[ast.VarDecl] = []
        self.definition_counts: dict[str, int] = {}
        self.prints = False
        self._statement = 0
        self._body(func.body, (), 0)

    # -- statements ---------------------------------------------------------
    def _body(self, body: list[ast.Stmt], guards: tuple, loops: int) -> None:
        for statement in body:
            if statement.label:
                self.labels.append((statement.label, statement))
            self._statement = id(statement)
            if isinstance(statement, ast.If):
                self._expr(statement.condition)
                self._body(statement.then_body, guards + (statement.condition,), loops)
                self._body(statement.else_body, guards, loops)
            elif isinstance(statement, ast.While):
                self._expr(statement.condition)
                self._body(statement.body, guards, loops + 1)
            elif isinstance(statement, ast.For):
                self._expr(statement.start)
                self._expr(statement.stop)
                self._body(statement.body, guards, loops + 1)
            elif isinstance(statement, ast.VarDecl):
                self.declarations.append(statement)
                self._define(statement.name, statement.line)
                if statement.initializer is not None:
                    self._expr(statement.initializer)
            elif isinstance(statement, ast.Assign):
                self._assign(statement, guards, loops)
            elif isinstance(statement, ast.ExprStmt):
                self._expr_statement(statement, guards, loops)
            elif isinstance(statement, ast.Print):
                self.prints = True
                self._expr(statement.expression)
            elif isinstance(statement, ast.Return) and statement.value is not None:
                self._expr(statement.value)

    def _define(self, name: str, line: int) -> None:
        self.defs.setdefault(name, []).append(line)
        self.definition_counts[name] = self.definition_counts.get(name, 0) + 1

    def _expr_statement(self, statement: ast.ExprStmt, guards, loops) -> None:
        count = len(self.updates)
        expression = statement.expression
        self._expr(expression)
        if len(self.updates) > count and self.updates[count].call is expression:
            update = self.updates[count]
            self.accesses.append(
                self._access(
                    expression,
                    AccessKind.PRIORITY_UPDATE,
                    TargetKind.QUEUE,
                    update.queue_name,
                    update.vertex_arg,
                    rendered=f"priority({update.queue_name})",
                    must=not guards and loops == 0,
                    update=update,
                )
            )
        if (
            isinstance(expression, ast.MethodCall)
            and expression.method in _APPLY_METHODS
            and expression.arguments
            and isinstance(expression.arguments[0], ast.Name)
        ):
            # ``edges.from(frontier).apply*(udf)``, or ``edges.apply(udf)``.
            chain = expression.receiver
            edgeset = frontier = None
            if isinstance(chain, ast.Name):
                if expression.method == "apply":
                    edgeset = chain.identifier
            elif (
                isinstance(chain, ast.MethodCall)
                and chain.method == "from"
                and isinstance(chain.receiver, ast.Name)
                and len(chain.arguments) == 1
            ):
                edgeset, frontier = chain.receiver.identifier, chain.arguments[0]
            self.apply_sites.append(
                ApplySite(
                    udf_name=expression.arguments[0].identifier,
                    label=statement.label,
                    priority=expression.method == "applyUpdatePriority",
                    call=expression,
                    edgeset=edgeset,
                    frontier=frontier,
                )
            )

    def _assign(self, assign: ast.Assign, guards, loops) -> None:
        target = assign.target
        must = not guards and loops == 0
        if isinstance(target, ast.Name):
            name = target.identifier
            if name in self.local_names:
                self._define(name, assign.line)
            self.accesses.append(
                self._access(
                    assign,
                    AccessKind.WRITE,
                    TargetKind.SCALAR,
                    name,
                    None,
                    rendered=name,
                    must=must,
                    constant_store=isinstance(
                        assign.value, (ast.IntLiteral, ast.BoolLiteral)
                    ),
                    is_local=name in self.local_names,
                )
            )
            if (
                name in self.queue_names
                and isinstance(assign.value, ast.New)
                and isinstance(assign.value.type, PriorityQueueType)
            ):
                self.queue_constructors.append(assign)
            self._owner(name)
        elif isinstance(target, ast.Index):
            base_name = (
                target.base.identifier
                if isinstance(target.base, ast.Name)
                else "<expr>"
            )
            index = target.index
            self.accesses.append(
                self._access(
                    assign,
                    AccessKind.WRITE,
                    TargetKind.VECTOR,
                    base_name,
                    index,
                    must=must,
                    guard=_monotonic_guard(guards, base_name, index),
                )
            )
            self._expr(target.base)
            self._expr(index)
        else:
            self._expr(target)
        self._expr(assign.value)

    # -- expressions --------------------------------------------------------
    def _expr(self, expression: ast.Expr) -> None:
        if isinstance(expression, ast.Name):
            self._owner(expression.identifier)
            if expression.identifier in self.local_names:
                self.uses.setdefault(expression.identifier, []).append(
                    expression.line
                )
        elif isinstance(expression, ast.Index):
            base = expression.base
            if isinstance(base, ast.Name):
                self.reads.append(
                    self._access(
                        expression,
                        AccessKind.READ,
                        TargetKind.VECTOR,
                        base.identifier,
                        expression.index,
                    )
                )
            self._expr(base)
            self._expr(expression.index)
        elif isinstance(expression, ast.MethodCall):
            if (
                expression.method in _UPDATE_METHODS
                and isinstance(expression.receiver, ast.Name)
                and expression.receiver.identifier in self.queue_names
            ):
                self.updates.append(_priority_update(expression))
            self._expr(expression.receiver)
            for argument in expression.arguments:
                self._expr(argument)
        elif isinstance(expression, ast.BinaryOp):
            self._expr(expression.left)
            self._expr(expression.right)
        elif isinstance(expression, ast.UnaryOp):
            self._expr(expression.operand)
        elif isinstance(expression, (ast.Call, ast.New)):
            for argument in expression.arguments:
                self._expr(argument)

    def _access(self, node, kind, target_kind, base, index, rendered=None, **rest):
        """An access to ``base`` through ``index`` (``None`` for a scalar)."""
        index_name = index.identifier if isinstance(index, ast.Name) else None
        return Access(
            node=node,
            kind=kind,
            target_kind=target_kind,
            base=base,
            rendered=rendered or f"{base}[{index_name or '<expr>'}]",
            span=Span.from_node(node, file=self.file),
            index_name=index_name,
            provenance=self._provenance(index),
            **rest,
        )

    def _owner(self, identifier: str) -> None:
        self.name_owners.setdefault(identifier, []).append(self._statement)

    def _provenance(self, index: ast.Expr) -> IndexProvenance:
        if isinstance(index, ast.Name):
            name = index.identifier
            if name == self.src:
                return IndexProvenance.SRC
            if name == self.dst:
                return IndexProvenance.DST
            if name in self.local_names:
                return IndexProvenance.LOCAL
            return IndexProvenance.UNKNOWN
        if isinstance(index, ast.IntLiteral):
            return IndexProvenance.CONSTANT
        return IndexProvenance.UNKNOWN

    # -- freezing -----------------------------------------------------------
    def udf_facts(self) -> UDFFacts:
        defs = {name: list(lines) for name, lines in self.defs.items()}
        for name in self.parameters:
            defs.setdefault(name, []).append(self.func.line)
        single = {
            decl.name: decl.initializer
            for decl in self.declarations
            if decl.initializer is not None
            and self.definition_counts.get(decl.name) == 1
        }
        return UDFFacts(
            decl=self.func,
            span=Span.from_node(self.func, file=self.file),
            parameters=self.parameters,
            src_param=self.src,
            dst_param=self.dst,
            updates=tuple(self.updates),
            accesses=tuple(self.accesses),
            reads=tuple(self.reads),
            defs=defs,
            uses=self.uses,
            single_assignments=single,
            constant_sum=self._constant_sum(),
        )

    def _constant_sum(self) -> ConstantSumInfo | None:
        """The Figure 10 pattern: exactly one update, an
        ``updatePrioritySum`` with a constant difference, its threshold the
        current bucket priority, its target a plain parameter."""
        if len(self.updates) != 1:
            return None
        update = self.updates[0]
        constant = constant_value(update.value_arg)
        if update.op != "sum" or constant is None or update.threshold_arg is None:
            return None
        threshold = update.threshold_arg
        if not _is_current_priority(threshold, update.queue_name) and not (
            isinstance(threshold, ast.Name)
            and any(
                decl.name == threshold.identifier
                and decl.initializer is not None
                and _is_current_priority(decl.initializer, update.queue_name)
                for decl in self.declarations
            )
        ):
            return None
        vertex = update.vertex_arg
        if not (isinstance(vertex, ast.Name) and vertex.identifier in self.parameters):
            return None
        return ConstantSumInfo(
            update=update,
            constant=constant,
            threshold_is_current_priority=True,
            vertex_param=vertex.identifier,
        )


def _declared_names(body: list[ast.Stmt]) -> frozenset[str]:
    names: set[str] = set()
    for statement in body:
        if isinstance(statement, ast.VarDecl):
            names.add(statement.name)
        elif isinstance(statement, ast.If):
            names |= _declared_names(statement.then_body)
            names |= _declared_names(statement.else_body)
        elif isinstance(statement, (ast.While, ast.For)):
            names |= _declared_names(statement.body)
    return frozenset(names)


def _priority_update(call: ast.MethodCall) -> PriorityUpdate:
    op = _UPDATE_METHODS[call.method]
    arguments = call.arguments
    old_arg = threshold_arg = None
    if len(arguments) == 2:
        vertex_arg, value_arg = arguments
    elif len(arguments) != 3:
        raise CompileError(f"{call.method} takes 2 or 3 arguments", span=call.span)
    elif op == "sum":
        vertex_arg, value_arg, threshold_arg = arguments
    else:
        # Both forms appear in the paper: (v, new) and (v, old, new).
        vertex_arg, old_arg, value_arg = arguments
    return PriorityUpdate(
        op=op,
        call=call,
        queue_name=call.receiver.identifier,
        vertex_arg=vertex_arg,
        value_arg=value_arg,
        threshold_arg=threshold_arg,
        old_arg=old_arg,
    )


def _is_current_priority(expression: ast.Expr, queue_name: str) -> bool:
    return (
        isinstance(expression, ast.MethodCall)
        and expression.method in _CURRENT_PRIORITY
        and isinstance(expression.receiver, ast.Name)
        and expression.receiver.identifier == queue_name
    )


def _monotonic_guard(guards, base_name: str, index: ast.Expr) -> ast.BinaryOp | None:
    """The guard comparison reading the write's own target, if any::

        if new_dist < dist[dst]
            dist[dst] = new_dist;

    The store may lose a concurrent smaller value, but monotone relaxation
    re-delivers it, so the race is benign.
    """
    for guard in guards:
        for node in ast.walk(guard):
            if (
                isinstance(node, ast.BinaryOp)
                and node.operator in _COMPARISONS
                and (
                    same_indexed_read(node.left, base_name, index)
                    or same_indexed_read(node.right, base_name, index)
                )
            ):
                return node
    return None


# ----------------------------------------------------------------------
# Ordered-loop recognition (Section 5.2)
# ----------------------------------------------------------------------
def _recognize_loop(main: _FunctionWalk, queue_names) -> OrderedLoopInfo | None:
    """The first ordered-processing loop in ``main``, or ``None``."""
    for statement in _all_statements(main.func.body):
        if isinstance(statement, ast.While):
            info = _match_loop(statement, main, queue_names)
            if info is not None:
                return info
    return None


def _all_statements(body: list[ast.Stmt]):
    for statement in body:
        yield statement
        if isinstance(statement, (ast.While, ast.For)):
            yield from _all_statements(statement.body)
        elif isinstance(statement, ast.If):
            yield from _all_statements(statement.then_body)
            yield from _all_statements(statement.else_body)


def _match_loop(
    loop: ast.While, main: _FunctionWalk, queue_names
) -> OrderedLoopInfo | None:
    condition = _match_condition(loop.condition, queue_names)
    if condition is None:
        return None
    queue_name, done_variable = condition

    body = list(loop.body)
    if not body or not isinstance(body[0], ast.VarDecl):
        return None
    bucket_name = body[0].name
    initializer = body[0].initializer
    if not (
        isinstance(initializer, ast.MethodCall)
        and initializer.method == "dequeueReadySet"
        and isinstance(initializer.receiver, ast.Name)
        and initializer.receiver.identifier == queue_name
    ):
        return None

    # Optional trailing `delete bucket;`
    if isinstance(body[-1], ast.Delete) and body[-1].name == bucket_name:
        middle = body[1:-1]
    else:
        middle = body[1:]
    if len(middle) != 1:
        return None
    core = middle[0]

    stop_condition: ast.Expr | None = None
    apply_stmt = core
    if isinstance(core, ast.If) and done_variable is not None:
        # Early-exit form: then-branch sets the done flag, else-branch applies.
        then_body = core.then_body
        if not (
            len(then_body) == 1
            and isinstance(then_body[0], ast.Assign)
            and isinstance(then_body[0].target, ast.Name)
            and then_body[0].target.identifier == done_variable
            and isinstance(then_body[0].value, ast.BoolLiteral)
            and then_body[0].value.value is True
        ):
            return None
        if len(core.else_body) != 1:
            return None
        stop_condition = core.condition
        apply_stmt = core.else_body[0]

    if not isinstance(apply_stmt, ast.ExprStmt):
        return None
    expression = apply_stmt.expression

    udf_name = edgeset_name = extern_processor = None
    if isinstance(expression, ast.MethodCall) and expression.method in _APPLY_METHODS:
        chain = _match_apply_chain(expression, bucket_name)
        if chain is None:
            return None
        edgeset_name, udf_name = chain
    elif isinstance(expression, ast.Call) and len(expression.arguments) == 1:
        argument = expression.arguments[0]
        if not (isinstance(argument, ast.Name) and argument.identifier == bucket_name):
            return None
        extern_processor = expression.function
    else:
        return None

    # The correctness condition: the bucket appears only in its declaration,
    # the apply statement (or the early-exit If owning it) and the delete.
    allowed = {id(apply_stmt)} | {
        id(statement)
        for statement in loop.body
        if isinstance(statement, (ast.VarDecl, ast.Delete, ast.If))
    }
    if any(owner not in allowed for owner in main.name_owners.get(bucket_name, ())):
        return None

    return OrderedLoopInfo(
        while_stmt=loop,
        bucket_name=bucket_name,
        queue_name=queue_name,
        label=apply_stmt.label,
        udf_name=udf_name,
        edgeset_name=edgeset_name,
        stop_condition=stop_condition,
        done_variable=done_variable,
        extern_processor=extern_processor,
    )


def _match_condition(condition: ast.Expr, queue_names) -> tuple[str, str | None] | None:
    """Match ``pq.finished() == false`` optionally and-ed with
    ``done == false``; returns (queue name, done variable or None)."""
    if isinstance(condition, ast.BinaryOp) and condition.operator == "and":
        for finished, done in (
            (condition.left, condition.right),
            (condition.right, condition.left),
        ):
            queue = _match_finished_check(finished, queue_names)
            if queue is not None:
                done_variable = _match_done_check(done)
                if done_variable is not None:
                    return queue, done_variable
        return None
    queue = _match_finished_check(condition, queue_names)
    return (queue, None) if queue is not None else None


def _negated(expression: ast.Expr) -> ast.Expr | None:
    """``e`` from ``e == false`` or ``not e``."""
    if (
        isinstance(expression, ast.BinaryOp)
        and expression.operator == "=="
        and isinstance(expression.right, ast.BoolLiteral)
        and expression.right.value is False
    ):
        return expression.left
    if isinstance(expression, ast.UnaryOp) and expression.operator == "not":
        return expression.operand
    return None


def _match_finished_check(expression: ast.Expr, queue_names) -> str | None:
    expression = _negated(expression)
    if (
        isinstance(expression, ast.MethodCall)
        and expression.method == "finished"
        and isinstance(expression.receiver, ast.Name)
        and expression.receiver.identifier in queue_names
    ):
        return expression.receiver.identifier
    return None


def _match_done_check(expression: ast.Expr) -> str | None:
    expression = _negated(expression)
    return expression.identifier if isinstance(expression, ast.Name) else None


def _match_apply_chain(
    expression: ast.MethodCall, bucket_name: str
) -> tuple[str, str] | None:
    """Match ``edges.from(bucket).applyUpdatePriority(udf)``."""
    if len(expression.arguments) != 1 or not isinstance(
        expression.arguments[0], ast.Name
    ):
        return None
    receiver = expression.receiver
    if not (
        isinstance(receiver, ast.MethodCall)
        and receiver.method == "from"
        and len(receiver.arguments) == 1
        and isinstance(receiver.arguments[0], ast.Name)
        and receiver.arguments[0].identifier == bucket_name
        and isinstance(receiver.receiver, ast.Name)
    ):
        return None
    return receiver.receiver.identifier, expression.arguments[0].identifier
