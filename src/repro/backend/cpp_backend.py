"""C++ code generator.

Produces a single self-contained translation unit (embedded runtime +
generated program) that compiles with ``g++ -O2 -std=c++17 -fopenmp``.  The
three code shapes of Figure 9 are reproduced:

- **lazy / SparsePush** — the user's while loop survives; the apply lowers
  to an OpenMP loop over the frontier whose body is the UDF with a
  ``tracking_var``, ``atomicWriteMin`` (when the dependence analysis finds
  conflicts), and dedup-flagged buffered bucket updates (Figure 9(a)).
- **lazy / DensePull** — the apply lowers to a loop over destinations
  scanning in-edges against a dense frontier map, with plain (non-atomic)
  writes (Figure 9(b)).
- **eager (± fusion)** — the entire while loop is replaced by the ordered
  processing operator: an OpenMP parallel region with thread-local
  ``local_bins``, the GAPBS-style two-slot shared frontier, and, under
  fusion, the threshold-gated inner while loop of Figure 7 (Figure 9(c)).

``lazy_constant_sum`` additionally emits the Figure 10 transformed function
and a histogram-based apply.

Programs using extern functions (A*, SetCover) are rejected — as in the
paper's artifact those require hand-written C++ extern functions.

Every generated main ends by dumping each global int vector to the file
named by ``$REPRO_OUTPUT`` (default ``repro_output.txt``), one line per
vector — the hook the differential tests use to compare against the Python
backend.
"""

from __future__ import annotations

from ..errors import CompileError, SchedulingError
from ..lang import ast_nodes as ast
from ..lang.types import (
    BOOL,
    FLOAT,
    INT,
    EdgeSetType,
    PriorityQueueType,
    Type,
    VectorType,
    VertexSetType,
)
from ..midend.transforms.lowering import CompilationPlan
from .cpp_runtime import CPP_RUNTIME
from .python_backend import _Emitter

__all__ = ["generate_cpp"]

# Every emitted region is guarded by the runtime's one-thread bit, so a
# one-thread kernel never enters a parallel region (cpp_runtime.py).
PARALLEL_FOR = "#pragma omp parallel for schedule(dynamic, 64) if(!gSerial)"


def generate_cpp(plan: CompilationPlan) -> str:
    """Generate C++ source for ``plan``."""
    return _CppEmitter(plan).emit()


class _CppEmitter:
    def __init__(self, plan: CompilationPlan):
        self.plan = plan
        self.program = plan.program
        self.schedule = plan.schedule
        self.out = _Emitter(indent="  ")
        if self.schedule.is_relaxed:
            raise SchedulingError(
                "the relaxed strategy is lowered by the Python runtime only; "
                "the C++ runtime has strict bucket queues"
            )
        if self.program.externs:
            raise CompileError(
                "the C++ backend does not support extern functions; as in "
                "the paper's artifact, A* and SetCover need hand-written "
                "C++ externs"
            )
        self.edgeset_name = self._find_const(EdgeSetType)
        if not plan.queue_names:
            raise CompileError(
                "the C++ backend supports ordered (priority-queue) programs "
                "only; compile unordered programs with the Python backend"
            )
        self.queue_name = next(iter(sorted(plan.queue_names)))
        self.vector_names = [
            const.name
            for const in self.program.constants
            if isinstance(const.declared_type, VectorType)
        ]
        self._queue_new = self._find_queue_constructor()
        self._pv_name = self._priority_vector_name()
        # Context flags used during statement emission.
        self._in_eager_region = False
        self._emitting_transformed = False

    # ------------------------------------------------------------------
    # Plan inspection helpers
    # ------------------------------------------------------------------
    def _find_const(self, type_class) -> str | None:
        for const in self.program.constants:
            if isinstance(const.declared_type, type_class):
                return const.name
        return None

    def _find_queue_constructor(self) -> ast.New | None:
        main = self.program.function("main")
        if main is None:
            return None
        for node in ast.walk(main):
            if isinstance(node, ast.New) and isinstance(
                node.type, PriorityQueueType
            ):
                return node
        return None

    def _priority_vector_name(self) -> str:
        if self._queue_new is None or len(self._queue_new.arguments) < 3:
            raise CompileError("cannot locate the priority queue constructor")
        pv_arg = self._queue_new.arguments[2]
        if not isinstance(pv_arg, ast.Name):
            raise CompileError(
                "the priority queue's priority_vector must be a named vector"
            )
        direction = self._queue_new.arguments[1]
        if not (
            isinstance(direction, ast.StringLiteral)
            and direction.value
            in ("lower_first", "lower", "higher_first", "higher")
        ):
            raise CompileError(
                "the priority queue direction must be the literal "
                "'lower_first' or 'higher_first'"
            )
        # Direction parameters threaded through the generated code: bucket
        # orders ascend in both directions (order space); higher_first
        # negates the coarsened priority and uses the large negative null.
        self._dir_lower = direction.value in ("lower_first", "lower")
        self._dir_sign_text = "1" if self._dir_lower else "-1"
        self._null_literal = "kIntMax" if self._dir_lower else "kNullHigher"
        if not self._dir_lower and self.schedule.uses_histogram:
            raise CompileError(
                "lazy_constant_sum requires a lower_first queue in the C++ "
                "backend (the histogram transform tracks decrement counts)"
            )
        allow = self._queue_new.arguments[0]
        if (
            isinstance(allow, ast.BoolLiteral)
            and allow.value is False
            and self.schedule.delta != 1
        ):
            raise CompileError(
                "the priority queue disallows coarsening but the schedule "
                f"sets delta={self.schedule.delta}"
            )
        return pv_arg.identifier

    def _start_vertex_expr(self) -> ast.Expr | None:
        """The constructor's start vertex; None for the all-vertices form."""
        if self._queue_new is None or len(self._queue_new.arguments) < 4:
            return None
        start = self._queue_new.arguments[3]
        if isinstance(start, ast.IntLiteral) and start.value < 0:
            return None
        if (
            isinstance(start, ast.UnaryOp)
            and start.operator == "-"
            and isinstance(start.operand, ast.IntLiteral)
        ):
            return None
        return start

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def emit(self) -> str:
        out = self.out
        out.line("// Generated by repro.backend.cpp_backend — do not edit.")
        out.line(f"// schedule: {self.schedule}")
        out._lines.append(CPP_RUNTIME)
        self._emit_globals()
        self._emit_functions()
        self._emit_main()
        return out.text()

    def _emit_globals(self) -> None:
        out = self.out
        for const in self.program.constants:
            declared = const.declared_type
            if isinstance(declared, EdgeSetType):
                out.line(f"WGraph {const.name};")
            elif isinstance(declared, VectorType):
                out.line(f"std::vector<int64_t> {const.name};")
            elif isinstance(declared, PriorityQueueType):
                if self.schedule.is_lazy:
                    out.line(f"LazyPriorityQueue *{const.name} = nullptr;")
                # Under the eager schedules the queue is replaced by the
                # inline local_bins structure; no global is emitted.
            else:
                out.line(
                    f"{self._cpp_type(declared)} {const.name}"
                    f"{self._global_scalar_init(const)};"
                )
        out.line(f"int64_t delta = {self._schedule_number('delta')};")
        out.line()

    def _schedule_number(self, name: str) -> str:
        """How the code reads a schedule number (``delta``,
        ``bucket_fusion_threshold``, ``num_buckets``): a literal here; the
        native emitter names a run parameter instead, so one kernel serves
        every value."""
        return str(getattr(self.schedule, name))

    def _global_scalar_init(self, const: ast.ConstDecl) -> str:
        if const.initializer is None:
            return " = 0"
        return f" = {self._expr(const.initializer)}"

    def _emit_functions(self) -> None:
        # Non-main, non-UDF helper functions are emitted as plain functions;
        # the apply UDF itself is inlined at its call site, so only the
        # histogram's transformed function needs a definition.
        if self.schedule.uses_histogram and self.plan.transformed_udf is not None:
            self._emit_transformed_function(self.plan.transformed_udf)

    def _emit_transformed_function(self, func: ast.FuncDecl) -> None:
        out = self.out
        out.line(
            f"inline int64_t {func.name}(NodeID vertex, int64_t count) {{"
        )
        out.push()
        self._emitting_transformed = True
        for statement in func.body:
            self._stmt(statement)
        self._emitting_transformed = False
        out.line("return kIntMax;")
        out.pop()
        out.line("}")
        out.line()

    # ------------------------------------------------------------------
    # main
    # ------------------------------------------------------------------
    def _emit_main(self) -> None:
        main = self.program.function("main")
        if main is None:
            raise CompileError("program has no main function")
        out = self.out
        out.line("int main(int argc, char *argv[]) {")
        out.push()
        out.line("(void)argc;")
        out.line("detectSerial();")
        self._emit_const_initializers()
        for statement in main.body:
            self._stmt(statement)
        self._emit_output_dump()
        out.line("return 0;")
        out.pop()
        out.line("}")

    def _emit_const_initializers(self) -> None:
        out = self.out
        for const in self.program.constants:
            declared = const.declared_type
            init = const.initializer
            if isinstance(declared, EdgeSetType):
                if init is None:
                    continue
                out.line(f"{const.name} = {self._expr(init)};")
            elif isinstance(declared, VectorType):
                if init is None:
                    continue
                if (
                    isinstance(init, ast.MethodCall)
                    and init.method == "getOutDegrees"
                ):
                    receiver = self._expr(init.receiver)
                    out.line(f"{const.name} = {receiver}.OutDegrees();")
                else:
                    out.line(
                        f"{const.name}.assign({self.edgeset_name}.num_nodes, "
                        f"{self._expr(init)});"
                    )

    def _emit_output_dump(self) -> None:
        out = self.out
        out.line("{")
        out.push()
        out.line('const char *__path = std::getenv("REPRO_OUTPUT");')
        out.line('std::ofstream __out(__path ? __path : "repro_output.txt");')
        for name in self.vector_names:
            out.line(f'dumpVector(__out, "{name}", {name});')
        out.pop()
        out.line("}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _stmt(self, statement: ast.Stmt) -> None:
        out = self.out
        if isinstance(statement, ast.While):
            if (
                self.plan.loop is not None
                and statement is self.plan.loop.while_stmt
            ):
                if self.schedule.is_eager:
                    self._emit_eager_region()
                    return
                if self.schedule.uses_histogram:
                    self._emit_histogram_scratch()
            out.line(f"while ({self._expr(statement.condition)}) {{")
            out.push()
            for child in statement.body:
                self._stmt(child)
            out.pop()
            out.line("}")
        elif isinstance(statement, ast.VarDecl):
            declared = self._cpp_type(statement.declared_type)
            if statement.initializer is None:
                out.line(f"{declared} {statement.name}{{}};")
            else:
                out.line(
                    f"{declared} {statement.name} = "
                    f"{self._expr(statement.initializer)};"
                )
        elif isinstance(statement, ast.Assign):
            if isinstance(statement.value, ast.New):
                self._emit_queue_construction(statement)
                return
            out.line(
                f"{self._expr(statement.target)} = "
                f"{self._expr(statement.value)};"
            )
        elif isinstance(statement, ast.ExprStmt):
            if self._try_emit_apply(statement.expression):
                return
            out.line(f"{self._expr(statement.expression)};")
        elif isinstance(statement, ast.If):
            out.line(f"if ({self._expr(statement.condition)}) {{")
            out.push()
            for child in statement.then_body:
                self._stmt(child)
            out.pop()
            if statement.else_body:
                out.line("} else {")
                out.push()
                for child in statement.else_body:
                    self._stmt(child)
                out.pop()
            out.line("}")
        elif isinstance(statement, ast.For):
            variable = statement.variable
            out.line(
                f"for (int64_t {variable} = {self._expr(statement.start)}; "
                f"{variable} < {self._expr(statement.stop)}; {variable}++) {{"
            )
            out.push()
            for child in statement.body:
                self._stmt(child)
            out.pop()
            out.line("}")
        elif isinstance(statement, ast.Print):
            out.line(
                f"std::cout << {self._expr(statement.expression)} << std::endl;"
            )
        elif isinstance(statement, ast.Delete):
            out.line(f"// delete {statement.name} (scope-managed)")
        elif isinstance(statement, ast.Return):
            if statement.value is None:
                if self._emitting_transformed:
                    out.line("return kIntMax;")
                else:
                    out.line("return;")
            else:
                out.line(f"return {self._expr(statement.value)};")
        else:  # pragma: no cover
            raise CompileError(f"cannot generate {type(statement).__name__}")

    def _emit_queue_construction(self, statement: ast.Assign) -> None:
        """``pq = new priority_queue{...}(...)`` — a LazyPriorityQueue under
        the lazy schedules; elided under eager (the loop replacement carries
        the initialization)."""
        target = self._expr(statement.target)
        if self.schedule.is_eager:
            self.out.line(
                f"// {target}: replaced by the eager ordered-processing "
                f"operator (thread-local buckets)"
            )
            return
        start = self._start_vertex_expr()
        start_text = self._expr(start) if start is not None else "-1"
        self.out.line(
            f"{target} = new LazyPriorityQueue({self._pv_name}.data(), "
            f"{self.edgeset_name}.num_nodes, delta, {start_text}, "
            f"{self._schedule_number('num_buckets')}, {self._dir_sign_text}, "
            f"{self._null_literal});"
        )

    # ------------------------------------------------------------------
    # Lazy apply lowering (Figures 9(a) and 9(b))
    # ------------------------------------------------------------------
    def _try_emit_apply(self, expression: ast.Expr) -> bool:
        if not (
            isinstance(expression, ast.MethodCall)
            and expression.method in ("applyUpdatePriority", "apply")
        ):
            return False
        chain = expression.receiver
        if not (
            isinstance(chain, ast.MethodCall)
            and chain.method == "from"
            and isinstance(chain.receiver, ast.Name)
        ):
            raise CompileError("applyUpdatePriority needs edges.from(bucket)")
        edgeset = chain.receiver.identifier
        bucket = self._expr(chain.arguments[0])
        udf_name = expression.arguments[0].identifier
        udf = self.program.function(udf_name)
        if udf is None:
            raise CompileError(f"unknown UDF {udf_name!r}")
        if self.schedule.uses_histogram:
            self._emit_histogram_apply(edgeset, bucket)
        elif self.schedule.direction == "DensePull":
            self._emit_pull_apply(edgeset, bucket, udf)
        else:
            self._emit_push_apply(edgeset, bucket, udf)
        return True

    def _udf_param_names(self, udf: ast.FuncDecl) -> tuple[str, str, str | None]:
        names = [name for name, _ in udf.parameters]
        if len(names) == 2:
            return names[0], names[1], None
        return names[0], names[1], names[2]

    def _emit_push_apply(self, edgeset: str, bucket: str, udf: ast.FuncDecl) -> None:
        out = self.out
        src, dst, weight = self._udf_param_names(udf)
        out.line("{")
        out.push()
        out.line(PARALLEL_FOR)
        out.line(f"for (size_t __i = 0; __i < {bucket}.size(); __i++) {{")
        out.push()
        out.line(f"NodeID {src} = {bucket}[__i];")
        out.line(f"for (WNode __wn : {edgeset}.out_neigh({src})) {{")
        out.push()
        out.line(f"NodeID {dst} = __wn.v;")
        if weight is not None:
            out.line(f"WeightT {weight} = __wn.weight;")
        self._emit_udf_body(udf, mode="lazy_push")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")

    def _emit_pull_apply(self, edgeset: str, bucket: str, udf: ast.FuncDecl) -> None:
        out = self.out
        src, dst, weight = self._udf_param_names(udf)
        out.line("{")
        out.push()
        out.line(
            f"static WGraph __transposed = TransposeGraph({edgeset});"
        )
        out.line(
            f"static std::vector<uint8_t> __frontier_map({edgeset}.num_nodes, 0);"
        )
        out.line(
            f"std::fill(__frontier_map.begin(), __frontier_map.end(), 0);"
        )
        out.line(f"for (NodeID __v : {bucket}) __frontier_map[__v] = 1;")
        out.line(PARALLEL_FOR)
        out.line(f"for (NodeID {dst} = 0; {dst} < {edgeset}.num_nodes; {dst}++) {{")
        out.push()
        out.line(f"for (WNode __wn : __transposed.out_neigh({dst})) {{")
        out.push()
        out.line("if (!__frontier_map[__wn.v]) continue;")
        out.line(f"NodeID {src} = __wn.v;")
        if weight is not None:
            out.line(f"WeightT {weight} = __wn.weight;")
        self._emit_udf_body(udf, mode="lazy_pull")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")

    def _emit_histogram_scratch(self) -> None:
        out = self.out
        out.line(
            f"std::vector<int64_t> __count({self.edgeset_name}.num_nodes, 0);"
        )
        out.line(
            f"std::vector<NodeID> __touched({self.edgeset_name}.num_nodes);"
        )
        out.line("size_t __touched_tail = 0;")

    def _emit_histogram_apply(self, edgeset: str, bucket: str) -> None:
        out = self.out
        transformed = self.plan.transformed_udf
        if transformed is None:
            raise CompileError("histogram schedule lacks a transformed UDF")
        out.line("{")
        out.push()
        out.line(
            f"const int64_t __k = {self.queue_name}->getCurrentPriority();"
        )
        out.line(PARALLEL_FOR)
        out.line(f"for (size_t __i = 0; __i < {bucket}.size(); __i++) {{")
        out.push()
        out.line(f"for (WNode __wn : {edgeset}.out_neigh({bucket}[__i])) {{")
        out.push()
        # The transformed UDF's own ``priority > k`` guard, applied before
        # counting: a neighbour already peeled is never counted.
        out.line(f"if ({self._pv_name}[__wn.v] <= __k) continue;")
        out.line("if (fetchAdd(&__count[__wn.v], (int64_t)1) == 0) {")
        out.push()
        out.line("size_t __slot = fetchAdd(&__touched_tail, (size_t)1);")
        out.line("__touched[__slot] = __wn.v;")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")
        out.line(PARALLEL_FOR)
        out.line("for (size_t __i = 0; __i < __touched_tail; __i++) {")
        out.push()
        out.line("NodeID __v = __touched[__i];")
        out.line(
            f"if ({transformed.name}(__v, __count[__v]) != kIntMax) "
            f"{self.queue_name}->bufferVertex(__v);"
        )
        out.line("__count[__v] = 0;")
        out.pop()
        out.line("}")
        out.line("__touched_tail = 0;")
        out.pop()
        out.line("}")

    # ------------------------------------------------------------------
    # UDF body lowering
    # ------------------------------------------------------------------
    def _emit_udf_body(self, udf: ast.FuncDecl, mode: str) -> None:
        """Inline the UDF with its priority-update operators lowered.

        ``mode`` is ``lazy_push``, ``lazy_pull``, or ``eager``; it selects
        the bucket-update mechanism and whether writes are atomic (the
        dependence analysis result — pull needs no atomics).
        """
        for statement in udf.body:
            self._emit_udf_stmt(statement, mode)

    def _emit_udf_stmt(self, statement: ast.Stmt, mode: str) -> None:
        if isinstance(statement, ast.ExprStmt):
            update = self._match_update_call(statement.expression)
            if update is not None:
                self._emit_priority_update(update, mode)
                return
        if isinstance(statement, ast.If):
            self.out.line(f"if ({self._expr(statement.condition)}) {{")
            self.out.push()
            for child in statement.then_body:
                self._emit_udf_stmt(child, mode)
            self.out.pop()
            if statement.else_body:
                self.out.line("} else {")
                self.out.push()
                for child in statement.else_body:
                    self._emit_udf_stmt(child, mode)
                self.out.pop()
            self.out.line("}")
            return
        if isinstance(statement, ast.Assign):
            # Plain assigns are emitted verbatim: the race analysis has
            # classified each one (thread-owned, idempotent constant, or
            # guarded monotonic test-and-set are all benign without
            # atomics).  Sites it could NOT prove safe are flagged in the
            # generated code; `repro lint` reports them as R001 errors.
            site = self._race_site(statement)
            if site is not None and site.race_class.value == "unordered_racy":
                self.out.line("// R001: unordered racy write (repro lint)")
            self.out.line(
                f"{self._expr(statement.target)} = "
                f"{self._expr(statement.value)};"
            )
            return
        self._stmt(statement)

    def _match_update_call(self, expression: ast.Expr):
        if (
            isinstance(expression, ast.MethodCall)
            and expression.method.startswith("updatePriority")
            and isinstance(expression.receiver, ast.Name)
            and expression.receiver.identifier in self.plan.queue_names
        ):
            return expression
        return None

    def _race_site(self, node: ast.Node):
        """The race-analysis classification for an AST node, if any."""
        races = getattr(self.plan, "races", None)
        if races is None:
            return None
        return races.site_for(node)

    def _emit_priority_update(self, call: ast.MethodCall, mode: str) -> None:
        out = self.out
        arguments = call.arguments
        vertex = self._expr(arguments[0])
        # The race analysis decides atomicity per site (no unconditional
        # atomics): CAS/fetch-add only where the write crosses threads under
        # the active schedule.  Without a classification (plans built before
        # the analysis ran) fall back to the old direction heuristic.
        site = self._race_site(call)
        if site is not None:
            atomic = site.race_class.is_atomic
        else:
            atomic = mode != "lazy_pull"
        if call.method in ("updatePriorityMin", "updatePriorityMax"):
            new_value = self._expr(arguments[-1])
            out.line(f"int64_t __new_value = {new_value};")
            if atomic:
                op = (
                    "atomicWriteMin"
                    if call.method == "updatePriorityMin"
                    else "atomicWriteMax"
                )
                seed = ""
                if site is not None and site.cas_seed is not None:
                    # Seed the CAS loop from the old value the UDF already
                    # read (the preserved 3-argument form) instead of an
                    # extra atomic load.
                    seed = f", {self._expr(site.cas_seed)}"
                out.line(
                    f"bool __tracking_var = {op}(&{self._pv_name}[{vertex}], "
                    f"__new_value{seed});"
                )
            else:
                comparison = "<" if call.method == "updatePriorityMin" else ">"
                out.line("bool __tracking_var = false;")
                out.line(
                    f"if (__new_value {comparison} {self._pv_name}[{vertex}]) "
                    f"{{ {self._pv_name}[{vertex}] = __new_value; "
                    f"__tracking_var = true; }}"
                )
            self._emit_bucket_routing(vertex, "__new_value", "__tracking_var", mode)
        elif call.method == "updatePrioritySum":
            diff = self._expr(arguments[1])
            threshold = (
                self._expr(arguments[2]) if len(arguments) > 2 else "kIntMax"
            )
            add = "atomicAddClamped" if atomic else "addClamped"
            out.line(
                f"int64_t __new_value = {add}("
                f"&{self._pv_name}[{vertex}], {diff}, {threshold});"
            )
            out.line("bool __tracking_var = (__new_value != kIntMax);")
            self._emit_bucket_routing(vertex, "__new_value", "__tracking_var", mode)
        else:  # pragma: no cover
            raise CompileError(f"unknown update operator {call.method}")

    def _emit_bucket_routing(
        self, vertex: str, new_value: str, tracking: str, mode: str
    ) -> None:
        out = self.out
        if mode in ("lazy_push", "lazy_pull"):
            out.line(
                f"if ({tracking}) {self.queue_name}->bufferVertex({vertex});"
            )
            return
        # Eager: immediate insertion into this thread's local bins
        # (Figure 9(c), lines 22-26).
        out.line(f"if ({tracking}) {{")
        out.push()
        if self._dir_lower:
            out.line(f"size_t __dest_bin = (size_t)({new_value} / delta);")
            out.line(
                "if (__dest_bin < curr_bin_index) __dest_bin = curr_bin_index;"
            )
            out.line(
                "if (__dest_bin >= local_bins.size()) "
                "local_bins.resize(__dest_bin + 1);"
            )
            out.line(f"local_bins[__dest_bin].push_back({vertex});")
        else:
            # higher_first works in order space: orders are negative, so the
            # bins are a sorted map instead of a dense array.
            out.line(
                f"int64_t __dest_order = -floorDiv({new_value}, delta);"
            )
            out.line("if (__dest_order < curr_order) __dest_order = curr_order;")
            out.line(f"local_bins[__dest_order].push_back({vertex});")
        out.pop()
        out.line("}")

    # ------------------------------------------------------------------
    # Eager ordered-processing region (Section 5.2, Figure 9(c))
    # ------------------------------------------------------------------
    def _emit_eager_region(self) -> None:
        if not self._dir_lower:
            self._emit_eager_region_higher()
            return
        loop = self.plan.loop
        udf = self.plan.udf
        if loop is None or udf is None:
            raise CompileError("eager transform requires the recognized loop")
        out = self.out
        edgeset = loop.edgeset_name
        src, dst, weight = self._udf_param_names(udf)
        start = self._start_vertex_expr()
        sum_udf = self.plan.dependence is not None and (
            self.plan.dependence.needs_deduplication
        )
        fusion = self.schedule.uses_fusion
        threshold = self._schedule_number("bucket_fusion_threshold")

        out.line("// --- eager ordered processing operator (Figure 9(c)) ---")
        out.line("{")
        out.push()
        self._emit_eager_frontier(edgeset)
        out.line("size_t shared_indexes[2] = {kMaxBin, kMaxBin};")
        out.line("size_t frontier_tails[2] = {0, 0};")
        out.line("bool stop_flag = false;")
        if sum_udf:
            out.line(
                f"std::vector<uint8_t> processed({edgeset}.num_nodes, 0);"
            )
        if start is not None:
            out.line(f"frontier[0] = {self._expr(start)};")
            out.line("frontier_tails[0] = 1;")
            out.line(
                f"shared_indexes[0] = (size_t)({self._pv_name}"
                f"[{self._expr(start)}] / delta);"
            )
        out.line("#pragma omp parallel if(!gSerial)")
        out.line("{")
        out.push()
        out.line("std::vector<std::vector<NodeID>> local_bins(0);")
        if start is None:
            self._emit_eager_prebinning(edgeset)
        out.line("size_t iter = 0;")
        out.line("while (shared_indexes[iter & 1] != kMaxBin) {")
        out.push()
        out.line("size_t &curr_bin_index = shared_indexes[iter & 1];")
        out.line("size_t &next_bin_index = shared_indexes[(iter + 1) & 1];")
        out.line("size_t &curr_frontier_tail = frontier_tails[iter & 1];")
        out.line("size_t &next_frontier_tail = frontier_tails[(iter + 1) & 1];")
        out.line("if (stop_flag) break;")
        out.line(
            "const int64_t curr_priority = (int64_t)curr_bin_index * delta;"
        )
        out.line("(void)curr_priority;")
        # The relaxation lambda: the transformed UDF writing into this
        # thread's local bins.
        out.line(f"auto relax = [&](NodeID {src}) {{")
        out.push()
        out.line(f"for (WNode __wn : {edgeset}.out_neigh({src})) {{")
        out.push()
        out.line(f"NodeID {dst} = __wn.v;")
        if weight is not None:
            out.line(f"WeightT {weight} = __wn.weight;")
        out.line(f"(void){dst};")
        self._in_eager_region = True
        self._emit_udf_body(udf, mode="eager")
        self._in_eager_region = False
        out.pop()
        out.line("}")
        out.pop()
        out.line("};")
        out.line("#pragma omp for nowait schedule(dynamic, 64)")
        out.line("for (size_t i = 0; i < curr_frontier_tail; i++) {")
        out.push()
        out.line("NodeID u = frontier[i];")
        self._emit_eager_guard(sum_udf)
        out.pop()
        out.line("}")
        if fusion:
            out.line(
                "// bucket fusion (Figure 7): drain this thread's current "
                "local bucket"
            )
            out.line(
                f"while (curr_bin_index < local_bins.size() && "
                f"!local_bins[curr_bin_index].empty() && "
                f"local_bins[curr_bin_index].size() < {threshold}) {{"
            )
            out.push()
            out.line("std::vector<NodeID> fused;")
            out.line("fused.swap(local_bins[curr_bin_index]);")
            out.line("for (NodeID u : fused) {")
            out.push()
            self._emit_eager_guard(sum_udf)
            out.pop()
            out.line("}")
            out.pop()
            out.line("}")
        out.line("for (size_t b = curr_bin_index; b < local_bins.size(); b++) {")
        out.push()
        out.line(
            "if (!local_bins[b].empty()) { atomicMinSize(&next_bin_index, b); "
            "break; }"
        )
        out.pop()
        out.line("}")
        out.line("#pragma omp barrier")
        out.line("#pragma omp single nowait")
        out.line("{")
        out.push()
        if loop.stop_condition is not None:
            out.line(
                "if (next_bin_index != kMaxBin && "
                f"({self._stop_condition_text(loop.stop_condition)})) "
                "stop_flag = true;"
            )
        out.line("curr_bin_index = kMaxBin;")
        out.line("curr_frontier_tail = 0;")
        out.pop()
        out.line("}")
        out.line(
            "if (next_bin_index < local_bins.size() && "
            "!local_bins[next_bin_index].empty()) {"
        )
        out.push()
        out.line(
            "size_t copy_start = __atomic_fetch_add(&next_frontier_tail, "
            "local_bins[next_bin_index].size(), __ATOMIC_RELAXED);"
        )
        out.line(
            "std::copy(local_bins[next_bin_index].begin(), "
            "local_bins[next_bin_index].end(), frontier.get() + copy_start);"
        )
        out.line("local_bins[next_bin_index].resize(0);")
        out.pop()
        out.line("}")
        out.line("iter++;")
        out.line("#pragma omp barrier")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")

    def _emit_eager_region_higher(self) -> None:
        """The eager operator for ``higher_first`` queues.

        Same two-slot shared frontier protocol as the lower_first region,
        but in *order space*: priorities map to ``-floorDiv(p, delta)``,
        which is negative and unbounded below, so thread-local bins are a
        sorted ``std::map`` keyed by order instead of a dense array, and the
        next-bucket election races on an ``int64_t`` order with ``kIntMax``
        as the no-bucket sentinel.
        """
        loop = self.plan.loop
        udf = self.plan.udf
        if loop is None or udf is None:
            raise CompileError("eager transform requires the recognized loop")
        out = self.out
        edgeset = loop.edgeset_name
        src, dst, weight = self._udf_param_names(udf)
        start = self._start_vertex_expr()
        if start is None:
            raise CompileError(
                "the all-vertices priority queue form is not supported with "
                "eager higher_first schedules in the C++ backend; use a "
                "lazy schedule"
            )
        sum_udf = self.plan.dependence is not None and (
            self.plan.dependence.needs_deduplication
        )
        fusion = self.schedule.uses_fusion
        threshold = self._schedule_number("bucket_fusion_threshold")

        out.line(
            "// --- eager ordered processing operator "
            "(Figure 9(c), higher_first) ---"
        )
        out.line("{")
        out.push()
        self._emit_eager_frontier(edgeset)
        out.line("int64_t shared_orders[2] = {kIntMax, kIntMax};")
        out.line("size_t frontier_tails[2] = {0, 0};")
        out.line("bool stop_flag = false;")
        if sum_udf:
            out.line(
                f"std::vector<uint8_t> processed({edgeset}.num_nodes, 0);"
            )
        out.line(f"frontier[0] = {self._expr(start)};")
        out.line("frontier_tails[0] = 1;")
        out.line(
            f"shared_orders[0] = -floorDiv({self._pv_name}"
            f"[{self._expr(start)}], delta);"
        )
        out.line("#pragma omp parallel if(!gSerial)")
        out.line("{")
        out.push()
        out.line("std::map<int64_t, std::vector<NodeID>> local_bins;")
        out.line("size_t iter = 0;")
        out.line("while (shared_orders[iter & 1] != kIntMax) {")
        out.push()
        out.line("int64_t &curr_order = shared_orders[iter & 1];")
        out.line("int64_t &next_order = shared_orders[(iter + 1) & 1];")
        out.line("size_t &curr_frontier_tail = frontier_tails[iter & 1];")
        out.line("size_t &next_frontier_tail = frontier_tails[(iter + 1) & 1];")
        out.line("if (stop_flag) break;")
        out.line("const int64_t curr_priority = -curr_order * delta;")
        out.line("(void)curr_priority;")
        out.line(f"auto relax = [&](NodeID {src}) {{")
        out.push()
        out.line(f"for (WNode __wn : {edgeset}.out_neigh({src})) {{")
        out.push()
        out.line(f"NodeID {dst} = __wn.v;")
        if weight is not None:
            out.line(f"WeightT {weight} = __wn.weight;")
        out.line(f"(void){dst};")
        self._in_eager_region = True
        self._emit_udf_body(udf, mode="eager")
        self._in_eager_region = False
        out.pop()
        out.line("}")
        out.pop()
        out.line("};")
        out.line("#pragma omp for nowait schedule(dynamic, 64)")
        out.line("for (size_t i = 0; i < curr_frontier_tail; i++) {")
        out.push()
        out.line("NodeID u = frontier[i];")
        self._emit_eager_guard(sum_udf)
        out.pop()
        out.line("}")
        if fusion:
            out.line(
                "// bucket fusion (Figure 7): drain this thread's current "
                "local bucket"
            )
            out.line("while (true) {")
            out.push()
            out.line("auto __fuse_it = local_bins.find(curr_order);")
            out.line(
                f"if (__fuse_it == local_bins.end() || "
                f"__fuse_it->second.empty() || "
                f"__fuse_it->second.size() >= {threshold}) break;"
            )
            out.line("std::vector<NodeID> fused;")
            out.line("fused.swap(__fuse_it->second);")
            out.line("for (NodeID u : fused) {")
            out.push()
            self._emit_eager_guard(sum_udf)
            out.pop()
            out.line("}")
            out.pop()
            out.line("}")
        out.line(
            "for (auto __it = local_bins.lower_bound(curr_order); "
            "__it != local_bins.end(); ++__it) {"
        )
        out.push()
        out.line(
            "if (!__it->second.empty()) { "
            "atomicMinInt64(&next_order, __it->first); break; }"
        )
        out.pop()
        out.line("}")
        out.line("#pragma omp barrier")
        out.line("#pragma omp single nowait")
        out.line("{")
        out.push()
        if loop.stop_condition is not None:
            out.line(
                "if (next_order != kIntMax && "
                f"({self._stop_condition_text(loop.stop_condition)})) "
                "stop_flag = true;"
            )
        out.line("curr_order = kIntMax;")
        out.line("curr_frontier_tail = 0;")
        out.pop()
        out.line("}")
        out.line("{")
        out.push()
        out.line("auto __next_it = local_bins.find(next_order);")
        out.line(
            "if (__next_it != local_bins.end() && "
            "!__next_it->second.empty()) {"
        )
        out.push()
        out.line(
            "size_t copy_start = __atomic_fetch_add(&next_frontier_tail, "
            "__next_it->second.size(), __ATOMIC_RELAXED);"
        )
        out.line(
            "std::copy(__next_it->second.begin(), __next_it->second.end(), "
            "frontier.get() + copy_start);"
        )
        out.line("local_bins.erase(__next_it);")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")
        out.line("iter++;")
        out.line("#pragma omp barrier")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")
        out.pop()
        out.line("}")

    def _emit_eager_frontier(self, edgeset: str) -> None:
        """The shared frontier, |E| + 1 slots per query.  Uninitialised: a
        slot is read only below a tail that a copy into it advanced."""
        self.out.line(
            f"std::unique_ptr<NodeID[]> frontier("
            f"new NodeID[{edgeset}.num_edges() + 1]);"
        )

    def _emit_eager_prebinning(self, edgeset: str) -> None:
        """k-core style initialization: every tracked vertex starts in a
        thread-local bucket for its initial priority."""
        out = self.out
        out.line("#pragma omp for nowait")
        out.line(f"for (NodeID v = 0; v < {edgeset}.num_nodes; v++) {{")
        out.push()
        out.line(f"if ({self._pv_name}[v] == kIntMax) continue;")
        out.line(f"size_t b = (size_t)({self._pv_name}[v] / delta);")
        out.line("if (b >= local_bins.size()) local_bins.resize(b + 1);")
        out.line("local_bins[b].push_back(v);")
        out.pop()
        out.line("}")
        out.line("for (size_t b = 0; b < local_bins.size(); b++) {")
        out.push()
        out.line(
            "if (!local_bins[b].empty()) { "
            "atomicMinSize(&shared_indexes[0], b); break; }"
        )
        out.pop()
        out.line("}")
        out.line("#pragma omp barrier")
        out.line(
            "if (shared_indexes[0] != kMaxBin && "
            "shared_indexes[0] < local_bins.size() && "
            "!local_bins[shared_indexes[0]].empty()) {"
        )
        out.push()
        out.line(
            "size_t copy_start = __atomic_fetch_add(&frontier_tails[0], "
            "local_bins[shared_indexes[0]].size(), __ATOMIC_RELAXED);"
        )
        out.line(
            "std::copy(local_bins[shared_indexes[0]].begin(), "
            "local_bins[shared_indexes[0]].end(), "
            "frontier.get() + copy_start);"
        )
        out.line("local_bins[shared_indexes[0]].resize(0);")
        out.pop()
        out.line("}")
        out.line("#pragma omp barrier")

    def _emit_eager_guard(self, sum_udf: bool) -> None:
        """The stale-entry guard before relaxing a popped vertex."""
        out = self.out
        if not self._dir_lower:
            if sum_udf:
                out.line(
                    f"if (-floorDiv({self._pv_name}[u], delta) == curr_order "
                    f"&& CASByte(&processed[u], 0, 1)) relax(u);"
                )
            else:
                # The GAPBS check in order space: still in the current (or a
                # later) bucket.
                out.line(
                    f"if (-floorDiv({self._pv_name}[u], delta) >= curr_order) "
                    f"relax(u);"
                )
            return
        if sum_udf:
            # Strict ordering with peel-once semantics (k-core).
            out.line(
                f"if ({self._pv_name}[u] / delta == (int64_t)curr_bin_index "
                f"&& CASByte(&processed[u], 0, 1)) relax(u);"
            )
        else:
            # The GAPBS check: still in the current (or a later) bucket.
            out.line(
                f"if ({self._pv_name}[u] >= delta * (int64_t)curr_bin_index) "
                f"relax(u);"
            )

    def _stop_condition_text(self, condition: ast.Expr) -> str:
        """Translate the early-exit condition for the eager region, where
        ``getCurrentPriority`` means the bin about to be processed."""
        saved = self._in_eager_region
        self._in_eager_region = False
        next_priority = (
            "((int64_t)next_bin_index * delta)"
            if self._dir_lower
            else "(-next_order * delta)"
        )
        try:
            return self._expr(condition).replace(
                "__CURRENT_PRIORITY__", next_priority
            )
        finally:
            self._in_eager_region = saved

    # ------------------------------------------------------------------
    # Types and expressions
    # ------------------------------------------------------------------
    def _cpp_type(self, declared: Type) -> str:
        if declared == INT:
            return "int64_t"
        if declared == BOOL:
            return "bool"
        if declared == FLOAT:
            return "double"
        if isinstance(declared, VertexSetType):
            return "std::vector<NodeID>"
        if isinstance(declared, VectorType):
            return "std::vector<int64_t>"
        raise CompileError(f"cannot map type {declared} to C++")

    def _expr(self, expression: ast.Expr) -> str:
        if isinstance(expression, ast.IntLiteral):
            return str(expression.value)
        if isinstance(expression, ast.FloatLiteral):
            return repr(expression.value)
        if isinstance(expression, ast.BoolLiteral):
            return "true" if expression.value else "false"
        if isinstance(expression, ast.StringLiteral):
            return f"\"{expression.value}\""
        if isinstance(expression, ast.Name):
            if expression.identifier == "INT_MAX":
                return "kIntMax"
            return expression.identifier
        if isinstance(expression, ast.BinaryOp):
            operator = {"and": "&&", "or": "||"}.get(
                expression.operator, expression.operator
            )
            return (
                f"({self._expr(expression.left)} {operator} "
                f"{self._expr(expression.right)})"
            )
        if isinstance(expression, ast.UnaryOp):
            operator = "!" if expression.operator == "not" else "-"
            return f"({operator}{self._expr(expression.operand)})"
        if isinstance(expression, ast.Index):
            base = expression.base
            if isinstance(base, ast.Name) and base.identifier == "argv":
                return f"argv[{self._expr(expression.index)}]"
            if isinstance(base, ast.MethodCall) and base.method == "priorityVector":
                return f"{self._pv_name}[{self._expr(expression.index)}]"
            return f"{self._expr(base)}[{self._expr(expression.index)}]"
        if isinstance(expression, ast.Call):
            return self._call(expression)
        if isinstance(expression, ast.MethodCall):
            return self._method_call(expression)
        if isinstance(expression, ast.New):
            raise CompileError(
                "priority queue construction must appear in an assignment"
            )
        raise CompileError(  # pragma: no cover
            f"cannot generate expression {type(expression).__name__}"
        )

    def _call(self, expression: ast.Call) -> str:
        name = expression.function
        arguments = ", ".join(self._expr(a) for a in expression.arguments)
        if name == "load":
            return f"WGraph::Load({arguments})"
        if name == "atoi":
            return f"atoll({arguments})"
        if name == "max":
            return f"std::max<int64_t>({arguments})"
        if name == "min":
            return f"std::min<int64_t>({arguments})"
        if name in {func.name for func in self.program.functions}:
            return f"{name}({arguments})"
        raise CompileError(f"call to unknown function {name!r}")

    def _method_call(self, expression: ast.MethodCall) -> str:
        receiver_node = expression.receiver
        method = expression.method
        arguments = [self._expr(a) for a in expression.arguments]
        is_queue = (
            isinstance(receiver_node, ast.Name)
            and receiver_node.identifier in self.plan.queue_names
        )
        if is_queue:
            queue = receiver_node.identifier
            if self.schedule.is_eager:
                if method in ("getCurrentPriority", "get_current_priority"):
                    if self._in_eager_region:
                        return "curr_priority"
                    return "__CURRENT_PRIORITY__"
                if method == "finished":
                    raise CompileError(
                        "pq.finished() outside the recognized loop is not "
                        "supported under the eager schedules"
                    )
            else:
                if method == "finished":
                    return f"{queue}->finished()"
                if method == "dequeueReadySet":
                    return f"{queue}->dequeueReadySet()"
                if method in ("getCurrentPriority", "get_current_priority"):
                    return f"{queue}->getCurrentPriority()"
                if method == "priorityVector":
                    return self._pv_name
            raise CompileError(
                f"cannot generate queue method {method!r} in this context"
            )
        receiver = self._expr(receiver_node)
        if method == "getOutDegrees":
            return f"{receiver}.OutDegrees()"
        if method in ("size", "getVertexSetSize"):
            return f"(int64_t){receiver}.size()"
        raise CompileError(f"cannot generate method call {method!r}")
