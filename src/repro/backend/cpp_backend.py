"""C++ code generator: one emitter, whose output is the native kernel.

:func:`generate_native_cpp` lowers a plan to one translation unit (embedded
runtime + generated program) exporting a stable ``extern "C"`` entry point
(the ABI of :mod:`repro.backend.native.abi`) that compiles with ``g++ -O2
-std=c++17 -fopenmp``.  :func:`generate_cpp`, the standalone program, is
that same text followed by a fixed driver (``cpp_runtime.driver``) that
loads an edge list, calls the entry point and dumps every global vector to
``$REPRO_OUTPUT``.  The three code shapes of Figure 9 are reproduced:

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
  One skeleton serves both queue directions; only the bin structure (a
  dense array for ``lower_first``, a sorted map of negative orders for
  ``higher_first``), the bin index type and sentinel, the fusion head, the
  next-bucket scan and the take-next step differ.

``lazy_constant_sum`` additionally emits the Figure 10 transformed function
and a histogram-based apply.

Each of these regions is written once and instantiated twice under one
dispatch on the run's thread mode: serial code and the OpenMP text
(``cpp_runtime``'s module docstring; DESIGN §11).

The emitter renders the plan and derives nothing: the queue, the edgeset,
the outputs and each site's atomicity come from the plan, and a plan that
:func:`~repro.midend.transforms.lowering.native_refusal` refuses (externs,
no queue, relaxed, a higher_first constant-sum, ...) raises its reason.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from ..errors import CompileError
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
from ..midend.analysis.effects import runtime_summary
from ..midend.analysis.facts import UDFFacts
from ..midend.transforms.lowering import CompilationPlan, native_refusal
from .cpp_runtime import driver, kernel_runtime
from .python_backend import _Emitter

__all__ = ["ABI_VERSION", "RUN_PARAMETERS", "generate_cpp", "generate_native_cpp"]

ABI_VERSION = 2

#: The run-parameter block, in ABI order: Schedule fields passed per call.
RUN_PARAMETERS = ("num_threads", "delta", "bucket_fusion_threshold", "num_buckets")

#: The Schedule fields that change the kernel's code, and so its cache key.
#: Every other field is a run parameter or is refused natively.
CODE_SHAPE_FIELDS = ("priority_update", "direction")


def generate_native_cpp(plan: CompilationPlan) -> str:
    """The native kernel for ``plan``: the only C++ the compiler emits."""
    return _CppEmitter(plan).emit()


def generate_cpp(plan: CompilationPlan) -> str:
    """The standalone program for ``plan``: the kernel plus the driver,
    which runs it at OpenMP's default thread count and ``plan``'s Δ,
    fusion threshold and bucket count."""
    return _CppEmitter(plan).emit() + driver(
        plan.facts.outputs,
        plan.facts.vertex_arguments,
        [0] + [getattr(plan.schedule, name) for name in RUN_PARAMETERS[1:]],
    )


def _schedule_number(name: str) -> str:
    """The kernel global a run parameter (``delta``,
    ``bucket_fusion_threshold``, ``num_buckets``) is read from, so one
    kernel serves every value."""
    return "delta" if name == "delta" else f"__repro_{name}"


def _jsonable(value):
    """Deterministic JSON form for the embedded effect summary (sets become
    sorted lists)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class _CppEmitter:
    def __init__(self, plan: CompilationPlan):
        reason = native_refusal(plan)
        if reason is not None:
            raise CompileError(reason)
        self.plan = plan
        self.program = plan.program
        self.schedule = plan.schedule
        self.out = _Emitter(indent="  ")
        queue = plan.queue
        self.queue_name = queue.name
        self._pv_name = queue.priority_vector
        self._start = queue.start_vertex
        # Direction parameters threaded through the generated code: bucket
        # orders ascend in both directions (order space); higher_first
        # negates the coarsened priority and uses the large negative null.
        self._dir_lower = queue.order == "lower_first"
        self._dir_sign_text = "1" if self._dir_lower else "-1"
        self._null_literal = "kIntMax" if self._dir_lower else "kNullHigher"
        # The eager region's bin index and its no-bucket sentinel.
        self._bin_type, self._bin_sentinel = (
            ("size_t", "kMaxBin") if self._dir_lower else ("int64_t", "kIntMax")
        )
        # The race report of the UDF being inlined: atomicity per site.
        self._races = None
        # Context flags used during statement emission.
        self._in_eager_region = False
        self._emitting_transformed = False
        # The instantiation being emitted (``_instantiate``).
        self._serial = False

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def emit(self) -> str:
        out = self.out
        # The banner names the module that documents the ABI this text
        # implements; the kernel cache key hashes every byte of it.
        out.line("// Generated by repro.backend.native.abi — do not edit.")
        shown = ", ".join(
            f"{name}={getattr(self.schedule, name)!r}"
            for name in CODE_SHAPE_FIELDS
        )
        out.line(f"// schedule: {shown}")
        out.line(f"// abi_version: {ABI_VERSION}")
        summary = json.dumps(
            _jsonable(runtime_summary(self.plan.facts, self.schedule.direction)),
            sort_keys=True,
        )
        out.line(f"// effect_summary: {summary}")
        out._lines.append(
            kernel_runtime(
                # The higher_first eager region bins into a std::map.
                uses_map=self.schedule.is_eager and not self._dir_lower,
                uses_print=self.plan.facts.prints,
            )
        )
        self._emit_globals()
        self._emit_functions()
        self._emit_entry()
        return out.text()

    def _emit_globals(self) -> None:
        out = self.out
        for const in self.program.constants:
            declared = const.declared_type
            if isinstance(declared, EdgeSetType):
                out.line(f"WGraph {const.name};")
            elif isinstance(declared, VectorType):
                out.line(f"OutVec {const.name};")
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
        # Run parameters other than the thread count: set on every entry.
        for name in RUN_PARAMETERS[1:]:
            out.line(f"int64_t {_schedule_number(name)} = 0;")
        # Run stamp: lets per-call-site statics (the pull-direction
        # transpose) invalidate between entry invocations on new graphs.
        out.line("uint64_t __repro_run_id = 0;")
        out.line()

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
    # The extern "C" entry point: main's body over the ABI parameters
    # ------------------------------------------------------------------
    def _emit_entry(self) -> None:
        main = self.program.function("main")
        if main is None:
            raise CompileError("program has no main function")
        out = self.out
        outputs = self.plan.facts.outputs
        num_outputs = len(outputs)
        required_args = self.plan.facts.num_args_required
        out.line(
            "extern \"C\" int64_t repro_native_abi_version() "
            f"{{ return {ABI_VERSION}; }}"
        )
        out.line(
            "extern \"C\" int64_t repro_native_num_outputs() "
            f"{{ return {num_outputs}; }}"
        )
        out.line(
            "extern \"C\" int64_t repro_native_num_args_required() "
            f"{{ return {required_args}; }}"
        )
        out.line()
        out.line("extern \"C\" int64_t repro_native_run(")
        out.line("    const int64_t *__repro_indptr,")
        out.line("    const int64_t *__repro_indices,")
        out.line("    const int64_t *__repro_weights,")
        out.line("    int64_t __repro_num_nodes, int64_t __repro_num_edges,")
        out.line("    const int64_t *__repro_args, int64_t __repro_num_args,")
        out.line("    int64_t **__repro_out, int64_t __repro_num_out,")
        out.line("    const int64_t *__repro_params, int64_t __repro_num_params) {")
        out.push()
        out.line(f"if (__repro_num_out != {num_outputs}) return 2;")
        out.line(f"if (__repro_num_args < {required_args}) return 3;")
        out.line(f"if (__repro_num_params != {len(RUN_PARAMETERS)}) return 4;")
        out.line("__repro_run_id++;")
        out.line("const int64_t __repro_num_threads = __repro_params[0];")
        for index, name in enumerate(RUN_PARAMETERS[1:], start=1):
            out.line(f"{_schedule_number(name)} = __repro_params[{index}];")
        out.line("#ifdef _OPENMP")
        out.line(
            "if (__repro_num_threads > 0) "
            "omp_set_num_threads((int)__repro_num_threads);"
        )
        out.line("#endif")
        out.line("(void)__repro_num_threads;")
        out.line("detectSerial();")
        self._emit_entry_reset()
        for index, name in enumerate(outputs):
            out.line(f"{name}.bind(__repro_out[{index}], __repro_num_nodes);")
        self._emit_const_initializers()
        # The program body runs inside a void lambda so the DSL's bare
        # `return` statements keep their meaning; the entry's own status
        # code is returned afterwards.
        out.line("auto __repro_main = [&]() {")
        out.push()
        for statement in main.body:
            self._stmt(statement)
        out.pop()
        out.line("};")
        out.line("__repro_main();")
        out.line("return 0;")
        out.pop()
        out.line("}")

    def _emit_entry_reset(self) -> None:
        """Re-initialize mutable globals: the entry may be invoked many
        times in one process (that is the point of the kernel cache)."""
        out = self.out
        for const in self.program.constants:
            declared = const.declared_type
            if isinstance(declared, PriorityQueueType):
                if self.schedule.is_lazy:
                    out.line(
                        f"if ({const.name}) {{ delete {const.name}; "
                        f"{const.name} = nullptr; }}"
                    )
            elif not isinstance(declared, (EdgeSetType, VectorType)):
                init = self._global_scalar_init(const).lstrip(" =")
                out.line(f"{const.name} = {init};")

    def _emit_const_initializers(self) -> None:
        out = self.out
        for const in self.program.constants:
            declared = const.declared_type
            init = const.initializer
            if isinstance(declared, EdgeSetType):
                # The graph arrives through the ABI: the path argument
                # (argv[1]) is subsumed by the borrowed CSR arrays.
                out.line(
                    f"{const.name} = WGraph::Borrow(__repro_indptr, "
                    f"__repro_indices, __repro_weights, __repro_num_nodes, "
                    f"__repro_num_edges);"
                )
            elif isinstance(declared, VectorType):
                if init is None:
                    out.line(f"{const.name}.assign(__repro_num_nodes, 0);")
                elif (
                    isinstance(init, ast.MethodCall)
                    and init.method == "getOutDegrees"
                ):
                    # In place: the view is already bound to the caller's
                    # buffer, so no temporary vector is built and copied.
                    receiver = self._expr(init.receiver)
                    out.line(
                        f"for (NodeID __v = 0; __v < {receiver}.num_nodes; "
                        f"__v++) {const.name}[__v] = {receiver}.out_degree(__v);"
                    )
                else:
                    out.line(
                        f"{const.name}.assign(__repro_num_nodes, "
                        f"{self._expr(init)});"
                    )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _stmt(self, statement: ast.Stmt) -> None:
        out = self.out
        if isinstance(statement, ast.While):
            if (
                self.plan.facts.loop is not None
                and statement is self.plan.facts.loop.while_stmt
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
        start_text = self._expr(self._start) if self._start is not None else "-1"
        self.out.line(
            f"{target} = new LazyPriorityQueue({self._pv_name}.data(), "
            f"{self.plan.facts.edgeset}.num_nodes, delta, {start_text}, "
            f"{_schedule_number('num_buckets')}, {self._dir_sign_text}, "
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
        chain = expression.receiver  # edges.from(bucket), as the planner checked
        edgeset = chain.receiver.identifier
        bucket = self._expr(chain.arguments[0])
        udf = self.plan.facts.udfs[expression.arguments[0].identifier]
        if self.schedule.uses_histogram:
            self._emit_histogram_apply(edgeset, bucket)
        elif self.schedule.direction == "DensePull":
            self._emit_pull_apply(edgeset, bucket, udf)
        else:
            self._emit_push_apply(edgeset, bucket, udf)
        return True

    def _emit_push_apply(self, edgeset: str, bucket: str, udf: UDFFacts) -> None:
        src, dst, weight = udf.src_param, udf.dst_param, udf.weight_param

        def body() -> None:
            self._omp("parallel for schedule(dynamic, 64)")
            with self._block(f"for (size_t __i = 0; __i < {bucket}.size(); __i++)"):
                self.out.line(f"NodeID {src} = {bucket}[__i];")
                with self._out_edges(src, dst, weight):
                    self._emit_udf_body(udf, mode="lazy_push")

        with self._block():
            self._hoist_csr(edgeset, weight is not None)
            self._instantiate(body)

    def _emit_pull_apply(self, edgeset: str, bucket: str, udf: UDFFacts) -> None:
        out = self.out
        src, dst, weight = udf.src_param, udf.dst_param, udf.weight_param

        def body() -> None:
            self._omp("parallel for schedule(dynamic, 64)")
            with self._block(
                f"for (NodeID {dst} = 0; {dst} < {edgeset}.num_nodes; {dst}++)"
            ):
                with self._out_edges(dst, src, weight):
                    out.line(f"if (!__frontier_map[{src}]) continue;")
                    self._emit_udf_body(udf, mode="lazy_pull")

        with self._block():
            # Run-stamped statics: built once per entry invocation, rebuilt
            # when a later invocation brings a new graph.
            out.line("static WGraph __transposed;")
            out.line("static std::vector<uint8_t> __frontier_map;")
            out.line("static uint64_t __transposed_run = 0;")
            with self._block("if (__transposed_run != __repro_run_id)"):
                out.line(f"__transposed = TransposeGraph({edgeset});")
                out.line(f"__frontier_map.assign({edgeset}.num_nodes, 0);")
                out.line("__transposed_run = __repro_run_id;")
            out.line("std::fill(__frontier_map.begin(), __frontier_map.end(), 0);")
            out.line(f"for (NodeID __v : {bucket}) __frontier_map[__v] = 1;")
            self._hoist_csr("__transposed", weight is not None)
            self._instantiate(body)

    def _emit_histogram_scratch(self) -> None:
        nodes = f"{self.plan.facts.edgeset}.num_nodes"
        self.out.line(f"std::vector<int64_t> __count({nodes}, 0);")
        # One spare slot for the serial count's unconditional store.
        self.out.line(f"std::vector<NodeID> __touched({nodes} + 1);")

    def _emit_histogram_apply(self, edgeset: str, bucket: str) -> None:
        out = self.out
        transformed = self.plan.transformed_udf
        queue = self.queue_name
        applied = f"{transformed.name}(__v, __counts[__v]) != kIntMax"

        def body() -> None:
            out.line("size_t __tail = 0;")
            self._omp("parallel for schedule(dynamic, 64)")
            with self._block(f"for (size_t __i = 0; __i < {bucket}.size(); __i++)"):
                out.line(f"const NodeID __u = {bucket}[__i];")
                with self._out_edges("__u", "__w", None):
                    # The transformed UDF's own ``priority > k`` guard: a
                    # neighbour already peeled is never counted.  Serially
                    # it is a predicated add, the touched store is
                    # unconditional and only the tail advance is predicated.
                    if self._serial:
                        out.line("const int64_t __c = __counts[__w];")
                        out.line("const bool __live = __priority[__w] > __k;")
                        out.line("__counts[__w] = __c + __live;")
                        out.line("__touched_at[__tail] = __w;")
                        out.line("__tail += (__c == 0) & __live;")
                    else:
                        out.line("if (__priority[__w] <= __k) continue;")
                        out.line("if (fetchAdd<false>(&__counts[__w], (int64_t)1) == 0)")
                        out.line("  __touched_at[fetchAdd<false>(&__tail, (size_t)1)] = __w;")
            if self._serial:
                # bufferVertex as a predicated dedup-flag append.
                out.line(f"uint8_t *__flags = {queue}->pending_flags.data();")
                out.line(f"NodeID *__pending = {queue}->pending.data();")
                out.line(f"size_t __pending_tail = {queue}->pending_tail;")
            self._omp("parallel for schedule(dynamic, 64)")
            with self._block("for (size_t __i = 0; __i < __tail; __i++)"):
                out.line("const NodeID __v = __touched_at[__i];")
                if self._serial:
                    out.line(f"const bool __add = ({applied}) & !__flags[__v];")
                    out.line("__pending[__pending_tail] = __v;")
                    out.line("__flags[__v] |= __add;")
                    out.line("__pending_tail += __add;")
                else:
                    out.line(f"if ({applied}) {queue}->bufferVertex<false>(__v);")
                out.line("__counts[__v] = 0;")
            if self._serial:
                out.line(f"{queue}->pending_tail = __pending_tail;")

        with self._block():
            out.line(f"const int64_t __k = {queue}->getCurrentPriority();")
            out.line(f"const int64_t *__priority = {self._pv_name}.data();")
            out.line("int64_t *__counts = __count.data();")
            out.line("NodeID *__touched_at = __touched.data();")
            self._hoist_csr(edgeset, False)
            self._instantiate(body)

    # ------------------------------------------------------------------
    # One region, two instantiations
    # ------------------------------------------------------------------
    def _instantiate(self, emit_body) -> None:
        """Write a region's body once, instantiated twice under a single
        dispatch on the run's thread mode: serial code (every helper
        ``<true>``, no OpenMP construct), then the OpenMP text with the
        parallel atomics (``<false>``)."""
        for head, serial in (("if (gSerial) {", True), ("} else {", False)):
            self.out.line(head)
            self.out.push()
            self._serial = serial
            emit_body()
            self.out.pop()
        self.out.line("}")

    @property
    def _mode(self) -> str:
        """The thread-mode template argument of the instantiation."""
        return "<true>" if self._serial else "<false>"

    def _omp(self, directive: str) -> None:
        """An OpenMP directive, in the parallel instantiation only."""
        if not self._serial:
            self.out.line(f"#pragma omp {directive}")

    @contextmanager
    def _block(self, head: str = ""):
        """``head {`` ... ``}`` around the lines emitted inside."""
        self.out.line(f"{head} {{" if head else "{")
        self.out.push()
        yield
        self.out.pop()
        self.out.line("}")

    def _hoist_csr(self, graph: str, weighted: bool) -> None:
        """The traversed graph's CSR arrays as loop-invariant locals."""
        self.out.line(f"const int64_t *__indptr = {graph}.indptr;")
        self.out.line(f"const NodeID *__indices = {graph}.indices;")
        if weighted:
            self.out.line(f"const WeightT *__weights = {graph}.weights;")

    @contextmanager
    def _out_edges(self, vertex: str, neighbour: str, weight: str | None, csr: str = "__"):
        """A raw ``indptr`` loop over ``vertex``'s edges, binding
        ``neighbour`` (and ``weight``): in the hoisted CSR arrays, or in
        the graph ``csr`` names (``"edges."``)."""
        with self._block(
            f"for (int64_t __e = {csr}indptr[{vertex}]; "
            f"__e < {csr}indptr[{vertex} + 1]; __e++)"
        ):
            self.out.line(f"NodeID {neighbour} = {csr}indices[__e];")
            if weight is not None:
                self.out.line(f"WeightT {weight} = {csr}weights[__e];")
            yield

    # ------------------------------------------------------------------
    # UDF body lowering
    # ------------------------------------------------------------------
    def _emit_udf_body(self, udf: UDFFacts, mode: str) -> None:
        """Inline the UDF with its priority-update operators lowered.

        ``mode`` is ``lazy_push``, ``lazy_pull``, or ``eager``; it selects
        the bucket-update mechanism.  The UDF's race report decides which
        writes are atomic.
        """
        self._races = self.plan.races[udf.name]
        for statement in udf.decl.body:
            self._emit_udf_stmt(statement, mode)

    def _emit_udf_stmt(self, statement: ast.Stmt, mode: str) -> None:
        if isinstance(statement, ast.ExprStmt):
            site = self._races.site_for(statement.expression)
            if site is not None and site.update is not None:
                self._emit_priority_update(site, mode)
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
            site = self._races.site_for(statement)
            if site is not None and site.race_class.value == "unordered_racy":
                self.out.line("// R001: unordered racy write (repro lint)")
            self.out.line(
                f"{self._expr(statement.target)} = "
                f"{self._expr(statement.value)};"
            )
            return
        self._stmt(statement)

    def _emit_priority_update(self, site, mode: str) -> None:
        out = self.out
        update = site.update
        vertex = self._expr(update.vertex_arg)
        # The race analysis decides atomicity per site (no unconditional
        # atomics): CAS/fetch-add only where the write crosses threads under
        # the active schedule.
        atomic = site.race_class.is_atomic
        if update.op in ("min", "max"):
            out.line(f"int64_t __new_value = {self._expr(update.value_arg)};")
            if atomic:
                op = "atomicWriteMin" if update.op == "min" else "atomicWriteMax"
                seed = ""
                if site.cas_seed is not None:
                    # Seed the CAS loop from the old value the UDF already
                    # read (the preserved 3-argument form) instead of an
                    # extra atomic load.
                    seed = f", {self._expr(site.cas_seed)}"
                out.line(
                    f"bool __tracking_var = {op}{self._mode}(&{self._pv_name}[{vertex}], "
                    f"__new_value{seed});"
                )
            else:
                comparison = "<" if update.op == "min" else ">"
                out.line("bool __tracking_var = false;")
                out.line(
                    f"if (__new_value {comparison} {self._pv_name}[{vertex}]) "
                    f"{{ {self._pv_name}[{vertex}] = __new_value; "
                    f"__tracking_var = true; }}"
                )
            self._emit_bucket_routing(vertex, "__new_value", "__tracking_var", mode)
        else:
            diff = self._expr(update.value_arg)
            threshold = (
                self._expr(update.threshold_arg)
                if update.threshold_arg is not None
                else "kIntMax"
            )
            add = f"atomicAddClamped{self._mode}" if atomic else "addClamped"
            out.line(
                f"int64_t __new_value = {add}("
                f"&{self._pv_name}[{vertex}], {diff}, {threshold});"
            )
            out.line("bool __tracking_var = (__new_value != kIntMax);")
            self._emit_bucket_routing(vertex, "__new_value", "__tracking_var", mode)

    def _emit_bucket_routing(
        self, vertex: str, new_value: str, tracking: str, mode: str
    ) -> None:
        out = self.out
        if mode in ("lazy_push", "lazy_pull"):
            out.line(
                f"if ({tracking}) {self.queue_name}->bufferVertex{self._mode}({vertex});"
            )
            return
        # Eager: immediate insertion into this thread's local bins, never
        # below the current one (Figure 9(c), lines 22-26).
        out.line(f"if ({tracking}) {{")
        out.push()
        out.line(f"{self._bin_type} __dest_bin = {self._bin_of(new_value)};")
        out.line("if (__dest_bin < curr_bin_index) __dest_bin = curr_bin_index;")
        if self._dir_lower:
            out.line(
                "if (__dest_bin >= local_bins.size()) "
                "local_bins.resize(__dest_bin + 1);"
            )
        out.line(f"local_bins[__dest_bin].push_back({vertex});")
        out.pop()
        out.line("}")

    # ------------------------------------------------------------------
    # Eager ordered-processing region (Section 5.2, Figure 9(c))
    # ------------------------------------------------------------------
    def _bin_of(self, priority: str) -> str:
        """The eager bin index of a priority: its bucket for lower_first;
        for higher_first its order ``-floorDiv(p, delta)``, which is
        negative and unbounded below."""
        if self._dir_lower:
            return f"(size_t)({priority} / delta)"
        return f"-floorDiv({priority}, delta)"

    def _priority_of(self, bin_index: str) -> str:
        """The lowest priority (in processing order) of a bin."""
        if self._dir_lower:
            return f"(int64_t){bin_index} * delta"
        return f"-{bin_index} * delta"

    def _emit_eager_region(self) -> None:
        """The two-slot shared frontier protocol over thread-local bins.

        lower_first bins are a dense array indexed by bucket with
        ``kMaxBin`` as the no-bucket sentinel; higher_first bins are a
        sorted ``std::map`` keyed by (negative) order, and the next-bucket
        election races on an ``int64_t`` with ``kIntMax`` as the sentinel.
        """
        loop = self.plan.facts.loop
        udf = self.plan.facts.loop_udf
        lower = self._dir_lower
        out = self.out
        edgeset = loop.edgeset_name
        src, dst, weight = udf.src_param, udf.dst_param, udf.weight_param
        start = self._start
        sum_udf = any(access.update.op == "sum" for access in udf.priority_updates)
        index_type, sentinel = self._bin_type, self._bin_sentinel

        def thread_body() -> None:
            if lower:
                out.line("std::vector<std::vector<NodeID>> local_bins(0);")
            else:
                out.line("std::map<int64_t, std::vector<NodeID>> local_bins;")
            if start is None:
                self._emit_eager_prebinning(edgeset)
            out.line("size_t iter = 0;")
            with self._block(f"while (shared_indexes[iter & 1] != {sentinel})"):
                rounds()

        def rounds() -> None:
            out.line(f"{index_type} &curr_bin_index = shared_indexes[iter & 1];")
            out.line(f"{index_type} &next_bin_index = shared_indexes[(iter + 1) & 1];")
            out.line("size_t &curr_frontier_tail = frontier_tails[iter & 1];")
            out.line("size_t &next_frontier_tail = frontier_tails[(iter + 1) & 1];")
            out.line("if (stop_flag) break;")
            out.line(
                f"const int64_t curr_priority = {self._priority_of('curr_bin_index')};"
            )
            out.line("(void)curr_priority;")
            # The relaxation lambda: the transformed UDF writing into this
            # thread's local bins.
            out.line(f"auto relax = [&](NodeID {src}) {{")
            out.push()
            # The global graph, not hoisted locals: a reference the lambda
            # captures would be reloaded through twice after every bin push.
            with self._out_edges(src, dst, weight, csr=f"{edgeset}."):
                out.line(f"(void){dst};")
                self._in_eager_region = True
                self._emit_udf_body(udf, mode="eager")
                self._in_eager_region = False
            out.pop()
            out.line("};")
            self._omp("for nowait schedule(dynamic, 64)")
            with self._block("for (size_t i = 0; i < curr_frontier_tail; i++)"):
                out.line("NodeID u = frontier[i];")
                self._emit_eager_guard(sum_udf)
            if self.schedule.uses_fusion:
                threshold = _schedule_number("bucket_fusion_threshold")
                out.line(
                    "// bucket fusion (Figure 7): drain this thread's current "
                    "local bucket"
                )
                if lower:
                    out.line(
                        f"while (curr_bin_index < local_bins.size() && "
                        f"!local_bins[curr_bin_index].empty() && "
                        f"local_bins[curr_bin_index].size() < {threshold}) {{"
                    )
                    out.push()
                    current = "local_bins[curr_bin_index]"
                else:
                    out.line("while (true) {")
                    out.push()
                    out.line("auto __fuse_it = local_bins.find(curr_bin_index);")
                    out.line(
                        f"if (__fuse_it == local_bins.end() || "
                        f"__fuse_it->second.empty() || "
                        f"__fuse_it->second.size() >= {threshold}) break;"
                    )
                    current = "__fuse_it->second"
                out.line("std::vector<NodeID> fused;")
                out.line(f"fused.swap({current});")
                with self._block("for (NodeID u : fused)"):
                    self._emit_eager_guard(sum_udf)
                out.pop()
                out.line("}")
            # Elect the next bucket: this thread's first non-empty bin at or
            # after the current one.
            if lower:
                with self._block(
                    "for (size_t b = curr_bin_index; b < local_bins.size(); b++)"
                ):
                    out.line(
                        "if (!local_bins[b].empty()) { "
                        f"atomicMin{self._mode}(&next_bin_index, b); break; }}"
                    )
            else:
                with self._block(
                    "for (auto __it = local_bins.lower_bound(curr_bin_index); "
                    "__it != local_bins.end(); ++__it)"
                ):
                    out.line(
                        "if (!__it->second.empty()) { "
                        f"atomicMin{self._mode}(&next_bin_index, __it->first); "
                        "break; }"
                    )
            self._omp("barrier")
            self._omp("single nowait")
            with self._block():
                if loop.stop_condition is not None:
                    out.line(
                        f"if (next_bin_index != {sentinel} && "
                        f"({self._stop_condition_text(loop.stop_condition)})) "
                        "stop_flag = true;"
                    )
                out.line(f"curr_bin_index = {sentinel};")
                out.line("curr_frontier_tail = 0;")
            # Take the elected bin: append this thread's share of it to the
            # next frontier.
            if lower:
                head = (
                    "if (next_bin_index < local_bins.size() && "
                    "!local_bins[next_bin_index].empty())"
                )
                bin_text = "local_bins[next_bin_index]"
            else:
                out.line("auto __next_it = local_bins.find(next_bin_index);")
                head = (
                    "if (__next_it != local_bins.end() && "
                    "!__next_it->second.empty())"
                )
                bin_text = "__next_it->second"
            with self._block(head):
                self._emit_frontier_copy(bin_text, "next_frontier_tail")
                out.line(
                    f"{bin_text}.resize(0);" if lower else "local_bins.erase(__next_it);"
                )
            out.line("iter++;")
            self._omp("barrier")

        def body() -> None:
            if self._serial:
                thread_body()
                return
            self._omp("parallel")
            with self._block():
                thread_body()

        out.line(
            "// --- eager ordered processing operator (Figure 9(c)"
            + ("" if lower else ", higher_first")
            + ") ---"
        )
        with self._block():
            # The shared frontier, |E| + 1 slots per query.  Uninitialised: a
            # slot is read only below a tail that a copy into it advanced.
            out.line(
                f"std::unique_ptr<NodeID[]> frontier("
                f"new NodeID[{edgeset}.num_edges() + 1]);"
            )
            out.line(f"{index_type} shared_indexes[2] = {{{sentinel}, {sentinel}}};")
            out.line("size_t frontier_tails[2] = {0, 0};")
            out.line("bool stop_flag = false;")
            if sum_udf:
                out.line(f"std::vector<uint8_t> processed({edgeset}.num_nodes, 0);")
            if start is not None:
                out.line(f"frontier[0] = {self._expr(start)};")
                out.line("frontier_tails[0] = 1;")
                out.line(
                    "shared_indexes[0] = "
                    f"{self._bin_of(f'{self._pv_name}[{self._expr(start)}]')};"
                )
            self._instantiate(body)

    def _emit_frontier_copy(self, bin_text: str, tail: str) -> None:
        """Append ``bin_text`` to the shared frontier at ``tail``."""
        self.out.line(
            f"size_t copy_start = fetchAdd{self._mode}(&{tail}, {bin_text}.size());"
        )
        self.out.line(
            f"std::copy({bin_text}.begin(), {bin_text}.end(), "
            "frontier.get() + copy_start);"
        )

    def _emit_eager_prebinning(self, edgeset: str) -> None:
        """k-core style initialization: every tracked vertex starts in a
        thread-local bucket for its initial priority."""
        out = self.out
        self._omp("for nowait")
        with self._block(f"for (NodeID v = 0; v < {edgeset}.num_nodes; v++)"):
            out.line(f"if ({self._pv_name}[v] == kIntMax) continue;")
            out.line(f"size_t b = (size_t)({self._pv_name}[v] / delta);")
            out.line("if (b >= local_bins.size()) local_bins.resize(b + 1);")
            out.line("local_bins[b].push_back(v);")
        with self._block("for (size_t b = 0; b < local_bins.size(); b++)"):
            out.line(
                "if (!local_bins[b].empty()) { "
                f"atomicMin{self._mode}(&shared_indexes[0], b); break; }}"
            )
        self._omp("barrier")
        first = "local_bins[shared_indexes[0]]"
        with self._block(
            "if (shared_indexes[0] != kMaxBin && "
            f"shared_indexes[0] < local_bins.size() && !{first}.empty())"
        ):
            self._emit_frontier_copy(first, "frontier_tails[0]")
            out.line(f"{first}.resize(0);")
        self._omp("barrier")

    def _emit_eager_guard(self, sum_udf: bool) -> None:
        """The stale-entry guard before relaxing a popped vertex."""
        priority = f"{self._pv_name}[u]"
        if sum_udf:
            # Strict ordering with peel-once semantics (k-core).
            bin_index, current = (
                (f"{priority} / delta", "(int64_t)curr_bin_index")
                if self._dir_lower
                else (self._bin_of(priority), "curr_bin_index")
            )
            self.out.line(
                f"if ({bin_index} == {current} "
                f"&& CASByte{self._mode}(&processed[u], 0, 1)) relax(u);"
            )
        elif self._dir_lower:
            # The GAPBS check: still in the current (or a later) bucket.
            self.out.line(
                f"if ({priority} >= delta * (int64_t)curr_bin_index) relax(u);"
            )
        else:
            self.out.line(
                f"if ({self._bin_of(priority)} >= curr_bin_index) relax(u);"
            )

    def _stop_condition_text(self, condition: ast.Expr) -> str:
        """Translate the early-exit condition for the eager region, where
        ``getCurrentPriority`` means the bin about to be processed."""
        saved = self._in_eager_region
        self._in_eager_region = False
        try:
            return self._expr(condition).replace(
                "__CURRENT_PRIORITY__", f"({self._priority_of('next_bin_index')})"
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
                # argv[1], the graph path, is subsumed by the CSR arrays;
                # the integer arguments argv[2:] arrive as args[0:].
                return f"__repro_args[({self._expr(expression.index)}) - 2]"
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
        if name == "load":
            raise CompileError(
                "load(...) outside the edgeset initializer is not supported "
                "by the native backend"
            )
        if name == "atoi":
            # argv slots are already int64 in the ABI's args array.
            return self._expr(expression.arguments[0])
        arguments = ", ".join(self._expr(a) for a in expression.arguments)
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
            and receiver_node.identifier in self.plan.facts.queue_names
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
