"""Shared-library variant of the C++ backend: the stable native ABI.

Subclasses the standalone-``main`` C++ emitter to produce a translation unit
exporting one ``extern "C"`` entry point instead::

    int64_t repro_native_run(
        const int64_t *indptr, const int64_t *indices,
        const int64_t *weights, int64_t num_nodes, int64_t num_edges,
        const int64_t *args, int64_t num_args,
        int64_t **out_vectors, int64_t num_out_vectors,
        const int64_t *params, int64_t num_params);

- The graph arrives as *borrowed* CSR arrays (``WGraph::Borrow`` — the
  runner passes numpy buffers straight through ctypes, zero copies).
- ``args`` carries the integer program arguments (``atoi(argv[k])`` lowers
  to ``args[k - 2]``; ``argv[1]``, the graph path, is subsumed by the CSR
  arrays).
- Every global vector constant becomes an ``OutVec`` view bound to a
  caller-allocated buffer in declaration order, so all writes land directly
  in the caller's numpy arrays — no output marshalling either.
- ``params`` is the run-parameter block, :data:`RUN_PARAMETERS` in order:
  ``num_threads``, ``delta``, ``bucket_fusion_threshold``, ``num_buckets``.
  These schedule numbers are read at run time, never written into the
  text, and the ``// schedule:`` header names only the fields that shape
  the code (:data:`CODE_SHAPE_FIELDS`).  So the kernel, and the cache key
  that hashes its text, is one per (program, strategy, direction): a Δ
  sweep builds once.
- Returns 0 on success; 2/3/4 signal an out-buffer / argument /
  run-parameter arity mismatch (defense against a stale cached kernel
  meeting a newer runner).

Companion exports ``repro_native_abi_version``, ``repro_native_num_outputs``
and ``repro_native_num_args_required`` let the runner validate a kernel
before calling it.  The whole-program effect summary is embedded as a
deterministic JSON comment: native execution is refused upstream for
programs the effect analysis cannot summarize, and the embedding makes the
analysis version part of the kernel-cache key.
"""

from __future__ import annotations

import json

from ...errors import CompileError
from ...lang import ast_nodes as ast
from ...lang.types import (
    EdgeSetType,
    PriorityQueueType,
    VectorType,
)
from ...midend.transforms.lowering import CompilationPlan
from ..cpp_backend import PARALLEL_FOR, _CppEmitter
from ..cpp_runtime import native_runtime

__all__ = ["ABI_VERSION", "RUN_PARAMETERS", "generate_native_cpp"]

ABI_VERSION = 2

#: The run-parameter block, in ABI order: Schedule fields passed per call.
RUN_PARAMETERS = ("num_threads", "delta", "bucket_fusion_threshold", "num_buckets")

#: The Schedule fields that change the kernel's code, and so its cache key.
#: Every other field is a run parameter or is refused natively.
CODE_SHAPE_FIELDS = ("priority_update", "direction")

# Native-only runtime support appended after the shared embedded runtime.
NATIVE_SUPPORT = r"""
// ---- native ABI support --------------------------------------------------
#ifdef _OPENMP
#include <omp.h>
#endif

// A vector *view* over a caller-owned output buffer: global vector
// constants bind to these so every priority/result write lands directly in
// the caller's numpy array (zero-copy outputs).  Capacity is the graph's
// vertex count, guaranteed by the runner.
struct OutVec {
  int64_t *ptr = nullptr;
  size_t n = 0;

  void bind(int64_t *p, int64_t size) { ptr = p; n = (size_t)size; }
  size_t size() const { return n; }
  int64_t *data() { return ptr; }
  const int64_t *data() const { return ptr; }
  int64_t &operator[](size_t i) { return ptr[i]; }
  const int64_t &operator[](size_t i) const { return ptr[i]; }

  void assign(int64_t size, int64_t value) {
    n = (size_t)size;
    for (size_t i = 0; i < n; i++) ptr[i] = value;
  }

  OutVec &operator=(const std::vector<int64_t> &values) {
    n = values.size();
    for (size_t i = 0; i < n; i++) ptr[i] = values[i];
    return *this;
  }
};
// ---- end native ABI support ----------------------------------------------
"""


def generate_native_cpp(plan: CompilationPlan) -> str:
    """Generate shared-library C++ source for ``plan``."""
    return _NativeEmitter(plan).emit()


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


class _NativeEmitter(_CppEmitter):
    """The C++ emitter retargeted at the stable shared-library ABI."""

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def emit(self) -> str:
        out = self.out
        out.line("// Generated by repro.backend.native.abi — do not edit.")
        shown = ", ".join(
            f"{name}={getattr(self.schedule, name)!r}"
            for name in CODE_SHAPE_FIELDS
        )
        out.line(f"// schedule: {shown}")
        out.line(f"// abi_version: {ABI_VERSION}")
        self._emit_effect_summary_comment()
        out._lines.append(
            native_runtime(
                # The higher_first eager region bins into a std::map.
                uses_map=self.schedule.is_eager and not self._dir_lower,
                uses_print=any(
                    isinstance(node, ast.Print)
                    for function in self.program.functions
                    for node in ast.walk(function)
                ),
            )
        )
        out._lines.append(NATIVE_SUPPORT)
        self._emit_globals()
        self._emit_functions()
        self._emit_entry()
        return out.text()

    def _emit_effect_summary_comment(self) -> None:
        effects = self.plan.effects
        if effects is None:
            raise CompileError(
                "native code generation requires a whole-program effect "
                "summary; this program is unanalyzable"
            )
        summary = json.dumps(
            _jsonable(effects.runtime_summary()), sort_keys=True
        )
        self.out.line(f"// effect_summary: {summary}")

    def _schedule_number(self, name: str) -> str:
        return "delta" if name == "delta" else f"__repro_{name}"

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
            else:
                out.line(
                    f"{self._cpp_type(declared)} {const.name}"
                    f"{self._global_scalar_init(const)};"
                )
        # Run parameters other than the thread count: set on every entry.
        for name in RUN_PARAMETERS[1:]:
            out.line(f"int64_t {self._schedule_number(name)} = 0;")
        # Run stamp: lets per-call-site statics (e.g. the pull-direction
        # transpose) invalidate between entry invocations on new graphs.
        out.line("uint64_t __repro_run_id = 0;")
        out.line()

    # ------------------------------------------------------------------
    # The extern "C" entry point (replaces main)
    # ------------------------------------------------------------------
    def _required_args(self) -> int:
        """How many integer arguments (argv[2:]) the program reads."""
        main = self.program.function("main")
        highest = 1
        for node in ast.walk(main):
            if (
                isinstance(node, ast.Index)
                and isinstance(node.base, ast.Name)
                and node.base.identifier == "argv"
                and isinstance(node.index, ast.IntLiteral)
            ):
                highest = max(highest, node.index.value)
        return highest - 1

    def _emit_entry(self) -> None:
        main = self.program.function("main")
        if main is None:
            raise CompileError("program has no main function")
        out = self.out
        num_outputs = len(self.vector_names)
        required_args = self._required_args()
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
            out.line(f"{self._schedule_number(name)} = __repro_params[{index}];")
        out.line("#ifdef _OPENMP")
        out.line(
            "if (__repro_num_threads > 0) "
            "omp_set_num_threads((int)__repro_num_threads);"
        )
        out.line("#endif")
        out.line("(void)__repro_num_threads;")
        out.line("detectSerial();")
        self._emit_entry_reset()
        for index, name in enumerate(self.vector_names):
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
    # Pull direction: run-stamped statics instead of once-per-process
    # ------------------------------------------------------------------
    def _emit_pull_apply(self, edgeset: str, bucket: str, udf) -> None:
        out = self.out
        src, dst, weight = self._udf_param_names(udf)
        out.line("{")
        out.push()
        out.line("static WGraph __transposed;")
        out.line("static std::vector<uint8_t> __frontier_map;")
        out.line("static uint64_t __transposed_run = 0;")
        out.line("if (__transposed_run != __repro_run_id) {")
        out.push()
        out.line(f"__transposed = TransposeGraph({edgeset});")
        out.line(f"__frontier_map.assign({edgeset}.num_nodes, 0);")
        out.line("__transposed_run = __repro_run_id;")
        out.pop()
        out.line("}")
        out.line(
            "std::fill(__frontier_map.begin(), __frontier_map.end(), 0);"
        )
        out.line(f"for (NodeID __v : {bucket}) __frontier_map[__v] = 1;")
        out.line(PARALLEL_FOR)
        out.line(
            f"for (NodeID {dst} = 0; {dst} < {edgeset}.num_nodes; {dst}++) {{"
        )
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

    # ------------------------------------------------------------------
    # Expressions: argv / load lower onto the ABI parameters
    # ------------------------------------------------------------------
    def _expr(self, expression: ast.Expr) -> str:
        if (
            isinstance(expression, ast.Index)
            and isinstance(expression.base, ast.Name)
            and expression.base.identifier == "argv"
        ):
            return f"__repro_args[({self._expr(expression.index)}) - 2]"
        return super()._expr(expression)

    def _call(self, expression: ast.Call) -> str:
        if expression.function == "load":
            # The graph arrives through the ABI; the path argument (argv[1])
            # is subsumed by the borrowed CSR arrays.
            raise CompileError(
                "load(...) outside the edgeset initializer is not supported "
                "by the native backend"
            )
        if expression.function == "atoi":
            # argv slots are already int64 in the ABI's args array.
            return self._expr(expression.arguments[0])
        return super()._call(expression)
