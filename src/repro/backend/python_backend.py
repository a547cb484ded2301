"""Python code generator.

Translates a type-checked program (via its
:class:`~repro.midend.transforms.lowering.CompilationPlan`) into the source
of a Python module with a single ``program(ctx)`` entry point running
against :mod:`repro.backend.runtime_support`.

The structural decisions mirror the paper's compiler:

- Under the **lazy** schedules the user's while loop survives verbatim; the
  ``applyUpdatePriority`` statement lowers to the runtime's apply operator
  (push or pull per the schedule), and under **lazy_constant_sum** the UDF is
  replaced by the generated Figure 10 transformed function and the apply
  lowers to the histogram operator.
- Under the **eager** schedules the entire recognized while loop is replaced
  by one call to the ordered processing operator, carrying the early-exit
  condition (PPSP/A*) as a lambda and the fusion threshold when scheduled.
"""

from __future__ import annotations

from ..errors import CompileError
from ..lang import ast_nodes as ast
from ..lang.types import BOOL, FLOAT, INT, STRING, PriorityQueueType, Type, VectorType
from ..midend.analysis.effects import runtime_summary
from ..midend.transforms.lowering import CompilationPlan

__all__ = ["generate_python"]

_HEADER = '''\
"""Generated by repro.backend.python_backend — do not edit.

schedule: {schedule}
"""

import numpy as np

from repro.graph.properties import INT_MAX


def program(ctx):
'''


def generate_python(plan: CompilationPlan) -> str:
    """Generate the Python module source for ``plan``."""
    return _PythonEmitter(plan).emit()


class _Emitter:
    """Minimal indented source builder."""

    def __init__(self, indent: str = "    "):
        self._lines: list[str] = []
        self._indent = indent
        self._level = 0

    def line(self, text: str = "") -> None:
        if text:
            self._lines.append(self._indent * self._level + text)
        else:
            self._lines.append("")

    def push(self) -> None:
        self._level += 1

    def pop(self) -> None:
        self._level -= 1

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


class _PythonEmitter(ast.NodeVisitor):
    def __init__(self, plan: CompilationPlan):
        self.plan = plan
        self.program = plan.program
        self.schedule = plan.schedule
        self.out = _Emitter()
        self.globals = {const.name for const in self.program.constants}
        self.extern_names = {extern.name for extern in self.program.externs}
        self.function_names = {func.name for func in self.program.functions}
        self._current_function: str | None = None

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def emit(self) -> str:
        self.out._lines.append(_HEADER.format(schedule=self.schedule).rstrip("\n"))
        self.out.push()
        for const in self.program.constants:
            self.out.line(self._const_initializer(const))
        publish = ", ".join(
            f"{const.name!r}: {const.name}" for const in self.program.constants
        )
        # Published before main so extern functions can reach the program's
        # vectors (ctx.globals) and queues (ctx.queues) during execution.
        self.out.line(f"ctx.globals.update({{{publish}}})")
        for races in self.plan.races.values():
            # Embed the midend's race classification of every apply UDF;
            # the context asserts it against the schedule it actually
            # executes under and refuses unordered racy writes (R001).
            self.out.line(
                f"ctx.declare_race_report(udf={races.udf_name!r}, "
                f"direction={races.direction!r}, "
                f"parallelization={races.parallelization!r}, "
                f"sites={races.summary()!r})"
            )
        # Embed the effect analysis's runtime projection (per-UDF
        # read/write/index contracts); the schedule sanitizer replays
        # every dynamic vector access against it.
        summary = runtime_summary(self.plan.facts, self.schedule.direction)
        self.out.line(f"ctx.declare_effect_summary({summary!r})")
        # Embed the execution mode the module was compiled under; the
        # context refuses to run it under a different engine (serial vs
        # real worker threads) without recompiling.
        self.out.line(
            f"ctx.declare_execution({self.schedule.execution!r})"
        )
        self.out.line()
        for func in self.program.functions:
            if func.name == "main":
                continue
            self._emit_function(func)
        if self.plan.transformed_udf is not None:
            self._emit_function(self.plan.transformed_udf)
        main = self.program.function("main")
        if main is None:
            raise CompileError("program has no main function")
        self._emit_function(main)
        self.out.line("main()")
        result_entries = ", ".join(
            f"{name!r}: {name}" for name in sorted(self.globals)
        )
        self.out.line(f"return {{{result_entries}}}")
        self.out.pop()
        return self.out.text()

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _const_initializer(self, const: ast.ConstDecl) -> str:
        declared = const.declared_type
        if const.initializer is None:
            return f"{const.name} = None"
        if isinstance(declared, VectorType):
            init = const.initializer
            if isinstance(init, ast.MethodCall) and init.method == "getOutDegrees":
                receiver = self._expr(init.receiver)
                return f"{const.name} = ctx.out_degrees({receiver})"
            if self._is_scalar_expr(init):
                edgeset = self.plan.facts.edgeset
                if edgeset is None:
                    raise CompileError(
                        "vector declaration needs an edgeset to size from"
                    )
                resume = ", resume=True" if const.name == self.plan.resume_vector else ""
                return (
                    f"{const.name} = ctx.vector({edgeset}, "
                    f"{self._expr(init)}{resume})"
                )
        return f"{const.name} = {self._expr(const.initializer)}"

    def _is_scalar_expr(self, expression: ast.Expr) -> bool:
        return isinstance(
            expression, (ast.IntLiteral, ast.FloatLiteral, ast.BoolLiteral, ast.Name)
        )

    def _emit_function(self, func: ast.FuncDecl) -> None:
        parameters = ", ".join(name for name, _ in func.parameters)
        self.out.line(f"def {func.name}({parameters}):")
        self.out.push()
        rebound = self.plan.facts.rebinds.get(func.name)
        if rebound:
            self.out.line(f"nonlocal {', '.join(rebound)}")
        if func.result is not None:
            result_name, result_type = func.result
            self.out.line(f"{result_name} = {self._default_value(result_type)}")
        if not func.body and func.result is None:
            self.out.line("pass")
        self._current_function = func.name
        for statement in func.body:
            self._stmt(statement)
        self._current_function = None
        if func.result is not None:
            self.out.line(f"return {func.result[0]}")
        self.out.pop()
        self.out.line()

    @staticmethod
    def _default_value(declared: Type) -> str:
        if declared == INT:
            return "0"
        if declared == FLOAT:
            return "0.0"
        if declared == BOOL:
            return "False"
        if declared == STRING:
            return '""'
        return "None"

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _stmt(self, statement: ast.Stmt) -> None:
        if isinstance(statement, ast.While):
            if (
                self.plan.facts.loop is not None
                and statement is self.plan.facts.loop.while_stmt
                and self.schedule.is_eager
            ):
                self._emit_eager_replacement()
                return
            self.out.line(f"while {self._expr(statement.condition)}:")
            self.out.push()
            self._body(statement.body)
            self.out.pop()
        elif isinstance(statement, ast.VarDecl):
            if statement.initializer is None:
                self.out.line(
                    f"{statement.name} = "
                    f"{self._default_value(statement.declared_type)}"
                )
            else:
                self.out.line(
                    f"{statement.name} = {self._expr(statement.initializer)}"
                )
        elif isinstance(statement, ast.Assign):
            self.out.line(
                f"{self._expr(statement.target)} = {self._expr(statement.value)}"
            )
        elif isinstance(statement, ast.ExprStmt):
            lowered = self._lower_apply(statement.expression)
            if lowered is not None:
                self.out.line(lowered)
            else:
                self.out.line(self._expr(statement.expression))
        elif isinstance(statement, ast.If):
            self.out.line(f"if {self._expr(statement.condition)}:")
            self.out.push()
            self._body(statement.then_body)
            self.out.pop()
            if statement.else_body:
                self.out.line("else:")
                self.out.push()
                self._body(statement.else_body)
                self.out.pop()
        elif isinstance(statement, ast.For):
            self.out.line(
                f"for {statement.variable} in range("
                f"{self._expr(statement.start)}, {self._expr(statement.stop)}):"
            )
            self.out.push()
            self._body(statement.body)
            self.out.pop()
        elif isinstance(statement, ast.Print):
            self.out.line(f"print({self._expr(statement.expression)})")
        elif isinstance(statement, ast.Delete):
            self.out.line(f"del {statement.name}")
        elif isinstance(statement, ast.Return):
            if statement.value is None:
                self.out.line("return")
            else:
                self.out.line(f"return {self._expr(statement.value)}")
        else:  # pragma: no cover - parser produces no other statements
            raise CompileError(f"cannot generate {type(statement).__name__}")

    def _body(self, body: list[ast.Stmt]) -> None:
        if not body:
            self.out.line("pass")
            return
        for statement in body:
            self._stmt(statement)

    # ------------------------------------------------------------------
    # applyUpdatePriority lowering (lazy path)
    # ------------------------------------------------------------------
    def _lower_apply(self, expression: ast.Expr) -> str | None:
        if not (
            isinstance(expression, ast.MethodCall)
            and expression.method in ("applyUpdatePriority", "apply")
        ):
            return None
        # ``edges.apply(udf)`` or ``edges.from(bucket).apply*(udf)``, as
        # the planner checked.
        chain = expression.receiver
        udf_name = expression.arguments[0].identifier
        if isinstance(chain, ast.Name):
            # Whole-edgeset unordered apply (original GraphIt): no frontier,
            # no priority queue involvement.
            return f"ctx.apply_edges({chain.identifier}, {udf_name})"
        edgeset = chain.receiver.identifier
        bucket = self._expr(chain.arguments[0])
        queue = self.plan.queue.name
        if self.schedule.uses_histogram:
            return (
                f"ctx.apply_update_priority_histogram({edgeset}, {bucket}, "
                f"{self.plan.transformed_udf.name}, {queue}"
                f"{self._kernel_arg(udf_name)})"
            )
        return (
            f"ctx.apply_update_priority({edgeset}, {bucket}, {udf_name}, "
            f"{queue}{self._kernel_arg(udf_name)})"
        )

    def _kernel_arg(self, udf_name: str) -> str:
        """The trailing ``, kernel=dict(...)`` batch-kernel descriptor.

        Vectorizable UDFs (per the midend's vectorization analysis) carry a
        descriptor whose batch expressions are lambdas closing over the
        generated module's vectors and scalars; non-vectorizable UDFs emit
        nothing and the runtime stays on the scalar interpreter.
        """
        report = self.plan.kernels.get(udf_name)
        if report is None or report.kernel is None:
            return ""
        kernel = report.kernel
        if kernel.kind in ("sum_const", "sum_hist"):
            return (
                f", kernel=dict(kind={kernel.kind!r}, "
                f"constant={kernel.constant})"
            )
        parts = [
            f"kind={kernel.kind!r}",
            f"value=lambda src, dst, weight, k_cur: {kernel.value}",
        ]
        if kernel.kind == "guarded_write_min":
            parts.append(f"aux=lambda: {kernel.aux}")
            parts.append(f"priority=lambda dst, k_cur, new_val: {kernel.priority}")
        return ", kernel=dict(" + ", ".join(parts) + ")"

    # ------------------------------------------------------------------
    # Eager transform (Section 5.2)
    # ------------------------------------------------------------------
    def _emit_eager_replacement(self) -> None:
        loop = self.plan.facts.loop
        threshold = (
            self.schedule.bucket_fusion_threshold if self.schedule.uses_fusion else 0
        )
        stop = "None"
        if loop.stop_condition is not None:
            stop = f"lambda: bool({self._expr(loop.stop_condition)})"
        self.out.line(
            f"ctx.ordered_process_eager({loop.edgeset_name}, {loop.queue_name}, "
            f"{loop.udf_name}, stop_condition={stop}, "
            f"fusion_threshold={threshold}{self._kernel_arg(loop.udf_name)})"
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _expr(self, expression: ast.Expr) -> str:
        if isinstance(expression, ast.IntLiteral):
            return repr(expression.value)
        if isinstance(expression, ast.FloatLiteral):
            return repr(expression.value)
        if isinstance(expression, ast.BoolLiteral):
            return "True" if expression.value else "False"
        if isinstance(expression, ast.StringLiteral):
            return repr(expression.value)
        if isinstance(expression, ast.Name):
            if expression.identifier == "argv":
                return "ctx.argv"
            return expression.identifier
        if isinstance(expression, ast.BinaryOp):
            return self._binary(expression)
        if isinstance(expression, ast.UnaryOp):
            operator = "not " if expression.operator == "not" else "-"
            return f"({operator}{self._expr(expression.operand)})"
        if isinstance(expression, ast.Index):
            # pq.priorityVector()[v] (from the transformed UDF) renders as
            # an attribute access.
            base = expression.base
            if isinstance(base, ast.MethodCall) and base.method == "priorityVector":
                receiver = self._expr(base.receiver)
                return f"{receiver}.priority_vector[{self._expr(expression.index)}]"
            return f"{self._expr(base)}[{self._expr(expression.index)}]"
        if isinstance(expression, ast.Call):
            return self._call(expression)
        if isinstance(expression, ast.MethodCall):
            return self._method_call(expression)
        if isinstance(expression, ast.New):
            return self._new(expression)
        raise CompileError(  # pragma: no cover
            f"cannot generate expression {type(expression).__name__}"
        )

    def _binary(self, expression: ast.BinaryOp) -> str:
        left = self._expr(expression.left)
        right = self._expr(expression.right)
        operator = expression.operator
        if operator == "/":
            return f"ctx.div({left}, {right})"
        return f"({left} {operator} {right})"

    def _call(self, expression: ast.Call) -> str:
        name = expression.function
        arguments = ", ".join(self._expr(a) for a in expression.arguments)
        if name == "load":
            return f"ctx.load({arguments})"
        if name == "atoi":
            return f"ctx.atoi({arguments})"
        if name in ("max", "min"):
            return f"{name}({arguments})"
        if name in self.extern_names:
            prefix = f"{name!r}, " if arguments else f"{name!r}"
            return f"ctx.call_extern({prefix}{arguments})"
        if name in self.function_names:
            return f"{name}({arguments})"
        raise CompileError(f"call to unknown function {name!r}")

    def _method_call(self, expression: ast.MethodCall) -> str:
        receiver = self._expr(expression.receiver)
        method = expression.method
        arguments = [self._expr(a) for a in expression.arguments]
        if method == "finished":
            return f"{receiver}.finished()"
        if method == "finishedVertex":
            return f"{receiver}.finished_vertex({arguments[0]})"
        if method == "dequeueReadySet":
            return f"{receiver}.dequeue_ready_set()"
        if method in ("getCurrentPriority", "get_current_priority"):
            return f"{receiver}.get_current_priority()"
        if method == "priorityVector":
            return f"{receiver}.priority_vector"
        if method in ("updatePriorityMin", "updatePriorityMax"):
            runtime = (
                "update_priority_min"
                if method == "updatePriorityMin"
                else "update_priority_max"
            )
            vertex = arguments[0]
            new_value = arguments[-1]  # drop the optional old-value argument
            return f"{receiver}.{runtime}({vertex}, {new_value})"
        if method == "updatePrioritySum":
            vertex, diff = arguments[0], arguments[1]
            threshold = arguments[2] if len(arguments) > 2 else "None"
            return f"{receiver}.update_priority_sum({vertex}, {diff}, {threshold})"
        if method == "getOutDegrees":
            return f"ctx.out_degrees({receiver})"
        if method in ("size", "getVertexSetSize"):
            return f"int({receiver}.size)"
        raise CompileError(f"cannot generate method call {method!r}")

    def _new(self, expression: ast.New) -> str:
        if isinstance(expression.type, PriorityQueueType):
            # (allow_coarsening, direction, priority_vector[, start_vertex]),
            # as the planner checked; no start vertex means every vertex.
            rendered = [self._expr(a) for a in expression.arguments] + ["-1"]
            return f"ctx.new_priority_queue({', '.join(rendered[:4])})"
        raise CompileError(f"cannot construct type {expression.type}")
