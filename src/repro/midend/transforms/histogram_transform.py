"""The constant-sum (histogram) UDF transformation — Figure 10.

Given a UDF that qualifies per
:attr:`~repro.midend.analysis.facts.UDFFacts.constant_sum`, build the
transformed function the compiler substitutes: a function of
``(vertex, count)`` that applies all of a round's updates to one vertex at
once,

    def apply_f_transformed(vertex, count):
        k = pq.getCurrentPriority()
        priority = pq.priority_vector[vertex]
        if priority > k:
            new_pri = max(priority + constant * count, k)
            pq.priority_vector[vertex] = new_pri
            <rebucket vertex at new_pri>

The transform is expressed as AST construction so both backends render it in
their own syntax and tests can inspect the structure directly.
"""

from __future__ import annotations

from ...lang import ast_nodes as ast
from ...lang.types import INT, ElementType
from ..analysis.facts import ConstantSumInfo

__all__ = ["build_transformed_udf", "TRANSFORMED_SUFFIX"]

TRANSFORMED_SUFFIX = "_transformed"


def build_transformed_udf(
    func: ast.FuncDecl, info: ConstantSumInfo
) -> ast.FuncDecl:
    """Build the Figure 10 transformed function as an AST.

    The result takes ``(vertex, count)`` and contains, in order: the current
    priority read, the priority load, the guard, the clamped update, and the
    write-back.  The re-bucketing side effect is implicit in the priority
    write (both backends route it through the queue's bucket-update call).
    """
    queue = info.update.queue_name
    vertex = ast.Name("vertex")
    count = ast.Name("count")

    current_priority = ast.MethodCall(ast.Name(queue), "getCurrentPriority", [])
    read_k = ast.VarDecl("k", INT, current_priority)

    priority_load = ast.Index(
        ast.MethodCall(ast.Name(queue), "priorityVector", []), vertex
    )
    read_priority = ast.VarDecl("priority", INT, priority_load)

    guard = ast.BinaryOp(">", ast.Name("priority"), ast.Name("k"))
    # max(priority + constant * count, k) — "max" because the paper's k-core
    # constant is negative; for a positive constant the clamp is a min.
    combined = ast.BinaryOp(
        "+",
        ast.Name("priority"),
        ast.BinaryOp("*", ast.IntLiteral(info.constant), count),
    )
    clamp_function = "max" if info.constant < 0 else "min"
    clamped = ast.Call(clamp_function, [combined, ast.Name("k")])
    new_priority = ast.VarDecl("new_pri", INT, clamped)
    write_back = ast.Assign(
        ast.Index(ast.MethodCall(ast.Name(queue), "priorityVector", []), vertex),
        ast.Name("new_pri"),
    )
    # Figure 10 returns wrap(vertex, get_bucket(new_pri)) — the changed
    # vertex and its destination bucket.  Returning the new priority plays
    # that role here: the caller re-buckets every vertex with a non-null
    # return.
    report_change = ast.Return(ast.Name("new_pri"))
    guarded = ast.If(guard, [new_priority, write_back, report_change], [])

    return ast.FuncDecl(
        name=func.name + TRANSFORMED_SUFFIX,
        parameters=[("vertex", ElementType("Vertex")), ("count", INT)],
        result=None,
        body=[read_k, read_priority, guarded],
        line=func.line,
    )
