"""AST node definitions and visitor infrastructure.

Nodes are plain dataclasses carrying their source line for diagnostics.
:class:`NodeVisitor` dispatches on node class name (``visit_While`` etc.),
with a ``generic_visit`` that walks children — the pattern the midend
analyses and transforms are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Any

from .span import Span
from .types import Type

__all__ = [
    "Node",
    "Expr",
    "Stmt",
    # Expressions
    "IntLiteral",
    "FloatLiteral",
    "BoolLiteral",
    "StringLiteral",
    "Name",
    "BinaryOp",
    "UnaryOp",
    "Call",
    "MethodCall",
    "Index",
    "New",
    # Statements
    "VarDecl",
    "Assign",
    "ExprStmt",
    "While",
    "If",
    "For",
    "Print",
    "Delete",
    "Return",
    # Declarations
    "ElementDecl",
    "ConstDecl",
    "FuncDecl",
    "ExternFuncDecl",
    "ScheduleStmt",
    "Program",
    # Visitors
    "NodeVisitor",
    "walk",
]


@dataclass
class Node:
    """Base AST node; every node records its source line and column."""

    line: int = field(default=0, kw_only=True)
    column: int = field(default=0, kw_only=True)

    @property
    def span(self) -> Span:
        """The (point) source span where this node begins."""
        return Span.from_node(self)


@dataclass
class Expr(Node):
    pass


@dataclass
class Stmt(Node):
    label: str | None = field(default=None, kw_only=True)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class FloatLiteral(Expr):
    value: float


@dataclass
class BoolLiteral(Expr):
    value: bool


@dataclass
class StringLiteral(Expr):
    value: str


@dataclass
class Name(Expr):
    identifier: str


@dataclass
class BinaryOp(Expr):
    operator: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    operator: str
    operand: Expr


@dataclass
class Call(Expr):
    function: str
    arguments: list[Expr]


@dataclass
class MethodCall(Expr):
    receiver: Expr
    method: str
    arguments: list[Expr]


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class New(Expr):
    type: Type
    arguments: list[Expr]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass
class VarDecl(Stmt):
    name: str
    declared_type: Type
    initializer: Expr | None = None


@dataclass
class Assign(Stmt):
    target: Expr  # Name or Index
    value: Expr


@dataclass
class ExprStmt(Stmt):
    expression: Expr


@dataclass
class While(Stmt):
    condition: Expr
    body: list[Stmt]


@dataclass
class If(Stmt):
    condition: Expr
    then_body: list[Stmt]
    else_body: list[Stmt]


@dataclass
class For(Stmt):
    variable: str
    start: Expr
    stop: Expr
    body: list[Stmt]


@dataclass
class Print(Stmt):
    expression: Expr


@dataclass
class Delete(Stmt):
    name: str


@dataclass
class Return(Stmt):
    value: Expr | None = None


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
@dataclass
class ElementDecl(Node):
    name: str


@dataclass
class ConstDecl(Node):
    name: str
    declared_type: Type
    initializer: Expr | None = None


@dataclass
class FuncDecl(Node):
    name: str
    parameters: list[tuple[str, Type]]
    result: tuple[str, Type] | None
    body: list[Stmt]


@dataclass
class ExternFuncDecl(Node):
    name: str


@dataclass
class ScheduleStmt(Node):
    """One ``program->command("label", arg)`` link of the schedule chain."""

    command: str
    arguments: list[str]


@dataclass
class Program(Node):
    elements: list[ElementDecl]
    constants: list[ConstDecl]
    functions: list[FuncDecl]
    externs: list[ExternFuncDecl]
    schedule: list[ScheduleStmt]
    source_file: str | None = field(default=None, kw_only=True)

    def function(self, name: str) -> FuncDecl | None:
        for func in self.functions:
            if func.name == name:
                return func
        return None

    def constant(self, name: str) -> ConstDecl | None:
        for const in self.constants:
            if const.name == name:
                return const
        return None


# ----------------------------------------------------------------------
# Visitor infrastructure
# ----------------------------------------------------------------------
@cache
def _field_names(node_class: type) -> tuple[str, ...]:
    # ``dataclasses.fields`` is too slow to call once per visited node.
    return tuple(f.name for f in fields(node_class))


def _child_nodes(node: Node):
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node):
    """Yield ``node`` and all descendants in pre-order."""
    yield node
    for child in _child_nodes(node):
        yield from walk(child)


class NodeVisitor:
    """Dispatch by node class name; ``generic_visit`` recurses into children."""

    def visit(self, node: Node) -> Any:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node) -> Any:
        for child in _child_nodes(node):
            self.visit(child)
        return None
