"""Tests for the AST visitor/transformer infrastructure and small frontend
pieces the analyses are built on."""

from repro.lang import ALL_PROGRAMS, parse
from repro.lang import ast_nodes as ast
from repro.lang.symbols import Scope
from repro.lang.types import INT, ElementType


class TestWalk:
    def test_walk_preorder(self):
        program = parse(ALL_PROGRAMS["sssp"])
        nodes = list(ast.walk(program))
        assert nodes[0] is program
        # Declarations come before their bodies' expressions.
        kinds = [type(n).__name__ for n in nodes]
        assert kinds.index("FuncDecl") < kinds.index("MethodCall")

    def test_walk_counts_every_update_call(self):
        program = parse(ALL_PROGRAMS["sssp"])
        updates = [
            node
            for node in ast.walk(program)
            if isinstance(node, ast.MethodCall)
            and node.method == "updatePriorityMin"
        ]
        assert len(updates) == 1


class TestNodeVisitor:
    def test_named_dispatch(self):
        class Counter(ast.NodeVisitor):
            def __init__(self):
                self.whiles = 0
                self.names = 0

            def visit_While(self, node):
                self.whiles += 1
                self.generic_visit(node)

            def visit_Name(self, node):
                self.names += 1

        counter = Counter()
        counter.visit(parse(ALL_PROGRAMS["sssp"]))
        assert counter.whiles == 1
        assert counter.names > 5

    def test_generic_visit_reaches_nested_statements(self):
        source = (
            "func main()\n"
            " var x : int = 0;\n"
            " while x < 3\n"
            "  if x < 1\n   x = x + 1;\n  end\n"
            " end\nend"
        )

        class Assigns(ast.NodeVisitor):
            def __init__(self):
                self.count = 0

            def visit_Assign(self, node):
                self.count += 1

        visitor = Assigns()
        visitor.visit(parse(source))
        assert visitor.count == 1


class TestScope:
    def test_lookup_walks_parents(self):
        outer = Scope()
        outer.declare("x", INT)
        inner = Scope(outer)
        assert inner.lookup("x") == INT
        assert inner.lookup_local("x") is None
        inner.declare("x", ElementType("Vertex"))
        assert inner.lookup_local("x") == ElementType("Vertex")

    def test_lookup_missing(self):
        assert Scope().lookup("ghost") is None


class TestProgramAccessors:
    def test_function_and_constant_lookup(self):
        program = parse(ALL_PROGRAMS["sssp"])
        assert program.function("updateEdge").name == "updateEdge"
        assert program.function("ghost") is None
        assert program.constant("dist").name == "dist"
        assert program.constant("ghost") is None
