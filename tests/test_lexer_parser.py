"""Unit tests for the DSL lexer and parser."""

import pytest

from repro.errors import ParseError
from repro.lang import ALL_PROGRAMS, parse, tokenize
from repro.lang import ast_nodes as ast
from repro.lang.tokens import TokenKind
from repro.lang.types import (
    INT,
    EdgeSetType,
    ElementType,
    PriorityQueueType,
    VectorType,
)


class TestLexer:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("while whiles end endx")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.WHILE,
            TokenKind.IDENT,
            TokenKind.END,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_numbers(self):
        tokens = tokenize("42 3.25")
        assert tokens[0].kind is TokenKind.INT and tokens[0].text == "42"
        assert tokens[1].kind is TokenKind.FLOAT and tokens[1].text == "3.25"

    def test_string_literal(self):
        tokens = tokenize('"lower_first"')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "lower_first"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')

    def test_two_char_operators(self):
        tokens = tokenize("-> == != <= >=")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == [
            TokenKind.ARROW,
            TokenKind.EQ,
            TokenKind.NEQ,
            TokenKind.LE,
            TokenKind.GE,
        ]

    def test_label_tokens(self):
        tokens = tokenize("#s1#")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.HASH,
            TokenKind.IDENT,
            TokenKind.HASH,
        ]

    def test_line_comment(self):
        tokens = tokenize("a // comment here\nb")
        texts = [t.text for t in tokens[:-1]]
        assert texts == ["a", "b"]

    def test_percent_comment_at_line_start(self):
        tokens = tokenize("% header comment\na")
        assert tokens[0].text == "a"

    def test_percent_modulo_mid_expression(self):
        tokens = tokenize("a % b")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.IDENT,
            TokenKind.PERCENT,
            TokenKind.IDENT,
        ]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("a $ b")


class TestParserDeclarations:
    def test_element(self):
        program = parse("element Vertex end")
        assert program.elements[0].name == "Vertex"

    def test_const_with_vector_type(self):
        program = parse(
            "element Vertex end\n"
            "const dist : vector{Vertex}(int) = INT_MAX;"
        )
        const = program.constants[0]
        assert const.declared_type == VectorType(ElementType("Vertex"), INT)
        assert isinstance(const.initializer, ast.Name)

    def test_edgeset_type(self):
        program = parse(
            "element Vertex end\nelement Edge end\n"
            "const edges : edgeset{Edge}(Vertex, Vertex, int) = load(argv[1]);"
        )
        declared = program.constants[0].declared_type
        assert isinstance(declared, EdgeSetType)
        assert declared.is_weighted

    def test_unweighted_edgeset(self):
        program = parse(
            "element Vertex end\nelement Edge end\n"
            "const edges : edgeset{Edge}(Vertex, Vertex);"
        )
        assert not program.constants[0].declared_type.is_weighted

    def test_priority_queue_type(self):
        program = parse(
            "element Vertex end\nconst pq : priority_queue{Vertex}(int);"
        )
        assert isinstance(program.constants[0].declared_type, PriorityQueueType)

    def test_function_parameters(self):
        program = parse(
            "element Vertex end\n"
            "func f(src : Vertex, dst : Vertex, weight : int)\nend"
        )
        func = program.functions[0]
        assert [name for name, _ in func.parameters] == ["src", "dst", "weight"]

    def test_function_with_result(self):
        program = parse("func f(x : int) -> (out : int)\n out = x + 1;\nend")
        assert program.functions[0].result[0] == "out"

    def test_extern_declaration(self):
        program = parse("extern func computeHeuristic;")
        assert program.externs[0].name == "computeHeuristic"


class TestParserStatements:
    def _body(self, statements: str):
        program = parse(f"func main()\n{statements}\nend")
        return program.functions[0].body

    def test_var_decl(self):
        body = self._body("var x : int = 3;")
        assert isinstance(body[0], ast.VarDecl)
        assert body[0].initializer.value == 3

    def test_assignment_to_index(self):
        body = self._body("var x : int = 0;\ndist[x] = 5;")
        assert isinstance(body[1], ast.Assign)
        assert isinstance(body[1].target, ast.Index)

    def test_invalid_assignment_target(self):
        with pytest.raises(ParseError):
            self._body("f(x) = 3;")

    def test_while_loop(self):
        body = self._body("while (x < 3)\n x = x + 1;\nend")
        assert isinstance(body[0], ast.While)
        assert len(body[0].body) == 1

    def test_if_else(self):
        body = self._body("if x < 3\n x = 1;\nelse\n x = 2;\nend")
        statement = body[0]
        assert isinstance(statement, ast.If)
        assert len(statement.then_body) == 1
        assert len(statement.else_body) == 1

    def test_elif_chain(self):
        body = self._body("if x < 1\n x = 1;\nelif x < 2\n x = 2;\nelse\n x = 3;\nend")
        outer = body[0]
        assert isinstance(outer.else_body[0], ast.If)

    def test_for_loop(self):
        body = self._body("for i in 0:10\n x = i;\nend")
        assert isinstance(body[0], ast.For)
        assert body[0].variable == "i"

    def test_label_attached(self):
        body = self._body("#s1# edges.from(b).applyUpdatePriority(f);")
        assert body[0].label == "s1"

    def test_delete(self):
        body = self._body("delete bucket;")
        assert isinstance(body[0], ast.Delete)

    def test_print(self):
        body = self._body("print x + 1;")
        assert isinstance(body[0], ast.Print)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            self._body("var x : int = 3")


class TestParserExpressions:
    def _expr(self, text: str):
        program = parse(f"func main()\nvar r : int = {text};\nend")
        return program.functions[0].body[0].initializer

    def test_precedence_mul_over_add(self):
        expression = self._expr("1 + 2 * 3")
        assert expression.operator == "+"
        assert expression.right.operator == "*"

    def test_comparison_of_sums(self):
        expression = self._expr("a + 1 < b + 2")
        assert expression.operator == "<"

    def test_and_or_precedence(self):
        program = parse("func main()\nwhile a == 1 and b == 2 or c == 3\nend\nend")
        condition = program.functions[0].body[0].condition
        assert condition.operator == "or"
        assert condition.left.operator == "and"

    def test_unary_minus(self):
        expression = self._expr("-5")
        assert isinstance(expression, ast.UnaryOp)
        assert expression.operand.value == 5

    def test_method_chain(self):
        expression = self._expr("edges.from(bucket).applyUpdatePriority(f)")
        assert isinstance(expression, ast.MethodCall)
        assert expression.method == "applyUpdatePriority"
        assert expression.receiver.method == "from"

    def test_new_priority_queue_with_two_argument_lists(self):
        expression = self._expr(
            'new priority_queue{Vertex}(int)(true, "lower_first", dist, s)'
        )
        assert isinstance(expression, ast.New)
        assert isinstance(expression.type, PriorityQueueType)
        assert len(expression.arguments) == 4

    def test_index_chain(self):
        expression = self._expr("m[a][b]")
        assert isinstance(expression, ast.Index)
        assert isinstance(expression.base, ast.Index)

    def test_parenthesized(self):
        expression = self._expr("(1 + 2) * 3")
        assert expression.operator == "*"
        assert expression.left.operator == "+"


class TestScheduleBlock:
    def test_schedule_chain(self):
        program = parse(
            "func main()\nend\n"
            "schedule:\n"
            'program->configApplyPriorityUpdate("s1", "lazy")\n'
            '  ->configApplyPriorityUpdateDelta("s1", "4");\n'
        )
        assert [s.command for s in program.schedule] == [
            "configApplyPriorityUpdate",
            "configApplyPriorityUpdateDelta",
        ]
        assert program.schedule[0].arguments == ["s1", "lazy"]

    def test_multiple_program_chains(self):
        program = parse(
            "func main()\nend\n"
            "schedule:\n"
            'program->configApplyPriorityUpdate("s1", "lazy");\n'
            'program->configNumBuckets("s1", 64);\n'
        )
        assert len(program.schedule) == 2
        assert program.schedule[1].arguments == ["s1", "64"]


class TestPaperPrograms:
    @pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
    def test_all_programs_parse(self, name):
        program = parse(ALL_PROGRAMS[name])
        assert program.function("main") is not None

    def test_sssp_matches_figure3_shape(self):
        program = parse(ALL_PROGRAMS["sssp"])
        assert [e.name for e in program.elements] == ["Vertex", "Edge"]
        assert [c.name for c in program.constants] == ["edges", "dist", "pq"]
        update = program.function("updateEdge")
        assert update is not None
        assert len(update.parameters) == 3
