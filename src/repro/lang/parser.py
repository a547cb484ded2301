"""Recursive-descent parser for the GraphIt algorithm-language subset.

The grammar covers everything the paper's programs use (Figure 3, Figure 8,
Figure 10): element/const/func declarations, generic graph types, statement
labels (``#s1#``), the priority-queue constructor with its two argument
lists, method-call chains (``edges.from(b).applyUpdatePriority(f)``), and
the trailing ``schedule:`` block with ``program->command(...)`` chains.
"""

from __future__ import annotations

from ..errors import ParseError
from ..obs import span as trace_span
from . import ast_nodes as ast
from .lexer import tokenize
from .tokens import Token, TokenKind
from .types import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    ElementType,
    EdgeSetType,
    PriorityQueueType,
    ScalarType,
    Type,
    VectorType,
    VertexSetType,
)

__all__ = ["parse", "Parser"]

_SCALAR_TYPES = {"int": INT, "float": FLOAT, "bool": BOOL, "string": STRING}

_COMPARISONS = {
    TokenKind.EQ: "==",
    TokenKind.NEQ: "!=",
    TokenKind.LT: "<",
    TokenKind.GT: ">",
    TokenKind.LE: "<=",
    TokenKind.GE: ">=",
}

_ADDITIVE = {TokenKind.PLUS: "+", TokenKind.MINUS: "-"}
_MULTIPLICATIVE = {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"}


def parse(source: str, filename: str | None = None) -> ast.Program:
    """Parse DSL source text into a :class:`~repro.lang.ast_nodes.Program`.

    ``filename`` (when given) is recorded on the returned program and
    attached to every :class:`~repro.lang.span.Span` in parse errors, so
    diagnostics render as clickable ``file:line:col`` locations.
    """
    with trace_span("lex", "compiler", file=filename or "<string>") as sp:
        tokens = tokenize(source, filename)
        sp["tokens"] = len(tokens)
    with trace_span("parse", "compiler", file=filename or "<string>"):
        program = Parser(tokens, filename).parse_program()
    program.source_file = filename
    return program


class Parser:
    def __init__(self, tokens: list[Token], filename: str | None = None):
        self._tokens = tokens
        self._filename = filename
        self._position = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._position]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._position += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._current.kind is kind

    def _match(self, kind: TokenKind) -> Token | None:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        if not self._check(kind):
            raise self._error(
                f"expected {kind.value!r} {context}, found {self._current.text!r}"
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        return ParseError(
            message,
            self._current.line,
            self._current.column,
            span=self._current.span.with_file(self._filename),
        )

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        elements: list[ast.ElementDecl] = []
        constants: list[ast.ConstDecl] = []
        functions: list[ast.FuncDecl] = []
        externs: list[ast.ExternFuncDecl] = []
        schedule: list[ast.ScheduleStmt] = []

        while not self._check(TokenKind.EOF):
            if self._check(TokenKind.ELEMENT):
                elements.append(self._parse_element())
            elif self._check(TokenKind.CONST):
                constants.append(self._parse_const())
            elif self._check(TokenKind.FUNC):
                functions.append(self._parse_func())
            elif self._check(TokenKind.EXTERN):
                externs.append(self._parse_extern())
            elif self._check(TokenKind.SCHEDULE):
                schedule = self._parse_schedule_block()
            else:
                raise self._error(
                    "expected a declaration (element, const, func, extern) "
                    "or a schedule block"
                )
        return ast.Program(
            elements=elements,
            constants=constants,
            functions=functions,
            externs=externs,
            schedule=schedule,
        )

    def _parse_element(self) -> ast.ElementDecl:
        token = self._expect(TokenKind.ELEMENT, "to open an element declaration")
        name = self._expect(TokenKind.IDENT, "after 'element'").text
        self._expect(TokenKind.END, "to close the element declaration")
        return ast.ElementDecl(name, line=token.line, column=token.column)

    def _parse_const(self) -> ast.ConstDecl:
        token = self._expect(TokenKind.CONST, "to open a const declaration")
        name = self._expect(TokenKind.IDENT, "after 'const'").text
        self._expect(TokenKind.COLON, "after the const name")
        declared_type = self._parse_type()
        initializer = None
        if self._match(TokenKind.ASSIGN):
            initializer = self._parse_expression()
        self._expect(TokenKind.SEMICOLON, "to end the const declaration")
        return ast.ConstDecl(name, declared_type, initializer, line=token.line, column=token.column)

    def _parse_extern(self) -> ast.ExternFuncDecl:
        token = self._expect(TokenKind.EXTERN, "to open an extern declaration")
        self._expect(TokenKind.FUNC, "after 'extern'")
        name = self._expect(TokenKind.IDENT, "after 'extern func'").text
        self._expect(TokenKind.SEMICOLON, "to end the extern declaration")
        return ast.ExternFuncDecl(name, line=token.line, column=token.column)

    def _parse_func(self) -> ast.FuncDecl:
        token = self._expect(TokenKind.FUNC, "to open a function")
        name = self._expect(TokenKind.IDENT, "after 'func'").text
        self._expect(TokenKind.LPAREN, "after the function name")
        parameters: list[tuple[str, Type]] = []
        while not self._check(TokenKind.RPAREN):
            param_name = self._expect(TokenKind.IDENT, "as a parameter name").text
            self._expect(TokenKind.COLON, "after the parameter name")
            parameters.append((param_name, self._parse_type()))
            if not self._match(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN, "to close the parameter list")
        result = None
        if self._match(TokenKind.ARROW):
            self._expect(TokenKind.LPAREN, "after '->'")
            result_name = self._expect(TokenKind.IDENT, "as the result name").text
            self._expect(TokenKind.COLON, "after the result name")
            result = (result_name, self._parse_type())
            self._expect(TokenKind.RPAREN, "to close the result declaration")
        body = self._parse_statements_until(TokenKind.END)
        self._expect(TokenKind.END, "to close the function")
        return ast.FuncDecl(name, parameters, result, body, line=token.line, column=token.column)

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def _parse_type(self) -> Type:
        token = self._expect(TokenKind.IDENT, "as a type name")
        name = token.text
        if name in _SCALAR_TYPES:
            return _SCALAR_TYPES[name]
        if name == "vertexset":
            element = self._parse_element_argument()
            return VertexSetType(element)
        if name == "edgeset":
            element = self._parse_element_argument()
            self._expect(TokenKind.LPAREN, "for the edgeset signature")
            source = self._parse_type()
            self._expect(TokenKind.COMMA, "between edgeset endpoint types")
            destination = self._parse_type()
            weight = None
            if self._match(TokenKind.COMMA):
                weight = self._parse_type()
                if not isinstance(weight, ScalarType):
                    raise self._error("edge weights must have a scalar type")
            self._expect(TokenKind.RPAREN, "to close the edgeset signature")
            if not isinstance(source, ElementType) or not isinstance(
                destination, ElementType
            ):
                raise self._error("edgeset endpoints must be element types")
            return EdgeSetType(element, source, destination, weight)
        if name == "vector":
            element = self._parse_element_argument()
            self._expect(TokenKind.LPAREN, "for the vector value type")
            value = self._parse_type()
            self._expect(TokenKind.RPAREN, "to close the vector value type")
            return VectorType(element, value)
        if name == "priority_queue":
            element = self._parse_element_argument()
            self._expect(TokenKind.LPAREN, "for the priority value type")
            value = self._parse_type()
            self._expect(TokenKind.RPAREN, "to close the priority value type")
            return PriorityQueueType(element, value)
        # Any other identifier is an element type reference.
        return ElementType(name)

    def _parse_element_argument(self) -> ElementType:
        self._expect(TokenKind.LBRACE, "for the element type argument")
        name = self._expect(TokenKind.IDENT, "as the element type").text
        self._expect(TokenKind.RBRACE, "to close the element type argument")
        return ElementType(name)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_statements_until(self, *terminators: TokenKind) -> list[ast.Stmt]:
        stop = set(terminators) | {TokenKind.EOF, TokenKind.ELSE, TokenKind.ELIF}
        body: list[ast.Stmt] = []
        while self._current.kind not in stop:
            body.append(self._parse_statement())
        return body

    def _parse_statement(self) -> ast.Stmt:
        label = None
        if self._check(TokenKind.HASH):
            self._advance()
            label = self._expect(TokenKind.IDENT, "as the statement label").text
            self._expect(TokenKind.HASH, "to close the statement label")
        statement = self._parse_unlabeled_statement()
        statement.label = label
        return statement

    def _parse_unlabeled_statement(self) -> ast.Stmt:
        token = self._current
        if self._check(TokenKind.VAR):
            return self._parse_var_decl()
        if self._check(TokenKind.WHILE):
            self._advance()
            condition = self._parse_expression()
            body = self._parse_statements_until(TokenKind.END)
            self._expect(TokenKind.END, "to close the while loop")
            return ast.While(condition, body, line=token.line, column=token.column)
        if self._check(TokenKind.IF):
            return self._parse_if()
        if self._check(TokenKind.FOR):
            self._advance()
            variable = self._expect(TokenKind.IDENT, "as the loop variable").text
            self._expect(TokenKind.IN, "after the loop variable")
            start = self._parse_expression()
            self._expect(TokenKind.COLON, "in the loop range")
            stop = self._parse_expression()
            body = self._parse_statements_until(TokenKind.END)
            self._expect(TokenKind.END, "to close the for loop")
            return ast.For(variable, start, stop, body, line=token.line, column=token.column)
        if self._check(TokenKind.PRINT):
            self._advance()
            expression = self._parse_expression()
            self._expect(TokenKind.SEMICOLON, "to end the print statement")
            return ast.Print(expression, line=token.line, column=token.column)
        if self._check(TokenKind.DELETE):
            self._advance()
            name = self._expect(TokenKind.IDENT, "after 'delete'").text
            self._expect(TokenKind.SEMICOLON, "to end the delete statement")
            return ast.Delete(name, line=token.line, column=token.column)
        if self._check(TokenKind.RETURN):
            self._advance()
            value = None
            if not self._check(TokenKind.SEMICOLON):
                value = self._parse_expression()
            self._expect(TokenKind.SEMICOLON, "to end the return statement")
            return ast.Return(value, line=token.line, column=token.column)

        expression = self._parse_expression()
        if self._match(TokenKind.ASSIGN):
            if not isinstance(expression, (ast.Name, ast.Index)):
                raise self._error("assignment target must be a name or an index")
            value = self._parse_expression()
            self._expect(TokenKind.SEMICOLON, "to end the assignment")
            return ast.Assign(expression, value, line=token.line, column=token.column)
        self._expect(TokenKind.SEMICOLON, "to end the expression statement")
        return ast.ExprStmt(expression, line=token.line, column=token.column)

    def _parse_var_decl(self) -> ast.VarDecl:
        token = self._expect(TokenKind.VAR, "to open a var declaration")
        name = self._expect(TokenKind.IDENT, "after 'var'").text
        self._expect(TokenKind.COLON, "after the variable name")
        declared_type = self._parse_type()
        initializer = None
        if self._match(TokenKind.ASSIGN):
            initializer = self._parse_expression()
        self._expect(TokenKind.SEMICOLON, "to end the var declaration")
        return ast.VarDecl(name, declared_type, initializer, line=token.line, column=token.column)

    def _parse_if(self) -> ast.If:
        token = self._advance()  # 'if' or 'elif'
        condition = self._parse_expression()
        then_body = self._parse_statements_until(TokenKind.END)
        else_body: list[ast.Stmt] = []
        if self._check(TokenKind.ELIF):
            else_body = [self._parse_if()]
            return ast.If(condition, then_body, else_body, line=token.line, column=token.column)
        if self._match(TokenKind.ELSE):
            else_body = self._parse_statements_until(TokenKind.END)
        self._expect(TokenKind.END, "to close the if statement")
        return ast.If(condition, then_body, else_body, line=token.line, column=token.column)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._check(TokenKind.OR):
            token = self._advance()
            right = self._parse_and()
            left = ast.BinaryOp("or", left, right, line=token.line, column=token.column)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._check(TokenKind.AND):
            token = self._advance()
            right = self._parse_not()
            left = ast.BinaryOp("and", left, right, line=token.line, column=token.column)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._check(TokenKind.NOT):
            token = self._advance()
            return ast.UnaryOp("not", self._parse_not(), line=token.line, column=token.column)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        while self._current.kind in _COMPARISONS:
            operator = _COMPARISONS[self._current.kind]
            token = self._advance()
            right = self._parse_additive()
            left = ast.BinaryOp(operator, left, right, line=token.line, column=token.column)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._current.kind in _ADDITIVE:
            operator = _ADDITIVE[self._current.kind]
            token = self._advance()
            right = self._parse_multiplicative()
            left = ast.BinaryOp(operator, left, right, line=token.line, column=token.column)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._current.kind in _MULTIPLICATIVE:
            operator = _MULTIPLICATIVE[self._current.kind]
            token = self._advance()
            right = self._parse_unary()
            left = ast.BinaryOp(operator, left, right, line=token.line, column=token.column)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._check(TokenKind.MINUS):
            token = self._advance()
            return ast.UnaryOp("-", self._parse_unary(), line=token.line, column=token.column)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expression = self._parse_primary()
        while True:
            if self._check(TokenKind.DOT):
                self._advance()
                method = self._expect(TokenKind.IDENT, "as a method name").text
                self._expect(TokenKind.LPAREN, "to open the method arguments")
                arguments = self._parse_arguments()
                expression = ast.MethodCall(
                    expression,
                    method,
                    arguments,
                    line=expression.line,
                    column=expression.column,
                )
            elif self._check(TokenKind.LBRACKET):
                self._advance()
                index = self._parse_expression()
                self._expect(TokenKind.RBRACKET, "to close the index")
                expression = ast.Index(
                    expression,
                    index,
                    line=expression.line,
                    column=expression.column,
                )
            else:
                return expression

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if self._match(TokenKind.INT):
            return ast.IntLiteral(int(token.text), line=token.line, column=token.column)
        if self._match(TokenKind.FLOAT):
            return ast.FloatLiteral(float(token.text), line=token.line, column=token.column)
        if self._match(TokenKind.STRING):
            return ast.StringLiteral(token.text, line=token.line, column=token.column)
        if self._match(TokenKind.TRUE):
            return ast.BoolLiteral(True, line=token.line, column=token.column)
        if self._match(TokenKind.FALSE):
            return ast.BoolLiteral(False, line=token.line, column=token.column)
        if self._match(TokenKind.NEW):
            new_type = self._parse_type()
            self._expect(TokenKind.LPAREN, "to open the constructor arguments")
            arguments = self._parse_arguments()
            return ast.New(new_type, arguments, line=token.line, column=token.column)
        if self._check(TokenKind.IDENT):
            self._advance()
            if self._check(TokenKind.LPAREN):
                self._advance()
                arguments = self._parse_arguments()
                return ast.Call(token.text, arguments, line=token.line, column=token.column)
            return ast.Name(token.text, line=token.line, column=token.column)
        if self._match(TokenKind.LPAREN):
            expression = self._parse_expression()
            self._expect(TokenKind.RPAREN, "to close the parenthesized expression")
            return expression
        raise self._error(f"expected an expression, found {token.text!r}")

    def _parse_arguments(self) -> list[ast.Expr]:
        arguments: list[ast.Expr] = []
        while not self._check(TokenKind.RPAREN):
            arguments.append(self._parse_expression())
            if not self._match(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN, "to close the argument list")
        return arguments

    # ------------------------------------------------------------------
    # Schedule block
    # ------------------------------------------------------------------
    def _parse_schedule_block(self) -> list[ast.ScheduleStmt]:
        self._expect(TokenKind.SCHEDULE, "to open the schedule block")
        self._expect(TokenKind.COLON, "after 'schedule'")
        statements: list[ast.ScheduleStmt] = []
        while self._check(TokenKind.IDENT) and self._current.text == "program":
            self._advance()
            while self._check(TokenKind.ARROW):
                self._advance()
                command_token = self._expect(
                    TokenKind.IDENT, "as a scheduling command"
                )
                self._expect(TokenKind.LPAREN, "to open the scheduling arguments")
                arguments: list[str] = []
                while not self._check(TokenKind.RPAREN):
                    argument = self._current
                    if argument.kind in (TokenKind.STRING, TokenKind.INT, TokenKind.IDENT):
                        arguments.append(argument.text)
                        self._advance()
                    else:
                        raise self._error(
                            "scheduling arguments must be strings, integers, "
                            "or identifiers"
                        )
                    if not self._match(TokenKind.COMMA):
                        break
                self._expect(TokenKind.RPAREN, "to close the scheduling arguments")
                statements.append(
                    ast.ScheduleStmt(
                        command_token.text, arguments, line=command_token.line, column=command_token.column
                    )
                )
            self._match(TokenKind.SEMICOLON)
        return statements
