"""Recursive-descent parser for MiniJava product lines.

Grammar sketch (statements; declarations are analogous)::

    program   := classdecl*
    classdecl := 'class' IDENT ('extends' IDENT)? '{' member* '}'
    member    := '#ifdef' '(' cond ')' member* ('#else' member*)? '#endif'
               | type IDENT ';'                                  (field)
               | type IDENT '(' params? ')' block                (method)
    stmt      := '#ifdef' '(' cond ')' stmt* ('#else' stmt*)? '#endif'
               | type IDENT ('=' expr)? ';'
               | lvalue '=' expr ';'
               | 'if' '(' expr ')' block ('else' block)?
               | 'while' '(' expr ')' block
               | 'return' expr? ';'
               | 'print' '(' expr ')' ';'
               | call ';'
               | block

``#ifdef`` regions may wrap one or more whole statements or members
(CIDE-style disciplined annotations) and may nest; nested conditions
conjoin.  Conditions use the propositional syntax of
:mod:`repro.constraints.formula` (``&&  ||  !  ->  <->  true  false``).

Expression precedence (low to high)::

    ||  <  &&  <  == !=  <  < <= > >=  <  + -  <  * / %  <  unary ! -
"""

from __future__ import annotations

from typing import List, Optional

from repro.constraints.formula import (
    And,
    FalseConst,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TrueConst,
    Var,
)
from repro.minijava.ast import (
    AssignStmt,
    Binary,
    Block,
    BoolLit,
    Call,
    ClassDecl,
    ExprStmt,
    Expr,
    FieldAccess,
    FieldDecl,
    IfStmt,
    IntLit,
    MethodDecl,
    New,
    NullLit,
    Param,
    PrintStmt,
    Program,
    ReturnStmt,
    Stmt,
    ThisRef,
    Type,
    Unary,
    VarDecl,
    VarRef,
    WhileStmt,
)
from repro.minijava.lexer import Token, tokenize

__all__ = ["ParseError", "parse_program"]


class ParseError(ValueError):
    """Raised when the source does not conform to the MiniJava grammar."""


def parse_program(source: str) -> Program:
    """Parse a MiniJava product line from source text."""
    return _Parser(source).parse_program()


class _Parser:
    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # _next stops at eof, so only lookahead past the next token clamps.
        if offset:
            return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _expect(self, text: str) -> Token:
        token = self._next()
        if token.text != text:
            raise ParseError(
                f"line {token.line}: expected {text!r} but found {token.text!r}"
            )
        return token

    def _expect_ident(self) -> Token:
        token = self._next()
        if token.kind != "ident":
            raise ParseError(
                f"line {token.line}: expected identifier but found {token.text!r}"
            )
        return token

    def _at(self, text: str) -> bool:
        # No caller asks for "", the text of eof.
        return self._tokens[self._pos].text == text

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def parse_program(self) -> Program:
        classes: List[ClassDecl] = []
        while self._peek().kind != "eof":
            classes.append(self._class_decl())
        return Program(classes)

    def _class_decl(self) -> ClassDecl:
        line = self._expect("class").line
        name = self._expect_ident().text
        superclass = None
        if self._at("extends"):
            self._next()
            superclass = self._expect_ident().text
        self._expect("{")
        fields: List[FieldDecl] = []
        methods: List[MethodDecl] = []
        self._members(fields, methods, annotation=None)
        self._expect("}")
        return ClassDecl(name, superclass, fields, methods, line=line)

    def _members(
        self,
        fields: List[FieldDecl],
        methods: List[MethodDecl],
        annotation: Optional[Formula],
        terminators: tuple = ("}",),
    ) -> None:
        while not self._at_any(terminators):
            if self._at("#ifdef"):
                self._ifdef_members(fields, methods, annotation)
            else:
                self._member(fields, methods, annotation)

    def _at_any(self, texts: tuple) -> bool:
        token = self._peek()
        return token.kind == "eof" or token.text in texts

    def _ifdef_members(
        self,
        fields: List[FieldDecl],
        methods: List[MethodDecl],
        annotation: Optional[Formula],
    ) -> None:
        self._expect("#ifdef")
        self._expect("(")
        condition = self._condition()
        self._expect(")")
        self._members(
            fields, methods, _merge(annotation, condition), ("#else", "#endif")
        )
        if self._at("#else"):
            self._next()
            disabled = Not(condition)
            self._members(
                fields, methods, _merge(annotation, disabled), ("#endif",)
            )
        self._expect("#endif")

    def _member(
        self,
        fields: List[FieldDecl],
        methods: List[MethodDecl],
        annotation: Optional[Formula],
    ) -> None:
        member_type = self._type()
        name_token = self._expect_ident()
        if self._at("("):
            methods.append(self._method(member_type, name_token, annotation))
        else:
            self._expect(";")
            fields.append(
                FieldDecl(
                    member_type,
                    name_token.text,
                    annotation=annotation,
                    line=name_token.line,
                )
            )

    def _method(
        self, return_type: Type, name_token: Token, annotation: Optional[Formula]
    ) -> MethodDecl:
        self._expect("(")
        params: List[Param] = []
        if not self._at(")"):
            while True:
                param_type = self._type()
                params.append(Param(param_type, self._expect_ident().text))
                if self._at(","):
                    self._next()
                else:
                    break
        self._expect(")")
        body = self._block()
        return MethodDecl(
            return_type,
            name_token.text,
            params,
            body,
            annotation=annotation,
            line=name_token.line,
        )

    def _type(self) -> Type:
        token = self._next()
        if token.text in ("int", "boolean", "void"):
            return Type(token.text)
        if token.kind == "ident":
            return Type(token.text)
        raise ParseError(
            f"line {token.line}: expected a type but found {token.text!r}"
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _block(self) -> Block:
        line = self._expect("{").line
        statements = self._statements(("}",))
        self._expect("}")
        return Block(statements, line=line)

    def _statements(self, terminators: tuple) -> List[Stmt]:
        statements: List[Stmt] = []
        while not self._at_any(terminators):
            statements.extend(self._statement_group())
        return statements

    def _statement_group(self) -> List[Stmt]:
        """One statement, or the flattened contents of an #ifdef region."""
        if self._at("#ifdef"):
            return self._ifdef_statements()
        return [self._statement()]

    def _ifdef_statements(self) -> List[Stmt]:
        self._expect("#ifdef")
        self._expect("(")
        condition = self._condition()
        self._expect(")")
        result: List[Stmt] = []
        for stmt in self._statements(("#else", "#endif")):
            stmt.annotation = _merge_stmt(condition, stmt.annotation)
            result.append(stmt)
        if self._at("#else"):
            self._next()
            negated = Not(condition)
            for stmt in self._statements(("#endif",)):
                stmt.annotation = _merge_stmt(negated, stmt.annotation)
                result.append(stmt)
        self._expect("#endif")
        return result

    def _statement(self) -> Stmt:
        token = self._peek()
        if token.text == "{":
            return self._block()
        if token.text == "if":
            return self._if_statement()
        if token.text == "while":
            return self._while_statement()
        if token.text == "return":
            return self._return_statement()
        if token.text == "print" and self._peek(1).text == "(":
            return self._print_statement()
        if token.text in ("int", "boolean"):
            return self._var_decl()
        if token.kind == "ident" and self._peek(1).kind == "ident":
            return self._var_decl()  # class-typed local
        return self._assign_or_call()

    def _if_statement(self) -> IfStmt:
        line = self._expect("if").line
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        then_block = self._block()
        else_block = None
        if self._at("else"):
            self._next()
            else_block = self._block()
        return IfStmt(cond, then_block, else_block, line=line)

    def _while_statement(self) -> WhileStmt:
        line = self._expect("while").line
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        body = self._block()
        return WhileStmt(cond, body, line=line)

    def _return_statement(self) -> ReturnStmt:
        line = self._expect("return").line
        value = None
        if not self._at(";"):
            value = self._expression()
        self._expect(";")
        return ReturnStmt(value, line=line)

    def _print_statement(self) -> PrintStmt:
        line = self._next().line  # 'print'
        self._expect("(")
        value = self._expression()
        self._expect(")")
        self._expect(";")
        return PrintStmt(value, line=line)

    def _var_decl(self) -> VarDecl:
        var_type = self._type()
        name_token = self._expect_ident()
        init = None
        if self._at("="):
            self._next()
            init = self._expression()
        self._expect(";")
        return VarDecl(var_type, name_token.text, init, line=name_token.line)

    def _assign_or_call(self) -> Stmt:
        line = self._peek().line
        expr = self._postfix_expression()
        if self._at("="):
            self._next()
            value = self._expression()
            self._expect(";")
            if not isinstance(expr, (VarRef, FieldAccess)):
                raise ParseError(
                    f"line {line}: assignment target must be a variable or field"
                )
            return AssignStmt(expr, value, line=line)
        self._expect(";")
        if not isinstance(expr, Call):
            raise ParseError(f"line {line}: expression statement must be a call")
        return ExprStmt(expr, line=line)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _expression(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._at("||"):
            self._next()
            left = Binary("||", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._equality_expr()
        while self._at("&&"):
            self._next()
            left = Binary("&&", left, self._equality_expr())
        return left

    def _equality_expr(self) -> Expr:
        left = self._relational_expr()
        while self._peek().text in ("==", "!="):
            op = self._next().text
            left = Binary(op, left, self._relational_expr())
        return left

    def _relational_expr(self) -> Expr:
        left = self._additive_expr()
        while self._peek().text in ("<", "<=", ">", ">="):
            op = self._next().text
            left = Binary(op, left, self._additive_expr())
        return left

    def _additive_expr(self) -> Expr:
        left = self._multiplicative_expr()
        while self._peek().text in ("+", "-"):
            op = self._next().text
            left = Binary(op, left, self._multiplicative_expr())
        return left

    def _multiplicative_expr(self) -> Expr:
        left = self._unary_expr()
        while self._peek().text in ("*", "/", "%"):
            op = self._next().text
            left = Binary(op, left, self._unary_expr())
        return left

    def _unary_expr(self) -> Expr:
        if self._peek().text in ("!", "-"):
            op = self._next().text
            return Unary(op, self._unary_expr())
        return self._postfix_expression()

    def _postfix_expression(self) -> Expr:
        expr = self._primary_expression()
        while self._at("."):
            self._next()
            member = self._expect_ident().text
            if self._at("("):
                expr = Call(expr, member, self._arguments())
            else:
                expr = FieldAccess(expr, member)
        return expr

    def _primary_expression(self) -> Expr:
        token = self._next()
        if token.kind == "int":
            return IntLit(int(token.text))
        if token.text == "true":
            return BoolLit(True)
        if token.text == "false":
            return BoolLit(False)
        if token.text == "null":
            return NullLit()
        if token.text == "this":
            return ThisRef()
        if token.text == "new":
            class_name = self._expect_ident().text
            self._expect("(")
            self._expect(")")
            return New(class_name)
        if token.text == "(":
            inner = self._expression()
            self._expect(")")
            return inner
        if token.kind == "ident":
            if self._at("("):
                return Call(None, token.text, self._arguments())
            return VarRef(token.text)
        raise ParseError(
            f"line {token.line}: unexpected token {token.text!r} in expression"
        )

    def _arguments(self) -> List[Expr]:
        self._expect("(")
        args: List[Expr] = []
        if not self._at(")"):
            while True:
                args.append(self._expression())
                if self._at(","):
                    self._next()
                else:
                    break
        self._expect(")")
        return args

    # ------------------------------------------------------------------
    # #ifdef conditions (propositional formulas over feature names)
    # ------------------------------------------------------------------

    def _condition(self) -> Formula:
        return self._cond_iff()

    def _cond_iff(self) -> Formula:
        left = self._cond_implies()
        while self._at("<->"):
            self._next()
            left = Iff(left, self._cond_implies())
        return left

    def _cond_implies(self) -> Formula:
        left = self._cond_or()
        if self._at("->"):
            self._next()
            return Implies(left, self._cond_implies())
        return left

    def _cond_or(self) -> Formula:
        operands = [self._cond_and()]
        while self._at("||"):
            self._next()
            operands.append(self._cond_and())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def _cond_and(self) -> Formula:
        operands = [self._cond_unary()]
        while self._at("&&"):
            self._next()
            operands.append(self._cond_unary())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def _cond_unary(self) -> Formula:
        if self._at("!"):
            self._next()
            return Not(self._cond_unary())
        token = self._next()
        if token.text == "(":
            inner = self._cond_iff()
            self._expect(")")
            return inner
        if token.text == "true":
            return TrueConst()
        if token.text == "false":
            return FalseConst()
        if token.kind == "ident":
            return Var(token.text)
        raise ParseError(
            f"line {token.line}: unexpected token {token.text!r} in #ifdef condition"
        )


def _merge(outer: Optional[Formula], inner: Formula) -> Formula:
    """Conjoin an enclosing annotation with a nested one."""
    return inner if outer is None else And((outer, inner))


def _merge_stmt(condition: Formula, existing: Optional[Formula]) -> Formula:
    """Attach a region condition to a statement (outer condition first)."""
    return condition if existing is None else And((condition, existing))
