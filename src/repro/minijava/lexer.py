"""Lexer for MiniJava product lines.

MiniJava is the Java-like input language of this reproduction: classes with
single inheritance, fields, methods, virtual calls, and CIDE-style
*disciplined* feature annotations written as ``#ifdef (condition) ... #else
... #endif`` around whole statements or whole class members.

The lexer produces a flat token stream; preprocessor directives become
ordinary tokens (``#ifdef`` etc.) that the parser interprets, because —
unlike the C preprocessor — SPLLIFT analyzes the *unpreprocessed* product
line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    (
        "class",
        "extends",
        "int",
        "boolean",
        "void",
        "if",
        "else",
        "while",
        "return",
        "new",
        "this",
        "null",
        "true",
        "false",
    )
)

# Multi-character operators first so maximal munch works.
_OPERATORS = (
    "#ifdef",
    "#else",
    "#endif",
    "<->",
    "->",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "(",
    ")",
    "{",
    "}",
    ",",
    ";",
    ".",
)


class LexError(ValueError):
    """Raised on characters the lexer cannot interpret."""


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is one of ``"ident"``, ``"int"``, ``"keyword"``, ``"op"``,
    ``"eof"``; ``text`` is the lexeme; ``line``/``column`` are 1-based.
    """

    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``, appending a single ``eof`` token."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch.isspace():
            pos += 1
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = n if end == -1 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end == -1:
                raise LexError(f"unterminated block comment at line {line}")
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
            pos = end + 2
            continue
        column = pos - line_start + 1
        if ch.isalpha() or ch == "_":
            end = pos + 1
            while end < n and (source[end].isalnum() or source[end] == "_"):
                end += 1
            text = source[pos:end]
            kind = "keyword" if text in KEYWORDS else "ident"
            yield Token(kind, text, line, column)
            pos = end
            continue
        if ch.isdigit():
            end = pos + 1
            while end < n and source[end].isdigit():
                end += 1
            yield Token("int", source[pos:end], line, column)
            pos = end
            continue
        for op in _OPERATORS:
            if source.startswith(op, pos):
                yield Token("op", op, line, column)
                pos += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r} at line {line}, column {column}")
    yield Token("eof", "", line, 1)
