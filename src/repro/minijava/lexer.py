"""Lexer for MiniJava product lines.

MiniJava is the Java-like input language of this reproduction: classes with
single inheritance, fields, methods, virtual calls, and CIDE-style
*disciplined* feature annotations written as ``#ifdef (condition) ... #else
... #endif`` around whole statements or whole class members.

The lexer produces a flat token stream; preprocessor directives become
ordinary tokens (``#ifdef`` etc.) that the parser interprets, because —
unlike the C preprocessor — SPLLIFT analyzes the *unpreprocessed* product
line.

Character contract (ASCII, like the feature-model grammar of
:mod:`repro.featuremodel.parser`):

- identifiers and keywords are ``[A-Za-z_][A-Za-z0-9_]*``;
- integer literals are ``[0-9]+``;
- whitespace is the ``str.isspace`` set; lines advance on ``\\n`` only;
- ``//`` and ``/* … */`` comments may hold any character.

Any other character, a non-ASCII letter or digit included, is a
:class:`LexError`.  One compiled master regex with a named group per
token class scans the source.
"""

from __future__ import annotations

import re
from typing import List

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    ("class", "extends", "int", "boolean", "void", "if", "else", "while",
     "return", "new", "this", "null", "true", "false")
)

# Multi-character operators first so maximal munch works.
_OPERATORS = (
    "#ifdef", "#else", "#endif", "<->", "->", "==", "!=", "<=", ">=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "(", ")", "{", "}", ",", ";", ".",
)

# Alternatives are tried in order, so comments win over the ``/`` operator
# and a closed block comment over an unterminated one.
_MASTER = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("newline", r"\n"),
            ("space", r"[^\S\n]+"),
            ("line_comment", r"//[^\n]*"),
            ("block_comment", r"/\*.*?\*/"),
            ("open_comment", r"/\*"),
            ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
            ("int", r"[0-9]+"),
            ("op", "|".join(map(re.escape, _OPERATORS))),
            ("other", r"."),
        )
    ),
    re.DOTALL,
)


class LexError(ValueError):
    """Raised on characters the lexer cannot interpret."""


class Token:
    """One lexical token.

    ``kind`` is one of ``"ident"``, ``"int"``, ``"keyword"``, ``"op"``,
    ``"eof"``; ``text`` is the lexeme; ``line``/``column`` are 1-based.
    Tokens compare and hash by value.
    """

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def _key(self) -> tuple:
        return (self.kind, self.text, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``, appending a single ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for match in _MASTER.finditer(source):
        group = match.lastgroup
        if group == "space":
            continue
        if group == "newline":
            line += 1
            line_start = match.end()
            continue
        text = match.group()
        if group == "word":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif group == "op" or group == "int":
            kind = group
        elif group == "line_comment":
            continue
        elif group == "block_comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
            continue
        elif group == "open_comment":
            raise LexError(f"unterminated block comment at line {line}")
        else:
            column = match.start() - line_start + 1
            raise LexError(
                f"unexpected character {text!r} at line {line}, column {column}"
            )
        append(Token(kind, text, line, match.start() - line_start + 1))
    append(Token("eof", "", line, 1))
    return tokens
