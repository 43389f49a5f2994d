"""Tests for the MiniJava lexer."""

import pytest

from repro.minijava.lexer import LexError, Token, tokenize


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


class TestLexer:
    def test_empty_source_has_eof(self):
        tokens = tokenize("")
        assert tokens[-1].kind == "eof"
        assert len(tokens) == 1

    def test_keywords_vs_identifiers(self):
        assert kinds_and_texts("class Foo")[:-1] == [
            ("keyword", "class"),
            ("ident", "Foo"),
        ]

    def test_integers(self):
        assert kinds_and_texts("42 007")[:-1] == [("int", "42"), ("int", "007")]

    def test_operators_maximal_munch(self):
        texts = [t.text for t in tokenize("a<=b == c != d <-> e -> f")]
        assert "<=" in texts and "==" in texts and "!=" in texts
        assert "<->" in texts and "->" in texts

    def test_directives(self):
        texts = [t.text for t in tokenize("#ifdef (F) x = 0; #else y = 1; #endif")]
        assert "#ifdef" in texts
        assert "#else" in texts
        assert "#endif" in texts

    def test_line_comments_skipped(self):
        tokens = tokenize("a // comment with * tokens\nb")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_block_comments_skipped(self):
        tokens = tokenize("a /* multi\nline */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_columns_after_multiline_block_comment(self):
        tokens = tokenize("/* a\n b */ x = 1;")
        assert [(t.text, t.line, t.column) for t in tokens[:2]] == [
            ("x", 2, 7),
            ("=", 2, 9),
        ]

    def test_lex_error_column_after_multiline_block_comment(self):
        source = "int a;\n/* one\n two\n */ int y = 1 @ 2;"
        with pytest.raises(LexError, match="line 4, column 15"):
            tokenize(source)

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert [(t.text, t.line) for t in tokens[:-1]] == [
            ("a", 1),
            ("b", 2),
            ("c", 3),
        ]

    def test_column_numbers(self):
        tokens = tokenize("ab cd")
        assert tokens[0].column == 1
        assert tokens[1].column == 4

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_underscored_identifiers(self):
        assert tokenize("_x x_1")[0].text == "_x"

    def test_all_keywords_recognized(self):
        from repro.minijava.lexer import KEYWORDS

        for keyword in KEYWORDS:
            token = tokenize(keyword)[0]
            assert token.kind == "keyword", keyword
