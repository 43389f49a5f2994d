"""Tests for the MiniJava lexer."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minijava.lexer import KEYWORDS, LexError, Token, tokenize
from repro.spl.benchmarks import paper_subjects
from repro.spl.generator import SubjectSpec, generate_subject


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


class TestCharacterContract:
    """Identifiers and integers are ASCII; any other character outside a
    comment or whitespace is an error."""

    @pytest.mark.parametrize(
        "source, message",
        [
            ("int x = \u00b2;", "unexpected character '\u00b2' at line 1, column 9"),
            ("int y = \u0663;", "unexpected character '\u0663' at line 1, column 9"),
            ("int \u00e9t\u00e9 = 1;", "unexpected character '\u00e9' at line 1, column 5"),
            ("int x\u00b2 = 1;", "unexpected character '\u00b2' at line 1, column 6"),
            ("a #b", "unexpected character '#' at line 1, column 3"),
        ],
        ids=["superscript-two", "arabic-indic-three", "accented-ident", "ident-tail", "bare-hash"],
    )
    def test_unexpected_character_message(self, source, message):
        with pytest.raises(LexError) as excinfo:
            tokenize(source)
        assert str(excinfo.value) == message

    def test_unterminated_block_comment_message(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a\nb /* never\nclosed")
        assert str(excinfo.value) == "unterminated block comment at line 2"

    def test_comments_may_hold_any_character(self):
        tokens = tokenize("// \u00e9t\u00e9 \u00b2\nx /* \u0663 @ $ */ y")
        assert [(t.text, t.line, t.column) for t in tokens[:-1]] == [
            ("x", 2, 1),
            ("y", 2, 15),
        ]

    def test_unicode_whitespace_separates_tokens(self):
        # str.isspace characters other than "\n" do not start a new line.
        tokens = tokenize("a\u00a0b\u2028c\r\nd")
        assert [(t.text, t.line, t.column) for t in tokens[:-1]] == [
            ("a", 1, 1),
            ("b", 1, 3),
            ("c", 1, 5),
            ("d", 2, 1),
        ]


class TestToken:
    def test_value_equality_and_hash(self):
        token = Token("ident", "x", 1, 2)
        same = Token("ident", "x", 1, 2)
        assert token == same and hash(token) == hash(same)
        assert token != Token("ident", "x", 1, 3)
        assert token != ("ident", "x", 1, 2)
        assert len({token, same}) == 1

    def test_repr(self):
        assert repr(Token("op", "(", 3, 7)) == "Token(op, '(', 3:7)"

    def test_eof_sits_on_the_last_line(self):
        assert tokenize("a\nb\n")[-1] == Token("eof", "", 3, 1)


#: sha256 over ``f"{kind}\t{text}\t{line}\t{column}\n"`` of every token,
#: and the token count, of each paper subject's source.
PAPER_STREAMS = {
    "BerkeleyDB-like": (
        17471,
        "23a07fb9197eb22be41dcebccfc51b170947c87dada7560b4f22acc33b1a4e29",
    ),
    "GPL-like": (
        3916,
        "ea95ed00c24ef3b2a478676c86bd30ed2ab445b0a4001f80f08b460454013fe2",
    ),
    "Lampiro-like": (
        9549,
        "b37f81c6f9f33ee045800051f66ae25ba422c727dac3aa4ddd1ae149cbb074e3",
    ),
    "MM08-like": (
        4400,
        "40d9d98bb449ce78b6937f6dd3400b2b2e9eb3eb1870cda35dd807dc356bba6d",
    ),
}


@pytest.mark.parametrize(
    "name, factory", paper_subjects(), ids=[name for name, _ in paper_subjects()]
)
def test_paper_subject_token_stream_is_pinned(name, factory):
    tokens = tokenize(factory().source)
    stream = "".join(f"{t.kind}\t{t.text}\t{t.line}\t{t.column}\n" for t in tokens)
    digest = hashlib.sha256(stream.encode("utf-8")).hexdigest()
    assert (len(tokens), digest) == PAPER_STREAMS[name]


@given(subject_seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=25, deadline=None)
def test_generated_subject_tokens_sit_where_they_say(subject_seed):
    """Each token's text is in the source at its line and column, the
    source outside the tokens is whitespace, keywords are exactly the
    KEYWORDS texts, and one eof ends the stream."""
    spec = SubjectSpec(
        name=f"lex-{subject_seed}",
        seed=subject_seed,
        classes=3,
        methods_per_class=(2, 3),
        statements_per_method=(3, 7),
        annotation_density=0.4,
        entry_fanout=4,
        reachable_features=("A", "B"),
        source_density=0.4,
        sink_density=0.8,
        uninit_density=0.3,
    )
    source = generate_subject(spec).source
    lines = source.split("\n")
    uncovered = [list(line) for line in lines]
    tokens = tokenize(source)
    assert [t.kind for t in tokens].count("eof") == 1
    assert tokens[-1].kind == "eof"
    for token in tokens:
        start = token.column - 1
        end = start + len(token.text)
        assert lines[token.line - 1][start:end] == token.text, token
        assert (token.kind == "keyword") == (token.text in KEYWORDS), token
        uncovered[token.line - 1][start:end] = " " * len(token.text)
    assert all("".join(line).isspace() or not line for line in uncovered)
