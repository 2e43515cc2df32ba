"""Unit tests for the SL lexer."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import Lexer, tokenize
from repro.lang.tokens import KEYWORDS, TokenKind


def kinds(source):
    return [token.kind for token in tokenize(source)]


def texts(source):
    return [token.text for token in tokenize(source)][:-1]  # drop EOF


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_whitespace_only_yields_only_eof(self):
        assert kinds("   \t\n\r\n  ") == [TokenKind.EOF]

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INT
        assert token.value == 42
        assert token.text == "42"

    def test_zero_literal(self):
        assert tokenize("0")[0].value == 0

    def test_identifier(self):
        token = tokenize("positives")[0]
        assert token.kind is TokenKind.IDENT
        assert token.text == "positives"

    def test_identifier_with_underscore_and_digits(self):
        token = tokenize("_v2_x")[0]
        assert token.kind is TokenKind.IDENT
        assert token.text == "_v2_x"

    @pytest.mark.parametrize("word,kind", sorted(KEYWORDS.items()))
    def test_every_keyword(self, word, kind):
        assert tokenize(word)[0].kind is kind

    def test_keyword_prefix_is_identifier(self):
        # `iffy` must not lex as `if` + `fy`.
        token = tokenize("iffy")[0]
        assert token.kind is TokenKind.IDENT
        assert token.text == "iffy"


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("==", TokenKind.EQ),
            ("!=", TokenKind.NE),
            ("&&", TokenKind.AND),
            ("||", TokenKind.OR),
            ("<", TokenKind.LT),
            (">", TokenKind.GT),
            ("=", TokenKind.ASSIGN),
            ("!", TokenKind.NOT),
            ("+", TokenKind.PLUS),
            ("-", TokenKind.MINUS),
            ("*", TokenKind.STAR),
            ("/", TokenKind.SLASH),
            ("%", TokenKind.PERCENT),
            (";", TokenKind.SEMI),
            (":", TokenKind.COLON),
            (",", TokenKind.COMMA),
            ("(", TokenKind.LPAREN),
            (")", TokenKind.RPAREN),
            ("{", TokenKind.LBRACE),
            ("}", TokenKind.RBRACE),
        ],
    )
    def test_single_operator(self, text, kind):
        assert tokenize(text)[0].kind is kind

    def test_maximal_munch(self):
        # `<=` lexes as one token, not `<` `=`.
        assert kinds("a<=b")[:3] == [
            TokenKind.IDENT,
            TokenKind.LE,
            TokenKind.IDENT,
        ]

    def test_adjacent_comparison_and_assign(self):
        assert kinds("a==b=c")[:5] == [
            TokenKind.IDENT,
            TokenKind.EQ,
            TokenKind.IDENT,
            TokenKind.ASSIGN,
            TokenKind.IDENT,
        ]


class TestComments:
    def test_line_comment(self):
        assert texts("x = 1; // the answer\ny = 2;") == [
            "x", "=", "1", ";", "y", "=", "2", ";",
        ]

    def test_line_comment_at_eof(self):
        assert kinds("// nothing") == [TokenKind.EOF]

    def test_block_comment(self):
        assert texts("x /* ignore\nme */ = 1;") == ["x", "=", "1", ";"]

    def test_block_comment_containing_stars(self):
        assert texts("/* ** * */ x") == ["x"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("x = 1; /* never closed")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("x = 1;\n  y = 2;")
        x, _, _, _, y = tokens[:5]
        assert (x.location.line, x.location.column) == (1, 1)
        assert (y.location.line, y.location.column) == (2, 3)

    def test_positions_after_comment(self):
        tokens = tokenize("// comment line\nz = 3;")
        assert tokens[0].location.line == 2


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as info:
            tokenize("x = 1 @ 2;")
        assert "@" in str(info.value)

    def test_malformed_number(self):
        with pytest.raises(LexError):
            tokenize("123abc")

    def test_lone_ampersand(self):
        with pytest.raises(LexError):
            tokenize("a & b")

    def test_lone_pipe(self):
        with pytest.raises(LexError):
            tokenize("a | b")


class TestIterator:
    def test_tokens_generator_terminates_at_eof(self):
        lexer = Lexer("a b c")
        tokens = list(lexer.tokens())
        assert tokens[-1].kind is TokenKind.EOF
        assert len(tokens) == 4


class TestUnicode:
    def test_non_decimal_digit_is_a_lex_error(self):
        # `str.isdigit` accepts `²` but `int` rejects it; it must surface
        # as a located LexError, not a bare ValueError.
        with pytest.raises(LexError) as info:
            tokenize("x = ²;")
        assert info.value.message == "unexpected character '²'"
        assert (info.value.location.line, info.value.location.column) == (1, 5)

    def test_non_decimal_digit_inside_a_number(self):
        with pytest.raises(LexError) as info:
            tokenize("x = 1²;")
        assert (info.value.location.line, info.value.location.column) == (1, 6)

    def test_non_ascii_identifier(self):
        token = tokenize("é = 1;")[0]
        assert token.kind is TokenKind.IDENT
        assert token.text == "é"

    def test_identifier_may_continue_with_any_digit(self):
        assert tokenize("x² = 1;")[0].text == "x²"

    def test_decimal_digits_of_other_scripts(self):
        token = tokenize("x = ٤٢;")[2]
        assert token.kind is TokenKind.INT
        assert (token.text, token.value) == ("٤٢", 42)


class TestRecords:
    def test_tokens_and_locations_are_tuples(self):
        token = tokenize("x")[0]
        assert token == (TokenKind.IDENT, "x", (1, 1), 0)
        assert token.location < tokenize("\nx")[0].location
