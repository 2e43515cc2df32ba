"""The SL lexer: one compiled regular expression.

It supports ``//`` line comments and ``/* ... */`` block comments,
decimal integer literals, identifiers, and the operator set listed in
:mod:`repro.lang.tokens`.  Whitespace is space, tab, CR and LF; columns
count code points, and only LF starts a new line.

Every position of the source is matched by exactly one alternative of
:data:`_TOKEN`, the last being a one-character catch-all, so
``finditer`` walks the source without gaps.  The common tokens (ASCII
words, operators, decimal runs not followed by a word character) are
built straight from the match.  The rest — an unterminated comment, a
digit run running into a word character, a word starting with a
non-ASCII character, any other character — take :func:`_irregular`,
which applies the ``str.isdigit``/``str.isalpha`` rules of the grammar
and either builds a non-ASCII identifier or raises the :class:`LexError`.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NoReturn

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_OPERATORS = {
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "!": TokenKind.NOT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
}

# ``\w`` is exactly ``str.isalnum() or "_"`` and ``\d`` exactly
# ``str.isdecimal()`` on str patterns, so the regex and the old
# per-character predicates agree on every code point.
_TOKEN = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<word>[A-Za-z_]\w*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-(){};:,=+*%!<>]|/(?![/*]))
  | (?P<int>\d+)(?P<int_word>\w)?
  | (?P<comment>//[^\n]*)
  | (?P<block>/\*(?s:.*?)\*/)
  | (?P<open_block>/\*)
  | (?P<other_word>[^\W\d]\w*)
  | (?P<other>(?s:.))
    """,
    re.VERBOSE,
)

_IDENT = TokenKind.IDENT
_INT = TokenKind.INT
#: ``tuple.__new__`` builds the named tuples without their Python-level
#: ``__new__`` — about a third of the cost, on the hottest line here.
_new = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """Scan *source* into a token list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    keyword = KEYWORDS.get
    line = 1
    line_start = 0  # offset of the first character of the current line
    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        text = match.group()
        if group == "ws" or group == "block":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        if group == "comment":
            continue
        start = match.start()
        location = _new(SourceLocation, (line, start - line_start + 1))
        if group == "word":
            append(_new(Token, (keyword(text, _IDENT), text, location, 0)))
        elif group == "op":
            append(_new(Token, (_OPERATORS[text], text, location, 0)))
        elif group == "int":
            append(_new(Token, (_INT, text, location, int(text))))
        else:
            append(_irregular(source, match, line, line_start))
    end = SourceLocation(line, len(source) - line_start + 1)
    append(Token(TokenKind.EOF, "", end))
    return tokens


def _irregular(
    source: str, match: "re.Match[str]", line: int, line_start: int
) -> Token:
    """The token of a rare alternative, or the error it stands for."""

    def fail(message: str, offset: int) -> NoReturn:
        location = SourceLocation(line, offset - line_start + 1)
        raise LexError(message, location, source)

    group, start = match.lastgroup, match.start()
    first = source[start]
    if group == "open_block":
        fail("unterminated block comment", start)
    if group == "other_word" and first.isalpha():
        location = SourceLocation(line, start - line_start + 1)
        return Token(_IDENT, match.group(), location)
    if group == "other" or not first.isdigit():
        fail(f"unexpected character {first!r}", start)
    # A digit run (``str.isdigit``) that is not a plain decimal number.
    end = start
    while end < len(source) and source[end].isdigit():
        end += 1
    if end < len(source) and (source[end].isalpha() or source[end] == "_"):
        fail(f"malformed number: digit followed by {source[end]!r}", end)
    # The first non-decimal digit, else the numeric character (say
    # ``½``) after the run, which no token can start with.
    bad = next(i for i in range(start, end + 1) if not source[i].isdecimal())
    fail(f"unexpected character {source[bad]!r}", bad)


class Lexer:
    """Iterator front for :func:`tokenize`, kept for API compatibility."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokens(self) -> Iterator[Token]:
        """Yield tokens up to and including the EOF sentinel."""
        return iter(tokenize(self.source))
