"""The character-at-a-time SL scanner, kept as the lexer's test oracle.

This is the scanner :mod:`repro.lang.lexer` used before it became one
compiled regular expression.  The differential suite
(``test_frontend_differential.py``) holds the production lexer to the
token stream and the error class, message and location produced here.

One deliberate change from the original: a digit run holding a
non-decimal Unicode digit such as ``²`` (``str.isdigit`` accepts it,
``int`` rejects it) used to escape as a bare ``ValueError``; here, as in
the production lexer, it is a :class:`LexError` at the first such digit.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.lang.errors import LexError, SourceLocation
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Two-character operators, checked before single-character ones.
_TWO_CHAR_OPS = {
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
}

_ONE_CHAR_OPS = {
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


class Lexer:
    """Scans SL source text into a list of :class:`Token`.

    The scanner tracks 1-based line/column positions so that every token
    (and therefore every AST node and CFG node) can be traced back to its
    source line — the paper identifies statements by line number, and the
    reproduction's corpus tests rely on that mapping.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self._pos = 0
        self._line = 1
        self._col = 1

    # ------------------------------------------------------------------
    # Character-level helpers.
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def _advance(self) -> str:
        ch = self.source[self._pos]
        self._pos += 1
        if ch == "\n":
            self._line += 1
            self._col = 1
        else:
            self._col += 1
        return ch

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._col)

    def _at_end(self) -> bool:
        return self._pos >= len(self.source)

    # ------------------------------------------------------------------
    # Token-level scanning.
    # ------------------------------------------------------------------

    def _skip_trivia(self) -> None:
        """Skip whitespace and both comment styles."""
        while not self._at_end():
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance()
                self._advance()
                while True:
                    if self._at_end():
                        raise LexError(
                            "unterminated block comment", start, self.source
                        )
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
            else:
                return

    def _scan_number(self) -> Token:
        start = self._location()
        text = []
        while not self._at_end() and self._peek().isdigit():
            text.append(self._advance())
        if not self._at_end() and (self._peek().isalpha() or self._peek() == "_"):
            raise LexError(
                f"malformed number: digit followed by {self._peek()!r}",
                self._location(),
                self.source,
            )
        lexeme = "".join(text)
        for offset, digit in enumerate(lexeme):
            if not digit.isdecimal():
                raise LexError(
                    f"unexpected character {digit!r}",
                    SourceLocation(start.line, start.column + offset),
                    self.source,
                )
        return Token(TokenKind.INT, lexeme, start, value=int(lexeme))

    def _scan_word(self) -> Token:
        start = self._location()
        text = []
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            text.append(self._advance())
        lexeme = "".join(text)
        kind = KEYWORDS.get(lexeme, TokenKind.IDENT)
        return Token(kind, lexeme, start)

    def next_token(self) -> Token:
        """Scan and return the next token (EOF at end of input)."""
        self._skip_trivia()
        if self._at_end():
            return Token(TokenKind.EOF, "", self._location())
        start = self._location()
        ch = self._peek()
        if ch.isdigit():
            return self._scan_number()
        if ch.isalpha() or ch == "_":
            return self._scan_word()
        two = ch + self._peek(1)
        if two in _TWO_CHAR_OPS:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR_OPS[two], two, start)
        if ch in _ONE_CHAR_OPS:
            self._advance()
            return Token(_ONE_CHAR_OPS[ch], ch, start)
        raise LexError(f"unexpected character {ch!r}", start, self.source)

    def tokens(self) -> Iterator[Token]:
        """Yield tokens up to and including the EOF sentinel."""
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return


def reference_tokenize(source: str) -> List[Token]:
    """Scan *source* into a token list ending with an EOF token."""
    return list(Lexer(source).tokens())
