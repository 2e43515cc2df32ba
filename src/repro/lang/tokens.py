"""Token kinds and the :class:`Token` record produced by the SL lexer."""

from __future__ import annotations

import enum
from typing import Dict, NamedTuple

from repro.lang.errors import SourceLocation


class TokenKind(enum.Enum):
    """Every lexical category of SL."""

    # Literals and names.
    INT = "int-literal"
    IDENT = "identifier"

    # Keywords.
    IF = "if"
    ELSE = "else"
    WHILE = "while"
    DO = "do"
    FOR = "for"
    SWITCH = "switch"
    CASE = "case"
    DEFAULT = "default"
    BREAK = "break"
    CONTINUE = "continue"
    RETURN = "return"
    GOTO = "goto"
    READ = "read"
    WRITE = "write"
    PROC = "proc"
    CALL = "call"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    SEMI = ";"
    COLON = ":"
    COMMA = ","

    # Operators.
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    NOT = "!"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"

    # End of input sentinel.
    EOF = "<eof>"


#: Reserved words, mapped to their token kinds.  ``read``/``write`` are
#: keywords in SL (they are statements, not ordinary calls).
KEYWORDS: Dict[str, TokenKind] = {
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "do": TokenKind.DO,
    "for": TokenKind.FOR,
    "switch": TokenKind.SWITCH,
    "case": TokenKind.CASE,
    "default": TokenKind.DEFAULT,
    "break": TokenKind.BREAK,
    "continue": TokenKind.CONTINUE,
    "return": TokenKind.RETURN,
    "goto": TokenKind.GOTO,
    "read": TokenKind.READ,
    "write": TokenKind.WRITE,
    "proc": TokenKind.PROC,
    "call": TokenKind.CALL,
}


class Token(NamedTuple):
    """A single lexeme (an immutable named tuple, cheap to build).

    Attributes
    ----------
    kind:
        The lexical category.
    text:
        The exact source text of the lexeme.
    location:
        1-based line/column of the first character.
    value:
        For :attr:`TokenKind.INT` tokens, the parsed integer value.
    """

    kind: TokenKind
    text: str
    location: SourceLocation
    value: int = 0

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.location}"
