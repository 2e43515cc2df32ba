"""A recursive-descent parser for SL.

The grammar (EBNF; ``//`` comments elided by the lexer)::

    program    := (proc | stmt)* EOF
    proc       := 'proc' IDENT '(' (IDENT (',' IDENT)*)? ')' '{' stmt* '}'
    stmt       := IDENT ':' stmt            // statement label
                | 'if' '(' expr ')' stmt ('else' stmt)?
                | 'while' '(' expr ')' stmt
                | 'do' stmt 'while' '(' expr ')' ';'
                | 'for' '(' simple? ';' expr? ';' simple? ')' stmt
                | 'switch' '(' expr ')' '{' arm* '}'
                | '{' stmt* '}'
                | 'call' IDENT '(' (expr (',' expr)*)? ')' ';'
                | 'break' ';' | 'continue' ';' | 'goto' IDENT ';'
                | 'return' expr? ';'
                | 'read' '(' IDENT ')' ';'
                | 'write' '(' expr ')' ';'
                | IDENT '=' expr ';'
                | ';'
    arm        := (('case' ['-'] INT | 'default') ':')+ stmt*
    simple     := IDENT '=' expr | 'read' '(' IDENT ')'
    expr       := or
    or         := and ('||' and)*
    and        := equality ('&&' equality)*
    equality   := relational (('==' | '!=') relational)*
    relational := additive (('<' | '<=' | '>' | '>=') additive)*
    additive   := multiplicative (('+' | '-') multiplicative)*
    multiplicative := unary (('*' | '/' | '%') unary)*
    unary      := ('!' | '-') unary | primary
    primary    := INT | IDENT | IDENT '(' (expr (',' expr)*)? ')' | '(' expr ')'

Case labels of consecutive ``case``/``default`` tokens merge into one
switch arm (C fall-through between arms is modelled in the CFG builder,
not the parser).
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang.ast_nodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    CallStmt,
    Continue,
    DoWhile,
    Expr,
    For,
    Goto,
    If,
    Num,
    ProcDecl,
    Program,
    Read,
    Return,
    Skip,
    Stmt,
    Switch,
    SwitchCase,
    Unary,
    Var,
    While,
    Write,
)
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

#: Operator precedence tiers for the expression grammar, lowest first.
_BINARY_TIERS = [
    {TokenKind.OR: "||"},
    {TokenKind.AND: "&&"},
    {TokenKind.EQ: "==", TokenKind.NE: "!="},
    {
        TokenKind.LT: "<",
        TokenKind.LE: "<=",
        TokenKind.GT: ">",
        TokenKind.GE: ">=",
    },
    {TokenKind.PLUS: "+", TokenKind.MINUS: "-"},
    {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"},
]

#: Binary operator text -> (precedence, operator text), the precedence
#: being the operator's tier index in :data:`_BINARY_TIERS`.  Keyed by
#: token text, which no identifier, literal or keyword can share with an
#: operator: a str key hashes in C, a TokenKind key calls Enum.__hash__.
_BINARY_OPS = {
    text: (precedence, text)
    for precedence, tier in enumerate(_BINARY_TIERS)
    for kind, text in tier.items()
}


class Parser:
    """Parses a token stream into an SL AST."""

    def __init__(self, tokens: List[Token], source: Optional[str] = None) -> None:
        self._tokens = tokens
        self._pos = 0
        self._source = source

    # ------------------------------------------------------------------
    # Token stream helpers.
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # No bounds clamp: the stream ends in EOF, _advance never moves
        # past it, and a positive offset is only used after checking
        # that the current token is not EOF.
        return self._tokens[self._pos + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos].kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} {context}, found "
                f"{token.text or token.kind.value!r}",
                token.location,
                self._source,
            )
        if kind is not TokenKind.EOF:
            self._pos += 1
        return token

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------

    def parse_program(self) -> Program:
        """Parse the whole token stream into a :class:`Program`.

        ``proc`` declarations may appear anywhere at the top level;
        they are collected into :attr:`Program.procs` while the
        remaining top-level statements form the main unit.
        """
        body: List[Stmt] = []
        procs: List[ProcDecl] = []
        while not self._check(TokenKind.EOF):
            if self._check(TokenKind.PROC):
                procs.append(self._parse_proc())
            else:
                body.append(self.parse_statement())
        return Program(body=body, source=self._source, procs=procs)

    def _parse_proc(self) -> ProcDecl:
        token = self._expect(TokenKind.PROC, "at start of procedure")
        name = self._expect(TokenKind.IDENT, "after 'proc'")
        self._expect(TokenKind.LPAREN, "after procedure name")
        params: List[str] = []
        if not self._check(TokenKind.RPAREN):
            params.append(
                self._expect(TokenKind.IDENT, "in parameter list").text
            )
            while self._match(TokenKind.COMMA):
                params.append(
                    self._expect(TokenKind.IDENT, "in parameter list").text
                )
        self._expect(TokenKind.RPAREN, "after parameter list")
        brace = self._expect(TokenKind.LBRACE, "to open procedure body")
        body: List[Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError(
                    f"unterminated body of proc {name.text!r}",
                    brace.location,
                    self._source,
                )
            if self._check(TokenKind.PROC):
                raise ParseError(
                    "procedures cannot nest; close "
                    f"proc {name.text!r} before declaring another",
                    self._peek().location,
                    self._source,
                )
            body.append(self.parse_statement())
        self._expect(TokenKind.RBRACE, "to close procedure body")
        return ProcDecl(
            name=name.text,
            params=params,
            body=body,
            line=token.location.line,
        )

    def parse_statement(self) -> Stmt:
        """Parse one (possibly labelled) statement."""
        if self._check(TokenKind.IDENT) and self._peek(1).kind is TokenKind.COLON:
            label_token = self._advance()
            self._advance()  # ':'
            stmt = self.parse_statement()
            if stmt.label is not None:
                raise ParseError(
                    f"statement already labelled {stmt.label!r}; "
                    f"second label {label_token.text!r} not supported",
                    label_token.location,
                    self._source,
                )
            stmt.label = label_token.text
            # The label is the statement's first token; the paper numbers
            # the labelled statement by the label's line.
            stmt.line = min(stmt.line, label_token.location.line) or (
                label_token.location.line
            )
            return stmt
        return self._parse_unlabelled()

    def _parse_unlabelled(self) -> Stmt:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.IDENT:  # assignments are the commonest
            stmt = self._parse_assign_core()
            self._expect(TokenKind.SEMI, "after assignment")
            return stmt
        if kind is TokenKind.IF:
            return self._parse_if()
        if kind is TokenKind.WHILE:
            return self._parse_while()
        if kind is TokenKind.DO:
            return self._parse_do_while()
        if kind is TokenKind.FOR:
            return self._parse_for()
        if kind is TokenKind.SWITCH:
            return self._parse_switch()
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        if kind is TokenKind.BREAK:
            self._advance()
            self._expect(TokenKind.SEMI, "after 'break'")
            return Break(line=token.location.line)
        if kind is TokenKind.CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI, "after 'continue'")
            return Continue(line=token.location.line)
        if kind is TokenKind.CALL:
            self._advance()
            name = self._expect(TokenKind.IDENT, "after 'call'")
            self._expect(TokenKind.LPAREN, "after callee name")
            args: List[Expr] = []
            if not self._check(TokenKind.RPAREN):
                args.append(self.parse_expr())
                while self._match(TokenKind.COMMA):
                    args.append(self.parse_expr())
            self._expect(TokenKind.RPAREN, "to close call arguments")
            self._expect(TokenKind.SEMI, "after 'call ...()'")
            return CallStmt(
                line=token.location.line, name=name.text, args=args
            )
        if kind is TokenKind.GOTO:
            self._advance()
            target = self._expect(TokenKind.IDENT, "after 'goto'")
            self._expect(TokenKind.SEMI, "after goto target")
            return Goto(line=token.location.line, target=target.text)
        if kind is TokenKind.RETURN:
            self._advance()
            value: Optional[Expr] = None
            if not self._check(TokenKind.SEMI):
                value = self.parse_expr()
            self._expect(TokenKind.SEMI, "after 'return'")
            return Return(line=token.location.line, value=value)
        if kind is TokenKind.READ:
            stmt = self._parse_read_core()
            self._expect(TokenKind.SEMI, "after 'read(...)'")
            return stmt
        if kind is TokenKind.WRITE:
            self._advance()
            self._expect(TokenKind.LPAREN, "after 'write'")
            value = self.parse_expr()
            self._expect(TokenKind.RPAREN, "after write expression")
            self._expect(TokenKind.SEMI, "after 'write(...)'")
            return Write(line=token.location.line, value=value)
        if kind is TokenKind.SEMI:
            self._advance()
            return Skip(line=token.location.line)
        raise ParseError(
            f"expected a statement, found {token.text or token.kind.value!r}",
            token.location,
            self._source,
        )

    def _parse_read_core(self) -> Read:
        token = self._expect(TokenKind.READ, "at start of read statement")
        self._expect(TokenKind.LPAREN, "after 'read'")
        target = self._expect(TokenKind.IDENT, "inside 'read(...)'")
        self._expect(TokenKind.RPAREN, "after read target")
        return Read(line=token.location.line, target=target.text)

    def _parse_assign_core(self) -> Assign:
        target = self._expect(TokenKind.IDENT, "at start of assignment")
        self._expect(TokenKind.ASSIGN, "in assignment")
        value = self.parse_expr()
        return Assign(line=target.location.line, target=target.text, value=value)

    def _parse_simple(self, context: str) -> Stmt:
        """A for-header clause: assignment or read, no trailing ';'."""
        if self._check(TokenKind.READ):
            return self._parse_read_core()
        if self._check(TokenKind.IDENT):
            return self._parse_assign_core()
        token = self._peek()
        raise ParseError(
            f"expected an assignment or read {context}, found "
            f"{token.text or token.kind.value!r}",
            token.location,
            self._source,
        )

    def _parse_if(self) -> If:
        token = self._expect(TokenKind.IF, "at start of if")
        self._expect(TokenKind.LPAREN, "after 'if'")
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN, "after if condition")
        then_branch = self.parse_statement()
        else_branch: Optional[Stmt] = None
        if self._match(TokenKind.ELSE):
            else_branch = self.parse_statement()
        return If(
            line=token.location.line,
            cond=cond,
            then_branch=then_branch,
            else_branch=else_branch,
        )

    def _parse_while(self) -> While:
        token = self._expect(TokenKind.WHILE, "at start of while")
        self._expect(TokenKind.LPAREN, "after 'while'")
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN, "after while condition")
        body = self.parse_statement()
        return While(line=token.location.line, cond=cond, body=body)

    def _parse_do_while(self) -> DoWhile:
        token = self._expect(TokenKind.DO, "at start of do-while")
        body = self.parse_statement()
        self._expect(TokenKind.WHILE, "after do-while body")
        self._expect(TokenKind.LPAREN, "after 'while'")
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN, "after do-while condition")
        self._expect(TokenKind.SEMI, "after do-while")
        return DoWhile(line=token.location.line, body=body, cond=cond)

    def _parse_for(self) -> For:
        token = self._expect(TokenKind.FOR, "at start of for")
        self._expect(TokenKind.LPAREN, "after 'for'")
        init: Optional[Stmt] = None
        if not self._check(TokenKind.SEMI):
            init = self._parse_simple("in for initialiser")
        self._expect(TokenKind.SEMI, "after for initialiser")
        cond: Optional[Expr] = None
        if not self._check(TokenKind.SEMI):
            cond = self.parse_expr()
        self._expect(TokenKind.SEMI, "after for condition")
        step: Optional[Stmt] = None
        if not self._check(TokenKind.RPAREN):
            step = self._parse_simple("in for step")
        self._expect(TokenKind.RPAREN, "after for header")
        body = self.parse_statement()
        return For(
            line=token.location.line, init=init, cond=cond, step=step, body=body
        )

    def _parse_switch(self) -> Switch:
        token = self._expect(TokenKind.SWITCH, "at start of switch")
        self._expect(TokenKind.LPAREN, "after 'switch'")
        subject = self.parse_expr()
        self._expect(TokenKind.RPAREN, "after switch subject")
        self._expect(TokenKind.LBRACE, "to open switch body")
        cases: List[SwitchCase] = []
        while not self._check(TokenKind.RBRACE):
            cases.append(self._parse_switch_arm())
        self._expect(TokenKind.RBRACE, "to close switch body")
        return Switch(line=token.location.line, subject=subject, cases=cases)

    def _parse_switch_arm(self) -> SwitchCase:
        arm = SwitchCase()
        token = self._peek()
        if token.kind not in (TokenKind.CASE, TokenKind.DEFAULT):
            raise ParseError(
                "switch body must start with 'case' or 'default', found "
                f"{token.text or token.kind.value!r}",
                token.location,
                self._source,
            )
        arm.line = token.location.line
        while self._peek().kind in (TokenKind.CASE, TokenKind.DEFAULT):
            head = self._advance()
            if head.kind is TokenKind.CASE:
                negative = self._match(TokenKind.MINUS) is not None
                value_token = self._expect(TokenKind.INT, "after 'case'")
                value = -value_token.value if negative else value_token.value
                arm.matches.append(value)
            else:
                arm.matches.append(None)
            self._expect(TokenKind.COLON, "after case label")
        while self._peek().kind not in (
            TokenKind.CASE,
            TokenKind.DEFAULT,
            TokenKind.RBRACE,
            TokenKind.EOF,
        ):
            arm.stmts.append(self.parse_statement())
        return arm

    def _parse_block(self) -> Block:
        token = self._expect(TokenKind.LBRACE, "to open block")
        stmts: List[Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError(
                    "unterminated block", token.location, self._source
                )
            stmts.append(self.parse_statement())
        self._expect(TokenKind.RBRACE, "to close block")
        return Block(line=token.location.line, stmts=stmts)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing over _BINARY_TIERS).
    # ------------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_precedence: int) -> Expr:
        """An operand followed by binary operators of precedence at
        least *min_precedence*.  Every tier is left-associative, so the
        right operand only takes operators that bind tighter — the same
        tree the one-function-per-tier grammar above builds, with one
        call per operand instead of one per tier."""
        left = self._parse_operand()
        tokens = self._tokens
        while True:
            entry = _BINARY_OPS.get(tokens[self._pos].text)
            if entry is None or entry[0] < min_precedence:
                return left
            precedence, op = entry
            self._pos += 1
            right = self._parse_binary(precedence + 1)
            left = Binary(op=op, left=left, right=right)

    def _parse_operand(self) -> Expr:
        """The ``unary`` production, ``primary`` included."""
        token = self._tokens[self._pos]
        kind = token.kind
        if kind is TokenKind.IDENT:
            self._pos += 1
            if self._tokens[self._pos].kind is TokenKind.LPAREN:
                self._pos += 1
                args: List[Expr] = []
                if not self._check(TokenKind.RPAREN):
                    args.append(self.parse_expr())
                    while self._match(TokenKind.COMMA):
                        args.append(self.parse_expr())
                self._expect(TokenKind.RPAREN, "to close call arguments")
                return Call(name=token.text, args=tuple(args))
            return Var(name=token.text)
        if kind is TokenKind.INT:
            self._pos += 1
            return Num(value=token.value)
        if kind is TokenKind.LPAREN:
            self._pos += 1
            inner = self.parse_expr()
            self._expect(TokenKind.RPAREN, "to close parenthesised expression")
            return inner
        if kind is TokenKind.NOT or kind is TokenKind.MINUS:
            self._pos += 1
            return Unary(op=token.text, operand=self._parse_operand())
        raise ParseError(
            f"expected an expression, found {token.text or kind.value!r}",
            token.location,
            self._source,
        )


def parse_program(source: str) -> Program:
    """Parse SL *source* text into a :class:`Program`."""
    parser = Parser(tokenize(source), source=source)
    return parser.parse_program()


def parse_expression(source: str) -> Expr:
    """Parse a single SL expression (used by tests and the REPL)."""
    parser = Parser(tokenize(source), source=source)
    expr = parser.parse_expr()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected trailing input {trailing.text!r}",
            trailing.location,
            source,
        )
    return expr
