"""A pretty-printer for SL ASTs.

The printer emits canonical source that re-parses to a structurally equal
AST (checked by a property test).  It is also the engine behind slice
extraction: an extracted slice is an AST, and :func:`pretty` turns it back
into a runnable program.
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
    Unary,
    Var,
    While,
    Write,
)

#: Precedence of binary operators; mirrors the parser's tiers.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}

_UNARY_PRECEDENCE = 7


def pretty_expr(expr: Expr, parent_precedence: int = 0) -> str:
    """Render *expr* with a minimal set of parentheses."""
    # Most frequent node kinds first.
    if isinstance(expr, Binary):
        precedence = _PRECEDENCE[expr.op]
        left = pretty_expr(expr.left, precedence)
        # Right operand gets precedence + 1: our binary operators are all
        # left-associative, so an equal-precedence right child needs parens.
        right = pretty_expr(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        if parent_precedence > precedence:
            return f"({text})"
        return text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Call):
        args = ", ".join(pretty_expr(arg) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Unary):
        inner = pretty_expr(expr.operand, _UNARY_PRECEDENCE)
        text = f"{expr.op}{inner}"
        # `- -x` must not lex as `--`; keep a space between unary minuses.
        if expr.op == "-" and inner.startswith("-"):
            text = f"- {inner}"
        if parent_precedence > _UNARY_PRECEDENCE:
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node: {expr!r}")


class _Printer:
    """Accumulates indented source lines for a statement tree."""

    def __init__(self, indent_unit: str = "    ") -> None:
        self._lines: List[str] = []
        self._indent_unit = indent_unit

    def _emit(self, depth: int, text: str) -> None:
        self._lines.append(f"{self._indent_unit * depth}{text}")

    def render(self) -> str:
        return "\n".join(self._lines) + ("\n" if self._lines else "")

    # ------------------------------------------------------------------

    def statement(self, stmt: Stmt, depth: int) -> None:
        prefix = f"{stmt.label}: " if stmt.label else ""
        if isinstance(stmt, Skip):
            self._emit(depth, f"{prefix};")
        elif isinstance(stmt, Assign):
            self._emit(
                depth, f"{prefix}{stmt.target} = {pretty_expr(stmt.value)};"
            )
        elif isinstance(stmt, Read):
            self._emit(depth, f"{prefix}read({stmt.target});")
        elif isinstance(stmt, Write):
            self._emit(depth, f"{prefix}write({pretty_expr(stmt.value)});")
        elif isinstance(stmt, Break):
            self._emit(depth, f"{prefix}break;")
        elif isinstance(stmt, Continue):
            self._emit(depth, f"{prefix}continue;")
        elif isinstance(stmt, Return):
            if stmt.value is None:
                self._emit(depth, f"{prefix}return;")
            else:
                self._emit(depth, f"{prefix}return {pretty_expr(stmt.value)};")
        elif isinstance(stmt, Goto):
            self._emit(depth, f"{prefix}goto {stmt.target};")
        elif isinstance(stmt, CallStmt):
            args = ", ".join(pretty_expr(arg) for arg in stmt.args)
            self._emit(depth, f"{prefix}call {stmt.name}({args});")
        elif isinstance(stmt, Block):
            self._emit(depth, f"{prefix}{{")
            for inner in stmt.stmts:
                self.statement(inner, depth + 1)
            self._emit(depth, "}")
        elif isinstance(stmt, If):
            # Conditional jumps print on one line, as the paper writes
            # them (`L3: if (eof()) goto L14;`).
            if (
                isinstance(stmt.then_branch, Goto)
                and stmt.then_branch.label is None
                and stmt.else_branch is None
            ):
                self._emit(
                    depth,
                    f"{prefix}if ({pretty_expr(stmt.cond)}) "
                    f"goto {stmt.then_branch.target};",
                )
                return
            self._emit(depth, f"{prefix}if ({pretty_expr(stmt.cond)})")
            self._branch(stmt.then_branch, depth)
            if stmt.else_branch is not None:
                self._emit(depth, "else")
                self._branch(stmt.else_branch, depth)
        elif isinstance(stmt, While):
            self._emit(depth, f"{prefix}while ({pretty_expr(stmt.cond)})")
            self._branch(stmt.body, depth)
        elif isinstance(stmt, DoWhile):
            self._emit(depth, f"{prefix}do")
            self._branch(stmt.body, depth)
            self._emit(depth, f"while ({pretty_expr(stmt.cond)});")
        elif isinstance(stmt, For):
            init = self._headerless(stmt.init)
            cond = pretty_expr(stmt.cond) if stmt.cond is not None else ""
            step = self._headerless(stmt.step)
            self._emit(depth, f"{prefix}for ({init}; {cond}; {step})")
            self._branch(stmt.body, depth)
        elif isinstance(stmt, Switch):
            self._emit(depth, f"{prefix}switch ({pretty_expr(stmt.subject)}) {{")
            for case in stmt.cases:
                for match in case.matches:
                    if match is None:
                        self._emit(depth + 1, "default:")
                    else:
                        self._emit(depth + 1, f"case {match}:")
                for inner in case.stmts:
                    self.statement(inner, depth + 2)
            self._emit(depth, "}")
        else:
            raise TypeError(f"unknown statement node: {stmt!r}")

    def proc(self, proc: ProcDecl, depth: int = 0) -> None:
        params = ", ".join(proc.params)
        self._emit(depth, f"proc {proc.name}({params}) {{")
        for inner in proc.body:
            self.statement(inner, depth + 1)
        self._emit(depth, "}")

    def _branch(self, stmt: Optional[Stmt], depth: int) -> None:
        """Render an if/loop body; non-blocks get one extra indent level."""
        if stmt is None:
            self._emit(depth + 1, ";")
        elif isinstance(stmt, Block):
            self.statement(stmt, depth)
        else:
            self.statement(stmt, depth + 1)

    @staticmethod
    def _headerless(stmt: Optional[Stmt]) -> str:
        """Render a for-header clause without the trailing semicolon."""
        if stmt is None:
            return ""
        if isinstance(stmt, Assign):
            return f"{stmt.target} = {pretty_expr(stmt.value)}"
        if isinstance(stmt, Read):
            return f"read({stmt.target})"
        raise TypeError(f"for-header clause must be assign/read: {stmt!r}")


def pretty(node) -> str:
    """Render a :class:`Program`, :class:`Stmt`, or :class:`Expr`.

    Programs print in canonical unit order: the main body first, then
    each ``proc`` declaration (parsing accepts either order, so the
    round-trip property still holds for mixed sources).
    """
    if isinstance(node, Program):
        printer = _Printer()
        for stmt in node.body:
            printer.statement(stmt, 0)
        for index, proc in enumerate(node.procs):
            if node.body or index:
                printer._lines.append("")
            printer.proc(proc)
        return printer.render()
    if isinstance(node, ProcDecl):
        printer = _Printer()
        printer.proc(node)
        return printer.render()
    if isinstance(node, Stmt):
        printer = _Printer()
        printer.statement(node, 0)
        return printer.render()
    if isinstance(node, Expr):
        return pretty_expr(node)
    raise TypeError(f"cannot pretty-print {node!r}")
