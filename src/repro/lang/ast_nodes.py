"""Abstract syntax trees for SL.

Statements carry their 1-based source ``line`` and an optional statement
``label`` (the ``L3:`` prefix used by goto targets).  The paper's
algorithms are formulated over *statements*, so every statement node has
an identity; expression nodes are plain values.

The module also provides :func:`walk_statements`, a pre-order lexical walk
used by the lexical-successor-tree construction, the validator, and the
pretty-printer tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple, Union


# ----------------------------------------------------------------------
# Expressions.
# ----------------------------------------------------------------------


class Expr:
    """Base class of SL expressions."""

    def variables(self) -> Set[str]:
        """The set of variable names read by this expression."""
        raise NotImplementedError

    def calls(self) -> Set[str]:
        """The set of intrinsic function names invoked by this expression."""
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    """An integer literal."""

    value: int

    def variables(self) -> Set[str]:
        return set()

    def calls(self) -> Set[str]:
        return set()


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference."""

    name: str

    def variables(self) -> Set[str]:
        return {self.name}

    def calls(self) -> Set[str]:
        return set()


@dataclass(frozen=True)
class Call(Expr):
    """A call to a pure intrinsic function, for example ``f1(x)``.

    SL has no user-defined functions (the paper is intraprocedural); calls
    name *intrinsics* — pure functions supplied by the runtime, such as
    the ``f1``/``f2``/``f3`` of the paper's running example and ``eof()``.
    """

    name: str
    args: Tuple[Expr, ...]

    def variables(self) -> Set[str]:
        out: Set[str] = set()
        for arg in self.args:
            out |= arg.variables()
        return out

    def calls(self) -> Set[str]:
        out = {self.name}
        for arg in self.args:
            out |= arg.calls()
        return out


@dataclass(frozen=True)
class Unary(Expr):
    """A unary operation: ``!e`` or ``-e``."""

    op: str
    operand: Expr

    def variables(self) -> Set[str]:
        return self.operand.variables()

    def calls(self) -> Set[str]:
        return self.operand.calls()


@dataclass(frozen=True)
class Binary(Expr):
    """A binary operation with a C-like operator."""

    op: str
    left: Expr
    right: Expr

    def variables(self) -> Set[str]:
        return self.left.variables() | self.right.variables()

    def calls(self) -> Set[str]:
        return self.left.calls() | self.right.calls()


# ----------------------------------------------------------------------
# Statements.
# ----------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class of SL statements.

    Attributes
    ----------
    line:
        1-based source line of the statement's first token.
    label:
        Optional goto label (``L3:``) attached to the statement.
    """

    line: int = field(default=0, compare=False)
    label: Optional[str] = field(default=None, compare=False)


@dataclass
class Skip(Stmt):
    """The empty statement ``;`` — occasionally a label carrier."""


@dataclass
class Assign(Stmt):
    """``target = value;``"""

    target: str = ""
    value: Expr = Num(0)


@dataclass
class Read(Stmt):
    """``read(target);`` — consume one value from the input stream."""

    target: str = ""


@dataclass
class Write(Stmt):
    """``write(value);`` — append a value to the output stream."""

    value: Expr = Num(0)


@dataclass
class If(Stmt):
    """``if (cond) then_branch [else else_branch]``"""

    cond: Expr = Num(0)
    then_branch: Optional[Stmt] = None
    else_branch: Optional[Stmt] = None


@dataclass
class While(Stmt):
    """``while (cond) body``"""

    cond: Expr = Num(0)
    body: Optional[Stmt] = None


@dataclass
class DoWhile(Stmt):
    """``do body while (cond);``"""

    body: Optional[Stmt] = None
    cond: Expr = Num(0)


@dataclass
class For(Stmt):
    """``for (init; cond; step) body``.

    ``init`` and ``step`` are optional simple statements (assignment or
    read); ``cond`` is optional (absent means "always true", which the
    validator rejects unless the body can still reach EXIT via a jump).
    """

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Optional[Stmt] = None


@dataclass
class SwitchCase:
    """One arm of a switch: its match values and its statements.

    ``matches`` lists the integer ``case`` values attached to the arm's
    first statement position; ``None`` in the list denotes ``default``.
    Control *falls through* from the end of one arm into the next, exactly
    as in C, unless a ``break`` intervenes.
    """

    matches: List[Optional[int]] = field(default_factory=list)
    stmts: List[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class Switch(Stmt):
    """``switch (subject) { case ...: ... }`` with C fall-through."""

    subject: Expr = Num(0)
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class Break(Stmt):
    """``break;`` — jump past the innermost enclosing loop or switch."""


@dataclass
class Continue(Stmt):
    """``continue;`` — jump to the innermost enclosing loop's next test."""


@dataclass
class Return(Stmt):
    """``return [value];`` — jump to program EXIT."""

    value: Optional[Expr] = None


@dataclass
class Goto(Stmt):
    """``goto target;``"""

    target: str = ""


@dataclass
class CallStmt(Stmt):
    """``call name(arg, ...);`` — invoke a declared procedure.

    SL procedures communicate exclusively through their parameters,
    which are passed by *value-result* (copy-in / copy-out): on entry
    each formal receives the value of its actual argument; on return
    each actual that is a plain variable receives the final value of
    its formal.  Arguments that are not plain variables are copy-in
    only.  This is the classic parameter model of the
    Horwitz–Reps–Binkley system-dependence-graph construction, where it
    yields one actual-in vertex per argument and one actual-out vertex
    per variable argument.
    """

    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class Block(Stmt):
    """``{ stmts }``"""

    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class ProcDecl:
    """``proc name(p1, ..., pk) { body }`` — a procedure declaration.

    Procedures appear only at the top level of a program; their bodies
    are ordinary statement sequences.  ``line`` is the declaration
    line.  A ``return`` inside a procedure jumps to the procedure's
    exit (through its formal-out prelude), not to the program's.
    """

    name: str = ""
    params: List[str] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    line: int = 0


#: The synthetic unit name for a program's top-level statement sequence.
MAIN_UNIT = "main"


@dataclass
class Program:
    """A whole SL program: a top-level statement sequence (the *main*
    unit) plus any ``proc`` declarations."""

    body: List[Stmt] = field(default_factory=list)
    source: Optional[str] = None
    procs: List[ProcDecl] = field(default_factory=list)
    #: Validation verdict and parameter signatures, memoized by
    #: :mod:`repro.cfg.builder` on the first CFG build of any unit.
    #: Programs are not mutated once built into a CFG (the generators
    #: edit statement lists, then wrap them in a fresh Program).
    cfg_front: Optional[Tuple[Optional[str], dict]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def statements(self) -> Iterator[Stmt]:
        """Pre-order lexical walk over the main unit's statements.

        Procedure bodies are *not* included — label scoping, criterion
        lines, and the single-procedure pipeline all operate on one
        unit at a time.  Use :meth:`all_statements` to span every unit.
        """
        for stmt in self.body:
            yield from walk_statements(stmt)

    def all_statements(self) -> Iterator[Stmt]:
        """Pre-order lexical walk over every unit (main, then procs)."""
        yield from self.statements()
        for proc in self.procs:
            for stmt in proc.body:
                yield from walk_statements(stmt)

    def units(self) -> Iterator[Tuple[str, List[Stmt]]]:
        """Yield ``(unit name, statement list)`` for main and each proc."""
        yield (MAIN_UNIT, self.body)
        for proc in self.procs:
            yield (proc.name, proc.body)

    def proc_named(self, name: str) -> Optional[ProcDecl]:
        for proc in self.procs:
            if proc.name == name:
                return proc
        return None


def walk_statements(stmt: Stmt) -> Iterator[Stmt]:
    """Yield *stmt* and every statement nested inside it, in lexical
    (pre-order, source) order.

    ``Block`` nodes are yielded too: they are real AST nodes, though they
    never become CFG nodes.
    """
    yield stmt
    if isinstance(stmt, If):
        if stmt.then_branch is not None:
            yield from walk_statements(stmt.then_branch)
        if stmt.else_branch is not None:
            yield from walk_statements(stmt.else_branch)
    elif isinstance(stmt, While):
        if stmt.body is not None:
            yield from walk_statements(stmt.body)
    elif isinstance(stmt, DoWhile):
        if stmt.body is not None:
            yield from walk_statements(stmt.body)
    elif isinstance(stmt, For):
        if stmt.init is not None:
            yield from walk_statements(stmt.init)
        if stmt.step is not None:
            yield from walk_statements(stmt.step)
        if stmt.body is not None:
            yield from walk_statements(stmt.body)
    elif isinstance(stmt, Switch):
        for case in stmt.cases:
            for inner in case.stmts:
                yield from walk_statements(inner)
    elif isinstance(stmt, Block):
        for inner in stmt.stmts:
            yield from walk_statements(inner)


#: Statements that transfer control unconditionally when executed.
JumpStmt = Union[Break, Continue, Return, Goto]


def is_jump(stmt: Stmt) -> bool:
    """True for the four unconditional jump statement kinds.

    The paper uses "jump statement" for ``goto`` and its structured
    derivatives ``break``, ``continue``, and ``return`` (footnote 1).
    """
    return isinstance(stmt, (Break, Continue, Return, Goto))
