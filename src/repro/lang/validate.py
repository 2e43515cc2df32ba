"""Semantic validation of SL programs.

Checks performed before any analysis runs:

* every ``goto`` target names a label that exists *in the same unit*
  (labels are scoped to the unit — main or one ``proc`` — that defines
  them; jumping into another procedure is meaningless);
* labels are unique within their unit;
* ``break`` only appears inside a loop or a switch;
* ``continue`` only appears inside a loop;
* no switch arm repeats a ``case`` value or has two ``default`` labels;
* procedure declarations are unique (and never named ``main``, the
  reserved name of the top-level unit);
* every ``call`` names a declared procedure and passes exactly as many
  arguments as the procedure has parameters.

The core, :func:`check_program_diagnostics`, emits structured
:class:`~repro.lint.diagnostics.Diagnostic` objects (stable ``SL0xx``
codes, severity, position, fix hint) — the same model the ``slang
check`` rule engine uses.  :func:`check_program` remains as a thin
formatting shim returning the historical ``line N: ...`` strings, and
:func:`validate_program` still raises :class:`ValidationError` joining
them, so existing callers are unaffected.

:func:`collect_labels` is shared with the CFG builder.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.lang.ast_nodes import (
    Block,
    Break,
    CallStmt,
    Continue,
    DoWhile,
    For,
    Goto,
    If,
    MAIN_UNIT,
    ProcDecl,
    Program,
    Stmt,
    Switch,
    While,
    walk_statements,
)
from repro.lang.errors import ValidationError
from repro.lint.diagnostics import Diagnostic, Severity

#: Front-end diagnostic codes (the SL0xx block).  SL001 is reserved for
#: lexer/parser failures and is emitted by the lint driver, which is the
#: only place a syntax error can be reported rather than raised.
CODE_SYNTAX_ERROR = "SL001"
CODE_DUPLICATE_LABEL = "SL002"
CODE_UNDEFINED_GOTO = "SL003"
CODE_MISPLACED_BREAK = "SL004"
CODE_MISPLACED_CONTINUE = "SL005"
CODE_DUPLICATE_CASE = "SL006"
CODE_UNDEFINED_PROC = "SL007"
CODE_DUPLICATE_PROC = "SL008"
CODE_CALL_ARITY = "SL009"


def _unit_statements(stmts: Iterable[Stmt]):
    for top in stmts:
        yield from walk_statements(top)


def collect_labels(program: Program) -> Dict[str, Stmt]:
    """Map each main-unit statement label to its statement.

    Labels are unit-scoped; this helper covers the main unit only (the
    CFG builder collects per-procedure labels itself while wiring).

    Raises
    ------
    ValidationError
        If two statements carry the same label.
    """
    labels: Dict[str, Stmt] = {}
    for stmt in program.statements():
        if stmt.label is None:
            continue
        if stmt.label in labels:
            raise ValidationError(
                f"duplicate label {stmt.label!r} "
                f"(lines {labels[stmt.label].line} and {stmt.line})"
            )
        labels[stmt.label] = stmt
    return labels


def check_program_diagnostics(program: Program) -> List[Diagnostic]:
    """Return structured diagnostics (empty when valid).

    All front-end findings are errors: a program carrying any of them
    cannot be given a CFG.  Emission order matches the historical string
    API (labels, gotos, jump placement, switch arms, per unit in source
    order) so the shims below reproduce the old output byte for byte on
    procedure-free programs.
    """
    diagnostics: List[Diagnostic] = []

    proc_table: Dict[str, ProcDecl] = {}
    for proc in program.procs:
        if proc.name == MAIN_UNIT:
            diagnostics.append(
                _error(
                    CODE_DUPLICATE_PROC,
                    "reserved-proc-name",
                    proc.line,
                    f"procedure name {MAIN_UNIT!r} is reserved for the "
                    "top-level unit",
                    hint="rename the procedure",
                )
            )
        elif proc.name in proc_table:
            diagnostics.append(
                _error(
                    CODE_DUPLICATE_PROC,
                    "duplicate-proc",
                    proc.line,
                    f"duplicate procedure {proc.name!r} (first declared "
                    f"on line {proc_table[proc.name].line})",
                    hint="rename one of the procedures",
                )
            )
        else:
            proc_table[proc.name] = proc

    for unit_name, body in program.units():
        _check_unit(unit_name, body, proc_table, diagnostics)

    return diagnostics


def _check_unit(
    unit_name: str,
    body: List[Stmt],
    proc_table: Dict[str, ProcDecl],
    diagnostics: List[Diagnostic],
) -> None:
    in_proc = f" in proc {unit_name!r}" if unit_name != MAIN_UNIT else ""

    # One walk, four passes: the passes stay separate so diagnostics keep
    # their historical emission order.
    statements = list(_unit_statements(body))
    labels: Dict[str, Stmt] = {}
    for stmt in statements:
        if stmt.label is not None:
            if stmt.label in labels:
                diagnostics.append(
                    _error(
                        CODE_DUPLICATE_LABEL,
                        "duplicate-label",
                        stmt.line,
                        f"duplicate label {stmt.label!r} "
                        f"(first defined on line {labels[stmt.label].line})"
                        + in_proc,
                        hint="rename one of the labels",
                    )
                )
            else:
                labels[stmt.label] = stmt

    for stmt in statements:
        if isinstance(stmt, Goto) and stmt.target not in labels:
            diagnostics.append(
                _error(
                    CODE_UNDEFINED_GOTO,
                    "undefined-goto-target",
                    stmt.line,
                    f"goto to undefined label {stmt.target!r}" + in_proc,
                    hint=(
                        "add the label or fix the goto target (labels are "
                        "scoped to their unit; a goto cannot cross a "
                        "procedure boundary)"
                        if in_proc
                        else "add the label or fix the goto target"
                    ),
                )
            )

    for top in body:
        _check_jump_placement(top, diagnostics, in_loop=False, in_switch=False)

    for stmt in statements:
        if isinstance(stmt, Switch):
            _check_switch_arms(stmt, diagnostics)

    for stmt in statements:
        if not isinstance(stmt, CallStmt):
            continue
        callee = proc_table.get(stmt.name)
        if callee is None:
            diagnostics.append(
                _error(
                    CODE_UNDEFINED_PROC,
                    "undefined-proc-call",
                    stmt.line,
                    f"call to undefined procedure {stmt.name!r}" + in_proc,
                    hint="declare the procedure or fix the callee name",
                )
            )
        elif len(stmt.args) != len(callee.params):
            diagnostics.append(
                _error(
                    CODE_CALL_ARITY,
                    "call-arity-mismatch",
                    stmt.line,
                    f"call to {stmt.name!r} passes {len(stmt.args)} "
                    f"argument(s); the procedure declares "
                    f"{len(callee.params)} parameter(s) "
                    f"(line {callee.line})" + in_proc,
                    hint="match the call's argument count to the "
                    "procedure's parameter list",
                )
            )


def check_program(program: Program) -> List[str]:
    """Return a list of diagnostic messages (empty when valid).

    Formatting shim over :func:`check_program_diagnostics`, kept for the
    historical stringly-typed API.
    """
    return [
        f"line {diagnostic.line}: {diagnostic.message}"
        for diagnostic in check_program_diagnostics(program)
    ]


def _error(
    code: str, rule: str, line: int, message: str, hint: str = ""
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=Severity.ERROR,
        line=line,
        message=message,
        rule=rule,
        hint=hint or None,
    )


def _check_jump_placement(
    stmt: Stmt, diagnostics: List[Diagnostic], in_loop: bool, in_switch: bool
) -> None:
    """Recursively verify that break/continue appear in a legal context."""
    if isinstance(stmt, Break):
        if not (in_loop or in_switch):
            diagnostics.append(
                _error(
                    CODE_MISPLACED_BREAK,
                    "misplaced-break",
                    stmt.line,
                    "'break' outside a loop or switch",
                )
            )
    elif isinstance(stmt, Continue):
        if not in_loop:
            diagnostics.append(
                _error(
                    CODE_MISPLACED_CONTINUE,
                    "misplaced-continue",
                    stmt.line,
                    "'continue' outside a loop",
                )
            )
    elif isinstance(stmt, If):
        if stmt.then_branch is not None:
            _check_jump_placement(stmt.then_branch, diagnostics, in_loop, in_switch)
        if stmt.else_branch is not None:
            _check_jump_placement(stmt.else_branch, diagnostics, in_loop, in_switch)
    elif isinstance(stmt, (While, DoWhile)):
        if stmt.body is not None:
            # A new loop context: break leaves this loop, not any switch.
            _check_jump_placement(
                stmt.body, diagnostics, in_loop=True, in_switch=False
            )
    elif isinstance(stmt, For):
        if stmt.body is not None:
            _check_jump_placement(
                stmt.body, diagnostics, in_loop=True, in_switch=False
            )
    elif isinstance(stmt, Switch):
        for case in stmt.cases:
            for inner in case.stmts:
                _check_jump_placement(
                    inner, diagnostics, in_loop=in_loop, in_switch=True
                )
    elif isinstance(stmt, Block):
        for inner in stmt.stmts:
            _check_jump_placement(inner, diagnostics, in_loop, in_switch)


def _check_switch_arms(stmt: Switch, diagnostics: List[Diagnostic]) -> None:
    seen: Dict[object, int] = {}
    for case in stmt.cases:
        for match in case.matches:
            key = "default" if match is None else match
            if key in seen:
                what = "'default'" if match is None else f"case {match}"
                diagnostics.append(
                    _error(
                        CODE_DUPLICATE_CASE,
                        "duplicate-switch-case",
                        case.line,
                        f"duplicate {what} in switch "
                        f"(first on line {seen[key]})",
                        hint="merge or remove the duplicate arm",
                    )
                )
            else:
                seen[key] = case.line


def validate_program(program: Program) -> List[str]:
    """Run all checks; raise :class:`ValidationError` on any failure.

    Returns the (empty) diagnostic list on success so callers can use it
    uniformly with :func:`check_program`.
    """
    diagnostics = check_program(program)
    if diagnostics:
        raise ValidationError(
            "program failed validation:\n  " + "\n  ".join(diagnostics)
        )
    return diagnostics
