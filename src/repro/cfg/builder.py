"""AST → CFG construction.

Node creation happens in a first, purely lexical pass, so node ids follow
source order: ENTRY is node 0, statements get 1..n in lexical order, and
EXIT is the last node.  For the paper's example programs this makes node
ids coincide with the paper's statement numbers (and ENTRY with the dummy
predicate "node 0" of its control-dependence graphs).

A second pass wires edges right-to-left through each statement sequence,
threading three continuations: the *next* node for normal completion, and
the *break* / *continue* targets.  ``goto`` edges are deferred until every
label's entry node is known.

Two behaviours worth calling out:

* **CONDGOTO fusion** — ``if (e) goto L;`` (then-branch a bare goto, no
  else) becomes a single predicate node, exactly as the paper numbers it
  (Fig. 3a lines 3 and 5).  The conventional slicing algorithm's
  "adaptation" (an included predicate brings its jump along) then needs
  no special code.
* **Input-stream chaining** — ``read(v)`` defines the pseudo-variable
  ``$in`` besides ``v``, and uses it; expressions calling ``eof()`` use
  ``$in``.  Successive reads are therefore linked by data dependence, so
  no correct slice can drop an earlier ``read`` while keeping a later one
  (which would silently shift the input stream).

The builder also records, for every statement node, its **lexical
successor**: the node control would reach if the statement were deleted.
That is precisely the wiring-time *next* continuation, so the lexical
successor tree of paper §3 falls out of construction for free (the
:mod:`repro.analysis.lexical` module wraps it and also rebuilds it
independently from the AST as a cross-check).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cfg.graph import ControlFlowGraph, EdgeLabel, NodeKind
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
    MAIN_UNIT,
    Num,
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
from repro.lang.errors import ValidationError
from repro.lang.pretty import pretty_expr
from repro.lang.validate import check_program
from repro.sdg import params
from repro.sdg.callgraph import CallGraph, build_call_graph

#: Pseudo-variable modelling the input-stream cursor.
INPUT_CURSOR = "$in"


def _expr_uses(expr: Optional[Expr]) -> FrozenSet[str]:
    """Variables an expression reads, including ``$in`` for ``eof()``.

    One walk over the tree; ``Expr.variables`` plus ``Expr.calls`` would
    take two, each building a set per subexpression."""
    uses: Set[str] = set()
    stack = [expr] if expr is not None else []
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            uses.add(node.name)
        elif kind is Binary:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is Unary:
            stack.append(node.operand)
        elif kind is Call:
            if node.name == "eof":
                uses.add(INPUT_CURSOR)
            stack.extend(node.args)
        elif kind is not Num:
            raise TypeError(f"unknown expression node: {node!r}")
    return frozenset(uses)


def program_front(
    program: Program, interface: bool = True
) -> Tuple[Optional[str], Optional[tuple]]:
    """``(validation error or None, (call graph, parameter signatures))``
    of *program*, each part computed at most once per Program.

    Every unit's CFG build, the unit fingerprints and the SDG assembly
    need the same whole-program answers, so they share this memo.  With
    ``interface=False`` the second part stays ``None`` until something
    asks for it: the CFG build of a single-unit or invalid program never
    reads the call graph.
    """
    front = program.cfg_front
    if front is None:
        diagnostics = check_program(program)
        error = None
        if diagnostics:
            error = "cannot build CFG for an invalid program:\n  " + "\n  ".join(
                diagnostics
            )
        front = program.cfg_front = (error, None)
    if interface and front[1] is None:
        graph = build_call_graph(program)
        front = program.cfg_front = (
            front[0], (graph, params.signatures(program, graph))
        )
    return front


def call_interface(
    program: Program,
) -> Tuple[CallGraph, Dict[str, params.ParamSignature]]:
    """The call graph and parameter signatures of *program*, built once
    per Program (see :func:`program_front`)."""
    return program_front(program)[1]


def _checked_signatures(program: Program) -> Dict[str, params.ParamSignature]:
    """Validate *program* and return its parameter signatures (empty for
    a single-unit program).  An invalid program raises the same
    :class:`ValidationError` text on every build."""
    error, _ = program_front(program, interface=False)
    if error is not None:
        raise ValidationError(error)
    return call_interface(program)[1] if program.procs else {}


class CFGBuilder:
    """Builds a :class:`ControlFlowGraph` from a validated program."""

    def __init__(self) -> None:
        self._cfg = ControlFlowGraph()
        #: Deferred goto edges: (source node id, target label, edge label).
        self._pending_gotos: List[Tuple[int, str, str]] = []
        #: Lexical successor of each statement node (wiring-time next).
        self._lexical_parent: Dict[int, int] = {}
        #: Callee name -> parameter signature (multi-procedure programs).
        self._signatures: Dict[str, object] = {}
        #: Where a ``return`` transfers control: EXIT for main, the head
        #: of the formal-out prelude for a procedure unit — the node a
        #: return-as-jump targets when it crosses a call boundary.
        self._return_target: int = -1

    # ------------------------------------------------------------------
    # Public entry point.
    # ------------------------------------------------------------------

    def build(
        self, program: Program, unit: Optional[str] = None
    ) -> ControlFlowGraph:
        """Build the CFG of one unit of *program*.

        ``unit=None`` builds the main unit (the whole program when there
        are no procedures); ``unit="f"`` builds procedure ``f``'s body,
        wrapped in its formal-in / formal-out parameter nodes.
        """
        self._signatures = _checked_signatures(program)
        proc = program.proc_named(unit) if unit else None
        if unit and proc is None:
            raise ValidationError(f"no procedure named {unit!r}")
        body = proc.body if proc is not None else program.body
        formals: List[str] = []
        if proc is not None:
            signature = self._signatures[proc.name]
            formals = list(signature.formals)

        cfg = self._cfg
        cfg.unit_name = unit or MAIN_UNIT
        entry = cfg.new_node(NodeKind.ENTRY, text="ENTRY")
        cfg.entry_id = entry.id
        for index, param in enumerate(formals):
            node = cfg.new_node(
                NodeKind.FORMAL_IN,
                line=proc.line,
                defs=frozenset({param}),
                text=f"formal-in {param}",
                call_name=proc.name,
                param=param,
                param_index=index,
            )
            cfg.formal_ins.append(node.id)
        for stmt in body:
            self._create_nodes(stmt)
        for index, param in enumerate(formals):
            node = cfg.new_node(
                NodeKind.FORMAL_OUT,
                line=proc.line,
                uses=frozenset({param}),
                text=f"formal-out {param}",
                call_name=proc.name,
                param=param,
                param_index=index,
            )
            cfg.formal_outs.append(node.id)
        exit_node = cfg.new_node(NodeKind.EXIT, text="EXIT")
        cfg.exit_id = exit_node.id

        # Formal-out prelude: every path out of a procedure — including
        # a `return`, which jumps like any other jump statement — runs
        # the copy-out chain before EXIT, so value-result semantics hold
        # on all exits.
        following = exit_node.id
        for node_id in reversed(cfg.formal_outs):
            cfg.add_edge(node_id, following, EdgeLabel.FALL)
            self._lexical_parent[node_id] = following
            following = node_id
        self._return_target = following

        first = self._wire_sequence(
            body, nxt=following, brk=None, cont=None
        )
        for node_id in reversed(cfg.formal_ins):
            cfg.add_edge(node_id, first, EdgeLabel.FALL)
            self._lexical_parent[node_id] = first
            first = node_id
        cfg.add_edge(entry.id, first, EdgeLabel.TRUE)
        self._resolve_gotos()
        cfg.lexical_parent = dict(self._lexical_parent)
        cfg.seal()
        return cfg

    # ------------------------------------------------------------------
    # Pass 1: lexical node creation.
    # ------------------------------------------------------------------

    def _fusable(self, stmt: Stmt) -> bool:
        """True when *stmt* is ``if (e) goto L;``."""
        return (
            isinstance(stmt, If)
            and isinstance(stmt.then_branch, Goto)
            and stmt.then_branch.label is None
            and stmt.else_branch is None
        )

    def _create_nodes(self, stmt: Stmt) -> None:
        cfg = self._cfg
        # The statement kinds are disjoint classes; the most frequent
        # ones are tested first.
        if isinstance(stmt, Block):
            for inner in stmt.stmts:
                self._create_nodes(inner)
        elif isinstance(stmt, Skip):
            node = cfg.new_node(NodeKind.SKIP, stmt, stmt.line, text=";")
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, Assign):
            node = cfg.new_node(
                NodeKind.ASSIGN,
                stmt,
                stmt.line,
                defs=frozenset({stmt.target}),
                uses=_expr_uses(stmt.value),
                text=f"{stmt.target} = {pretty_expr(stmt.value)}",
            )
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, Read):
            node = cfg.new_node(
                NodeKind.READ,
                stmt,
                stmt.line,
                defs=frozenset({stmt.target, INPUT_CURSOR}),
                uses=frozenset({INPUT_CURSOR}),
                text=f"read({stmt.target})",
            )
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, Write):
            node = cfg.new_node(
                NodeKind.WRITE,
                stmt,
                stmt.line,
                uses=_expr_uses(stmt.value),
                text=f"write({pretty_expr(stmt.value)})",
            )
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, If):
            if self._fusable(stmt):
                goto = stmt.then_branch
                node = cfg.new_node(
                    NodeKind.CONDGOTO,
                    stmt,
                    stmt.line,
                    uses=_expr_uses(stmt.cond),
                    text=f"if ({pretty_expr(stmt.cond)}) goto {goto.target}",
                    goto_target=goto.target,
                )
                cfg.map_stmt(stmt, node.id)
                cfg.map_stmt(goto, node.id)
            else:
                node = cfg.new_node(
                    NodeKind.PREDICATE,
                    stmt,
                    stmt.line,
                    uses=_expr_uses(stmt.cond),
                    text=f"if ({pretty_expr(stmt.cond)})",
                )
                cfg.map_stmt(stmt, node.id)
                if stmt.then_branch is not None:
                    self._create_nodes(stmt.then_branch)
                if stmt.else_branch is not None:
                    self._create_nodes(stmt.else_branch)
        elif isinstance(stmt, While):
            node = cfg.new_node(
                NodeKind.PREDICATE,
                stmt,
                stmt.line,
                uses=_expr_uses(stmt.cond),
                text=f"while ({pretty_expr(stmt.cond)})",
            )
            cfg.map_stmt(stmt, node.id)
            if stmt.body is not None:
                self._create_nodes(stmt.body)
        elif isinstance(stmt, DoWhile):
            # The body is lexically first; the test node follows it.
            if stmt.body is not None:
                self._create_nodes(stmt.body)
            node = cfg.new_node(
                NodeKind.PREDICATE,
                stmt,
                stmt.line,
                uses=_expr_uses(stmt.cond),
                text=f"do-while ({pretty_expr(stmt.cond)})",
            )
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                self._create_nodes(stmt.init)
            cond = stmt.cond if stmt.cond is not None else Num(1)
            node = cfg.new_node(
                NodeKind.PREDICATE,
                stmt,
                stmt.line,
                uses=_expr_uses(cond),
                text=f"for ({pretty_expr(cond)})",
            )
            cfg.map_stmt(stmt, node.id)
            if stmt.step is not None:
                self._create_nodes(stmt.step)
            if stmt.body is not None:
                self._create_nodes(stmt.body)
        elif isinstance(stmt, Switch):
            node = cfg.new_node(
                NodeKind.SWITCH,
                stmt,
                stmt.line,
                uses=_expr_uses(stmt.subject),
                text=f"switch ({pretty_expr(stmt.subject)})",
            )
            cfg.map_stmt(stmt, node.id)
            for case in stmt.cases:
                for inner in case.stmts:
                    self._create_nodes(inner)
        elif isinstance(stmt, Break):
            node = cfg.new_node(NodeKind.BREAK, stmt, stmt.line, text="break")
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, Continue):
            node = cfg.new_node(
                NodeKind.CONTINUE, stmt, stmt.line, text="continue"
            )
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, Return):
            node = cfg.new_node(
                NodeKind.RETURN,
                stmt,
                stmt.line,
                uses=_expr_uses(stmt.value),
                text=(
                    f"return {pretty_expr(stmt.value)}"
                    if stmt.value is not None
                    else "return"
                ),
            )
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, Goto):
            node = cfg.new_node(
                NodeKind.GOTO,
                stmt,
                stmt.line,
                text=f"goto {stmt.target}",
                goto_target=stmt.target,
            )
            cfg.map_stmt(stmt, node.id)
        elif isinstance(stmt, CallStmt):
            self._create_call_nodes(stmt)
        else:
            raise TypeError(f"unknown statement node: {stmt!r}")

    def _create_call_nodes(self, stmt: CallStmt) -> None:
        """Create the call-site node chain: one actual-in per argument,
        the CALL node, one actual-out per variable argument (plus the
        implicit ``$in`` pair when the callee touches input).

        Actual-in nodes use the argument expression's variables but
        define nothing in the caller (what the callee receives is the
        SDG's business, carried by a param-in edge); actual-out nodes
        define their variable but use nothing (their incoming dependence
        is the param-out edge from the callee's formal-out plus summary
        edges from the call's actual-ins).  Keeping both sides half-open
        is what lets Horwitz–Reps–Binkley summary edges, not a
        worst-case kill set, decide which argument reaches which result.
        """
        from repro.sdg.params import actuals_for

        cfg = self._cfg
        signature = self._signatures[stmt.name]
        specs = actuals_for(stmt, signature)
        chain_ids: List[int] = []
        for spec in specs:
            if spec.expr is not None:
                uses = _expr_uses(spec.expr)
                source = pretty_expr(spec.expr)
            else:
                uses = frozenset({INPUT_CURSOR})
                source = INPUT_CURSOR
            node = cfg.new_node(
                NodeKind.ACTUAL_IN,
                stmt,
                stmt.line,
                uses=uses,
                text=f"{stmt.name}.{spec.param} <- {source}",
                call_name=stmt.name,
                param=spec.param,
                param_index=spec.index,
            )
            chain_ids.append(node.id)
        args = ", ".join(pretty_expr(arg) for arg in stmt.args)
        call_node = cfg.new_node(
            NodeKind.CALL,
            stmt,
            stmt.line,
            text=f"call {stmt.name}({args})",
            call_name=stmt.name,
        )
        cfg.map_stmt(stmt, call_node.id)
        chain_ids.append(call_node.id)
        for spec in specs:
            if spec.out_var is None:
                continue
            node = cfg.new_node(
                NodeKind.ACTUAL_OUT,
                stmt,
                stmt.line,
                defs=frozenset({spec.out_var}),
                text=f"{spec.out_var} <- {stmt.name}.{spec.param}",
                call_name=stmt.name,
                param=spec.param,
                param_index=spec.index,
            )
            chain_ids.append(node.id)
        cfg.call_chains[call_node.id] = chain_ids

    # ------------------------------------------------------------------
    # Pass 2: edge wiring (right-to-left through sequences).
    # ------------------------------------------------------------------

    def _wire_sequence(
        self,
        stmts: List[Stmt],
        nxt: int,
        brk: Optional[int],
        cont: Optional[int],
    ) -> int:
        """Wire a statement sequence; return its entry node id."""
        current = nxt
        for stmt in reversed(stmts):
            current = self._wire(stmt, current, brk, cont)
        return current

    def _wire(
        self, stmt: Stmt, nxt: int, brk: Optional[int], cont: Optional[int]
    ) -> int:
        """Wire one statement; return its entry node id.

        ``nxt`` is where control flows on normal completion — and also,
        by the paper's definition, the statement's immediate lexical
        successor, which we record as the LST parent of the statement's
        primary node.
        """
        cfg = self._cfg
        entry = self._wire_unlabelled(stmt, nxt, brk, cont)
        cfg.map_entry(stmt, entry)
        if stmt.label is not None:
            cfg.label_entry[stmt.label] = entry
        return entry

    def _wire_unlabelled(
        self, stmt: Stmt, nxt: int, brk: Optional[int], cont: Optional[int]
    ) -> int:
        cfg = self._cfg
        if isinstance(stmt, (Skip, Assign, Read, Write)):
            node_id = cfg.node_of(stmt)
            cfg.add_edge(node_id, nxt, EdgeLabel.FALL)
            self._lexical_parent[node_id] = nxt
            return node_id
        if isinstance(stmt, Block):
            return self._wire_sequence(stmt.stmts, nxt, brk, cont)
        if isinstance(stmt, Goto):
            node_id = cfg.node_of(stmt)
            self._pending_gotos.append((node_id, stmt.target, EdgeLabel.JUMP))
            self._lexical_parent[node_id] = nxt
            return node_id
        if isinstance(stmt, Break):
            if brk is None:
                raise ValidationError(
                    f"line {stmt.line}: 'break' outside a loop or switch"
                )
            node_id = cfg.node_of(stmt)
            cfg.add_edge(node_id, brk, EdgeLabel.JUMP)
            self._lexical_parent[node_id] = nxt
            return node_id
        if isinstance(stmt, Continue):
            if cont is None:
                raise ValidationError(
                    f"line {stmt.line}: 'continue' outside a loop"
                )
            node_id = cfg.node_of(stmt)
            cfg.add_edge(node_id, cont, EdgeLabel.JUMP)
            self._lexical_parent[node_id] = nxt
            return node_id
        if isinstance(stmt, Return):
            node_id = cfg.node_of(stmt)
            cfg.add_edge(node_id, self._return_target, EdgeLabel.JUMP)
            self._lexical_parent[node_id] = nxt
            return node_id
        if isinstance(stmt, CallStmt):
            chain_ids = cfg.call_chains[cfg.node_of(stmt)]
            for src, dst in zip(chain_ids, chain_ids[1:]):
                cfg.add_edge(src, dst, EdgeLabel.FALL)
            cfg.add_edge(chain_ids[-1], nxt, EdgeLabel.FALL)
            # The whole chain is one lexical unit: deleting the call
            # statement sends control to the statement's successor.
            for node_id in chain_ids:
                self._lexical_parent[node_id] = nxt
            return chain_ids[0]
        if isinstance(stmt, If):
            node_id = cfg.node_of(stmt)
            self._lexical_parent[node_id] = nxt
            if cfg.nodes[node_id].kind is NodeKind.CONDGOTO:
                self._pending_gotos.append(
                    (node_id, cfg.nodes[node_id].goto_target, EdgeLabel.TRUE)
                )
                cfg.add_edge(node_id, nxt, EdgeLabel.FALSE)
                return node_id
            then_entry = (
                self._wire(stmt.then_branch, nxt, brk, cont)
                if stmt.then_branch is not None
                else nxt
            )
            else_entry = (
                self._wire(stmt.else_branch, nxt, brk, cont)
                if stmt.else_branch is not None
                else nxt
            )
            cfg.add_edge(node_id, then_entry, EdgeLabel.TRUE)
            cfg.add_edge(node_id, else_entry, EdgeLabel.FALSE)
            return node_id
        if isinstance(stmt, While):
            node_id = cfg.node_of(stmt)
            self._lexical_parent[node_id] = nxt
            body_entry = (
                self._wire(stmt.body, node_id, brk=nxt, cont=node_id)
                if stmt.body is not None
                else node_id
            )
            cfg.add_edge(node_id, body_entry, EdgeLabel.TRUE)
            cfg.add_edge(node_id, nxt, EdgeLabel.FALSE)
            return node_id
        if isinstance(stmt, DoWhile):
            node_id = cfg.node_of(stmt)  # the test node
            self._lexical_parent[node_id] = nxt
            body_entry = (
                self._wire(stmt.body, node_id, brk=nxt, cont=node_id)
                if stmt.body is not None
                else node_id
            )
            cfg.add_edge(node_id, body_entry, EdgeLabel.TRUE)
            cfg.add_edge(node_id, nxt, EdgeLabel.FALSE)
            return body_entry
        if isinstance(stmt, For):
            return self._wire_for(stmt, nxt, brk, cont)
        if isinstance(stmt, Switch):
            return self._wire_switch(stmt, nxt, cont)
        raise TypeError(f"unknown statement node: {stmt!r}")

    def _wire_for(
        self, stmt: For, nxt: int, brk: Optional[int], cont: Optional[int]
    ) -> int:
        cfg = self._cfg
        pred_id = cfg.node_of(stmt)
        self._lexical_parent[pred_id] = nxt
        step_id: Optional[int] = None
        if stmt.step is not None:
            step_id = cfg.node_of(stmt.step)
            cfg.map_entry(stmt.step, step_id)
            cfg.add_edge(step_id, pred_id, EdgeLabel.FALL)
            # Deleting the step sends control straight to the test.
            self._lexical_parent[step_id] = pred_id
        loop_back = step_id if step_id is not None else pred_id
        body_entry = (
            self._wire(stmt.body, loop_back, brk=nxt, cont=loop_back)
            if stmt.body is not None
            else loop_back
        )
        cfg.add_edge(pred_id, body_entry, EdgeLabel.TRUE)
        cfg.add_edge(pred_id, nxt, EdgeLabel.FALSE)
        if stmt.init is not None:
            init_id = cfg.node_of(stmt.init)
            cfg.map_entry(stmt.init, init_id)
            cfg.add_edge(init_id, pred_id, EdgeLabel.FALL)
            self._lexical_parent[init_id] = pred_id
            return init_id
        return pred_id

    def _wire_switch(
        self, stmt: Switch, nxt: int, cont: Optional[int]
    ) -> int:
        """Wire a switch with C fall-through semantics.

        Arms are wired last-to-first so each arm's *next* is the entry of
        the following arm (fall-through), and the last arm's is the
        statement after the switch.  ``break`` targets the statement
        after the switch; ``continue`` passes through to the enclosing
        loop.
        """
        cfg = self._cfg
        switch_id = cfg.node_of(stmt)
        self._lexical_parent[switch_id] = nxt
        arm_entries: List[int] = [0] * len(stmt.cases)
        following = nxt
        for index in range(len(stmt.cases) - 1, -1, -1):
            case = stmt.cases[index]
            arm_entries[index] = self._wire_sequence(
                case.stmts, following, brk=nxt, cont=cont
            )
            following = arm_entries[index]
        has_default = False
        for index, case in enumerate(stmt.cases):
            for match in case.matches:
                if match is None:
                    has_default = True
                    cfg.add_edge(switch_id, arm_entries[index], EdgeLabel.DEFAULT)
                else:
                    cfg.add_edge(
                        switch_id, arm_entries[index], EdgeLabel.case(match)
                    )
        if not has_default:
            cfg.add_edge(switch_id, nxt, EdgeLabel.DEFAULT)
        return switch_id

    # ------------------------------------------------------------------
    # Pass 3: goto resolution.
    # ------------------------------------------------------------------

    def _resolve_gotos(self) -> None:
        cfg = self._cfg
        for node_id, target, label in self._pending_gotos:
            if target not in cfg.label_entry:
                raise ValidationError(
                    f"goto to undefined label {target!r}"
                )
            cfg.add_edge(node_id, cfg.label_entry[target], label)


def build_cfg(
    program: Program, unit: Optional[str] = None
) -> ControlFlowGraph:
    """Build the control-flow graph of one unit of *program*.

    Parameters
    ----------
    program:
        A parsed (and valid) SL program.
    unit:
        ``None`` for the main unit; a procedure name for that
        procedure's body wrapped in its parameter nodes.
    """
    return CFGBuilder().build(program, unit=unit)
