"""The SDG parameter model: formals and actuals under value-result.

SL procedures communicate only through parameters, passed by
value-result (copy-in / copy-out).  Following Horwitz–Reps–Binkley,
every procedure gets one *formal-in* node per parameter (defining the
formal at entry) and one *formal-out* node per parameter (using the
formal at exit); every call site gets one *actual-in* node per argument
(using the argument expression's variables) and one *actual-out* node
per argument that is a plain variable (defining that variable — a
non-variable argument has nowhere to copy the result back to, so it is
copy-in only).

The input stream is global state, so any procedure that transitively
reads input (or tests ``eof()``) carries the implicit parameter ``$in``
— the same pseudo-variable the CFG builder threads through ``read``
statements.  That keeps read-chaining sound across call boundaries: a
``read`` after a call that itself reads depends on the call's
``$in`` actual-out, which depends (through the callee) on the reads
inside it.

This module is pure AST level (no CFG/PDG imports) so the CFG builder
can use it while creating call-site node chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lang.ast_nodes import (
    CallStmt,
    Expr,
    MAIN_UNIT,
    Program,
    Var,
)
from repro.sdg.callgraph import CallGraph, build_call_graph

#: The implicit input-cursor parameter; must match the CFG builder's
#: ``INPUT_CURSOR`` pseudo-variable (asserted by a unit test).
IO_PARAM = "$in"


@dataclass(frozen=True)
class ParamSignature:
    """A procedure's parameter interface.

    ``formals`` lists the declared parameter names followed by
    :data:`IO_PARAM` when the procedure (transitively) touches input.
    Positions are the SDG's parameter indexes: actual-in *j* pairs with
    formal-in *j*, formal-out *j* with actual-out *j*.
    """

    name: str
    declared: Tuple[str, ...]
    io: bool

    @property
    def formals(self) -> Tuple[str, ...]:
        if self.io:
            return self.declared + (IO_PARAM,)
        return self.declared

    @property
    def arity(self) -> int:
        return len(self.declared)


#: ``main``'s interface: it owns the input stream and takes no
#: parameters.
MAIN_SIGNATURE = ParamSignature(name=MAIN_UNIT, declared=(), io=False)


@dataclass(frozen=True)
class ActualSpec:
    """One parameter position at one call site.

    ``expr`` is the argument expression (``None`` for the implicit
    ``$in`` position, whose in-state is the cursor variable itself);
    ``out_var`` is the variable the result copies back into, or
    ``None`` when the argument is not a plain variable.
    """

    index: int
    param: str
    expr: Optional[Expr]
    out_var: Optional[str]


def signatures(
    program: Program, graph: Optional[CallGraph] = None
) -> Dict[str, ParamSignature]:
    """Parameter signatures for every unit of *program*.

    ``main`` always has the empty interface — it owns the input stream
    and takes no parameters; only ``proc`` units are wrapped in
    formal-in/formal-out nodes.
    """
    if graph is None:
        graph = build_call_graph(program)
    table: Dict[str, ParamSignature] = {MAIN_UNIT: MAIN_SIGNATURE}
    for proc in program.procs:
        table[proc.name] = ParamSignature(
            name=proc.name,
            declared=tuple(proc.params),
            io=proc.name in graph.io_units,
        )
    return table


def actuals_for(call: CallStmt, callee: ParamSignature) -> List[ActualSpec]:
    """The actual-parameter positions of one call site, in order."""
    specs: List[ActualSpec] = []
    for index, (param, arg) in enumerate(zip(callee.declared, call.args)):
        out_var = arg.name if isinstance(arg, Var) else None
        specs.append(
            ActualSpec(index=index, param=param, expr=arg, out_var=out_var)
        )
    if callee.io:
        specs.append(
            ActualSpec(
                index=len(callee.declared),
                param=IO_PARAM,
                expr=None,
                out_var=IO_PARAM,
            )
        )
    return specs
