"""The control-flow graph data structure.

Nodes are *statements* (the granularity the paper works at): simple
statements, predicates of structured constructs, unconditional jumps, and
the fused conditional-goto.  ``Block`` AST nodes never become CFG nodes.
Two synthetic nodes, ENTRY and EXIT, bracket the program.

Edges carry a label (:class:`EdgeLabel`) describing why control flows:
``TRUE``/``FALSE`` out of predicates, ``case k``/``default`` out of a
switch, ``FALL`` for straight-line flow, and ``JUMP`` for the taken edge
of an unconditional jump.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.lang.ast_nodes import Stmt


class NodeKind(enum.Enum):
    """The kind of program point a CFG node represents."""

    ENTRY = "entry"
    EXIT = "exit"
    ASSIGN = "assign"
    READ = "read"
    WRITE = "write"
    SKIP = "skip"
    PREDICATE = "predicate"  # if / while / do-while / for conditions
    SWITCH = "switch"
    CONDGOTO = "condgoto"  # fused `if (e) goto L;`
    GOTO = "goto"
    BREAK = "break"
    CONTINUE = "continue"
    RETURN = "return"
    # Interprocedural node kinds (the SDG parameter model).
    CALL = "call"  # `call f(...)` transfer-of-control point
    ACTUAL_IN = "actual-in"  # caller-side copy-in of one argument
    ACTUAL_OUT = "actual-out"  # caller-side copy-out into a variable arg
    FORMAL_IN = "formal-in"  # callee-side definition of one formal
    FORMAL_OUT = "formal-out"  # callee-side final use of one formal


#: Node kinds that are unconditional jump statements — the paper's "jump
#: statements" modulo the conditional case, which fusion turns into
#: CONDGOTO predicates.
JUMP_KINDS = frozenset(
    {NodeKind.GOTO, NodeKind.BREAK, NodeKind.CONTINUE, NodeKind.RETURN}
)

#: Node kinds that branch (more than one successor is possible).
BRANCH_KINDS = frozenset(
    {NodeKind.PREDICATE, NodeKind.SWITCH, NodeKind.CONDGOTO, NodeKind.ENTRY}
)

#: Synthetic parameter-transfer kinds (SDG vertices that are CFG nodes
#: but not statements of their own — they share their statement with a
#: call site, or belong to the enclosing procedure's interface).
PARAM_KINDS = frozenset(
    {
        NodeKind.ACTUAL_IN,
        NodeKind.ACTUAL_OUT,
        NodeKind.FORMAL_IN,
        NodeKind.FORMAL_OUT,
    }
)


class EdgeLabel:
    """Edge label constants plus the ``case`` constructor."""

    TRUE = "true"
    FALSE = "false"
    FALL = "fall"
    JUMP = "jump"
    DEFAULT = "default"

    @staticmethod
    def case(value: int) -> str:
        return f"case {value}"


@dataclass
class CFGNode:
    """One CFG node.

    Attributes
    ----------
    id:
        Dense integer identifier, unique within its graph.
    kind:
        What the node represents.
    stmt:
        The AST statement (None for ENTRY/EXIT).
    line:
        Source line, for diagnostics and the paper-numbering helper.
    defs / uses:
        Variables defined and used.  ``read`` defines the pseudo-variable
        ``$in`` (the input-stream cursor) and uses it, and ``eof()`` uses
        it, so reads chain by data dependence and slices never misalign
        the input stream.
    text:
        A short human-readable rendering for graph dumps.
    goto_target:
        For GOTO and CONDGOTO nodes, the textual target label.
    call_name:
        For CALL / ACTUAL_IN / ACTUAL_OUT nodes, the callee's name.
    param:
        For parameter-transfer nodes, the parameter's name.
    param_index:
        For parameter-transfer nodes, the parameter's position in the
        callee's interface (implicit ``$in`` comes last).
    """

    id: int
    kind: NodeKind
    stmt: Optional[Stmt] = None
    line: int = 0
    defs: FrozenSet[str] = frozenset()
    uses: FrozenSet[str] = frozenset()
    text: str = ""
    goto_target: Optional[str] = None
    call_name: Optional[str] = None
    param: Optional[str] = None
    param_index: Optional[int] = None

    @property
    def is_jump(self) -> bool:
        """True for unconditional jump nodes (goto/break/continue/return)."""
        return self.kind in JUMP_KINDS

    @property
    def is_branch(self) -> bool:
        """True when the node may have more than one successor."""
        return self.kind in BRANCH_KINDS

    def __repr__(self) -> str:
        return f"CFGNode({self.id}, {self.kind.value}, {self.text!r})"


def seal_adjacency(*tables: Dict[int, list]) -> None:
    """Turn every per-node list of finished adjacency *tables* into a
    tuple.  A tuple is smaller than a list, and a tuple of atoms is
    untracked by the cycle collector (DESIGN.md §17); a sealed table
    also rejects the ``append`` of any later ``add_edge``."""
    for table in tables:
        for node_id, edges in table.items():
            table[node_id] = tuple(edges)


class ControlFlowGraph:
    """A labelled control-flow graph over statement nodes.

    The graph also records, for every AST statement, which node represents
    it (``node_of``) and which node control first reaches when the
    statement executes (``entry_of``) — the latter drives goto resolution
    and the lexical-successor tree.
    """

    def __init__(self) -> None:
        self.nodes: Dict[int, CFGNode] = {}
        self._succ: Dict[int, List[Tuple[int, str]]] = {}
        self._pred: Dict[int, List[Tuple[int, str]]] = {}
        self.entry_id: int = -1
        self.exit_id: int = -1
        #: id(stmt) -> node id for every statement that owns a node.
        self._stmt_node: Dict[int, int] = {}
        #: id(stmt) -> node id first executed when the statement runs.
        self._stmt_entry: Dict[int, int] = {}
        #: goto label -> node id of the labelled statement's entry.
        self.label_entry: Dict[str, int] = {}
        #: node id -> id of its immediate lexical successor (the node
        #: control reaches if the statement is deleted); recorded by the
        #: builder, wrapped by repro.analysis.lexical.
        self.lexical_parent: Dict[int, int] = {}
        #: call node id -> the full call-site chain, in control order:
        #: actual-in nodes, the call node itself, actual-out nodes.
        self.call_chains: Dict[int, List[int]] = {}
        #: formal-in node ids (procedure units only), in parameter order.
        self.formal_ins: List[int] = []
        #: formal-out node ids (procedure units only), in parameter order.
        self.formal_outs: List[int] = []
        #: the unit this CFG analyzes (main, or a proc's name).
        self.unit_name: str = "main"
        self._next_id = 0
        #: start node id -> reachable set; criterion resolution asks for
        #: reachability from ENTRY on every query, so memoize per start
        #: and invalidate on any structural mutation.
        self._reach_cache: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def new_node(
        self,
        kind: NodeKind,
        stmt: Optional[Stmt] = None,
        line: int = 0,
        defs: FrozenSet[str] = frozenset(),
        uses: FrozenSet[str] = frozenset(),
        text: str = "",
        goto_target: Optional[str] = None,
        call_name: Optional[str] = None,
        param: Optional[str] = None,
        param_index: Optional[int] = None,
    ) -> CFGNode:
        node_id = self._next_id
        node = CFGNode(
            node_id, kind, stmt, line, defs, uses, text,
            goto_target, call_name, param, param_index,
        )
        self._next_id = node_id + 1
        self.nodes[node_id] = node
        self._succ[node_id] = []
        self._pred[node_id] = []
        if self._reach_cache:
            self._reach_cache.clear()
        return node

    def add_edge(self, src: int, dst: int, label: str) -> None:
        """Add a labelled edge; parallel edges with distinct labels are
        allowed (a two-armed switch to the same target, for example)."""
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"edge ({src}, {dst}) references unknown node")
        self._succ[src].append((dst, label))
        self._pred[dst].append((src, label))
        if self._reach_cache:
            self._reach_cache.clear()

    def seal(self) -> None:
        """End construction: see :func:`seal_adjacency`."""
        seal_adjacency(self._succ, self._pred)

    def map_stmt(self, stmt: Stmt, node_id: int) -> None:
        self._stmt_node[id(stmt)] = node_id

    def map_entry(self, stmt: Stmt, node_id: int) -> None:
        self._stmt_entry[id(stmt)] = node_id

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    @property
    def entry(self) -> CFGNode:
        return self.nodes[self.entry_id]

    @property
    def exit(self) -> CFGNode:
        return self.nodes[self.exit_id]

    def successors(self, node_id: int) -> List[Tuple[int, str]]:
        """Outgoing ``(target, label)`` pairs, in insertion order."""
        return list(self._succ[node_id])

    def predecessors(self, node_id: int) -> List[Tuple[int, str]]:
        """Incoming ``(source, label)`` pairs, in insertion order."""
        return list(self._pred[node_id])

    def succ_ids(self, node_id: int) -> List[int]:
        return [dst for dst, _ in self._succ[node_id]]

    def pred_ids(self, node_id: int) -> List[int]:
        return [src for src, _ in self._pred[node_id]]

    def edges(self) -> Iterator[Tuple[int, int, str]]:
        """Iterate all ``(src, dst, label)`` edges."""
        for src, targets in self._succ.items():
            for dst, label in targets:
                yield src, dst, label

    def node_of(self, stmt: Stmt) -> int:
        """The node representing *stmt* (raises KeyError if it has none,
        for example a Block)."""
        return self._stmt_node[id(stmt)]

    def has_node_for(self, stmt: Stmt) -> bool:
        return id(stmt) in self._stmt_node

    def entry_of(self, stmt: Stmt) -> int:
        """The node control first reaches when *stmt* executes."""
        return self._stmt_entry[id(stmt)]

    def jump_nodes(self) -> List[CFGNode]:
        """All unconditional jump nodes, in node-id (program) order."""
        return [n for n in self.sorted_nodes() if n.is_jump]

    def sorted_nodes(self) -> List[CFGNode]:
        return [self.nodes[i] for i in sorted(self.nodes)]

    def statement_nodes(self) -> List[CFGNode]:
        """All nodes except ENTRY and EXIT, in node-id order."""
        return [
            n
            for n in self.sorted_nodes()
            if n.kind not in (NodeKind.ENTRY, NodeKind.EXIT)
        ]

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Reachability helpers.
    # ------------------------------------------------------------------

    def reachable_from(self, start: int) -> FrozenSet[int]:
        """Node ids reachable from *start* (inclusive) along edges.

        Memoized per start node; the cache is cleared by ``new_node`` and
        ``add_edge`` so mutation during construction stays safe.
        """
        cached = self._reach_cache.get(start)
        if cached is not None:
            return cached
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for nxt in self.succ_ids(current):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        result = frozenset(seen)
        self._reach_cache[start] = result
        return result

    def reaches(self, start: int, goal: int) -> bool:
        """True when *goal* is reachable from *start*."""
        return goal in self.reachable_from(start)

    def unreachable_statements(self) -> List[CFGNode]:
        """Statement nodes not reachable from ENTRY (dead code).

        Dead code voids the paper's §4 property 2 — a jump guarding dead
        code is needed in a slice even though no predicate controlling it
        is — so the Fig. 12/13 slicers refuse programs that have any (the
        Fig. 7 algorithm handles them fine).
        """
        live = self.reachable_from(self.entry_id)
        return [
            node
            for node in self.statement_nodes()
            if node.id not in live
        ]

    # ------------------------------------------------------------------
    # Interop.
    # ------------------------------------------------------------------

    def to_networkx(self):
        """Export to a ``networkx.MultiDiGraph`` (labels as edge data)."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        for node in self.sorted_nodes():
            graph.add_node(node.id, kind=node.kind.value, text=node.text)
        for src, dst, label in self.edges():
            graph.add_edge(src, dst, label=label)
        return graph

    def describe(self) -> str:
        """A compact multi-line dump used in error messages and tests."""
        lines = []
        for node in self.sorted_nodes():
            succs = ", ".join(
                f"{dst}[{label}]" for dst, label in self._succ[node.id]
            )
            lines.append(
                f"{node.id:>3} {node.kind.value:<9} "
                f"line={node.line:<3} {node.text}  -> {succs}"
            )
        return "\n".join(lines)
