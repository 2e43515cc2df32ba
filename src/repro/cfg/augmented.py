"""The Ball–Horwitz / Choi–Ferrante *augmented* control flowgraph.

Both prior algorithms (paper §1, §5) rebuild control dependence from a
flowgraph in which every unconditional jump has been turned into a
pseudo-predicate: besides its real (taken) edge, the jump gets a second,
never-executed edge to the statement that *immediately lexically
succeeds* it.  Statements whose execution hinges on the jump then become
control dependent on it, and conventional PDG slicing picks jumps up
automatically.

Agrawal's point is that this graph surgery is avoidable; we build the
augmented graph anyway as the baseline his equivalence claim is tested
against (experiment C1 in DESIGN.md).
"""

from __future__ import annotations

from repro.cfg.graph import ControlFlowGraph, NodeKind


#: Label used for the synthetic not-taken edge out of a jump node.
NOT_TAKEN = "not-taken"


def build_augmented_cfg(cfg: ControlFlowGraph) -> ControlFlowGraph:
    """Return a new graph: *cfg* plus a not-taken edge from every
    unconditional jump to its immediate lexical successor.

    Node objects are shared with the base graph (they are immutable for
    our purposes); adjacency is fresh.  The ``lexical_parent`` map — the
    builder's record of each node's immediate lexical successor — supplies
    the augmentation targets, which is exactly the "continuation" of Ball
    & Horwitz and the "fall-through statement" of Choi & Ferrante.
    """
    augmented = ControlFlowGraph()
    augmented.nodes = dict(cfg.nodes)
    augmented._succ = {node_id: [] for node_id in cfg.nodes}
    augmented._pred = {node_id: [] for node_id in cfg.nodes}
    augmented._next_id = max(cfg.nodes) + 1
    augmented.entry_id = cfg.entry_id
    augmented.exit_id = cfg.exit_id
    augmented._stmt_node = dict(cfg._stmt_node)
    augmented._stmt_entry = dict(cfg._stmt_entry)
    augmented.label_entry = dict(cfg.label_entry)
    augmented.lexical_parent = dict(cfg.lexical_parent)

    for src, dst, label in cfg.edges():
        augmented.add_edge(src, dst, label)

    for node in cfg.sorted_nodes():
        if node.kind in (
            NodeKind.GOTO,
            NodeKind.BREAK,
            NodeKind.CONTINUE,
            NodeKind.RETURN,
        ):
            successor = cfg.lexical_parent.get(node.id, cfg.exit_id)
            # A degenerate jump to its own fall-through (`goto L; L: ...`)
            # gets a parallel edge; the graph is a multigraph, so that is
            # harmless and keeps the node uniformly a pseudo-predicate.
            augmented.add_edge(node.id, successor, NOT_TAKEN)
    augmented.seal()
    return augmented
