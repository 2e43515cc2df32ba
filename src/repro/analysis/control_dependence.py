"""Ferrante–Ottenstein–Warren control dependence (paper references
[9, 10]).

Node X is control dependent on node Y (via the edge Y→Z, labelled L) when
X postdominates Z but does not postdominate Y.  Operationally: for every
CFG edge (Y, Z, L) where Z does not... rather, where Y's immediate
postdominator is not Z's chain — walk the postdominator tree from Z up to,
but excluding, ipdom(Y), marking every node passed as control dependent on
Y with branch label L.

The virtual ENTRY→EXIT edge (included in the postdominator tree by
default) makes every top-level statement control dependent on ENTRY — the
dummy "node 0" of the paper's control-dependence figures.

Because an unconditional jump has a single successor, nothing is ever
control dependent on it here — precisely the deficiency of conventional
slicing the paper fixes.  (The *augmented* CFG restores those
dependences; see :mod:`repro.cfg.augmented`.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.tree import Tree
from repro.cfg.graph import ControlFlowGraph, EdgeLabel, seal_adjacency
from repro.lang.errors import AnalysisError


class ControlDependenceGraph:
    """Edges ``(controller, dependent, branch label)``.

    ``parents_of(n)`` answers "which predicates is n *directly* control
    dependent on?" — the query both the conservative algorithm (Fig. 13)
    and the structured algorithm (Fig. 12) are built on.
    """

    def __init__(self) -> None:
        self._deps: Dict[int, List[Tuple[int, str]]] = {}
        self._controlled: Dict[int, List[Tuple[int, str]]] = {}
        self._edge_set: Set[Tuple[int, int, str]] = set()

    def add(self, controller: int, dependent: int, label: str) -> None:
        if (controller, dependent, label) in self._edge_set:
            return
        self._edge_set.add((controller, dependent, label))
        self._deps.setdefault(dependent, []).append((controller, label))
        self._controlled.setdefault(controller, []).append((dependent, label))

    def seal(self) -> None:
        """End construction: see :func:`repro.cfg.graph.seal_adjacency`."""
        seal_adjacency(self._deps, self._controlled)

    def parents_of(self, node: int) -> List[int]:
        """Nodes that *node* is directly control dependent on (deduped,
        sorted)."""
        return sorted({src for src, _ in self._deps.get(node, [])})

    def parent_edges_of(self, node: int) -> List[Tuple[int, str]]:
        return list(self._deps.get(node, []))

    def children_of(self, node: int) -> List[int]:
        """Nodes directly control dependent on *node* (deduped, sorted)."""
        return sorted({dst for dst, _ in self._controlled.get(node, [])})

    def edges(self) -> Iterable[Tuple[int, int, str]]:
        return sorted(self._edge_set)

    def edge_pairs(self) -> Set[Tuple[int, int]]:
        """(controller, dependent) pairs without labels."""
        return {(src, dst) for src, dst, _ in self._edge_set}

    def __len__(self) -> int:
        return len(self._edge_set)


def compute_control_dependence(
    cfg: ControlFlowGraph,
    pdt: Tree,
    include_virtual_entry_edge: bool = True,
) -> ControlDependenceGraph:
    """Control dependence of *cfg* given its postdominator tree *pdt*.

    ``pdt`` must have been built with the virtual ENTRY→EXIT edge when
    ``include_virtual_entry_edge`` is set (the default pairing used by
    :func:`repro.pdg.build_pdg`); mixing the two inconsistently yields
    subtly wrong dependences, so we verify the precondition cheaply: with
    the virtual edge, EXIT (not a statement) is ENTRY's parent.
    """
    cdg = ControlDependenceGraph()
    edges = list(cfg.edges())
    if include_virtual_entry_edge:
        if pdt.parent_of(cfg.entry_id) != cfg.exit_id:
            raise AnalysisError(
                "postdominator tree was built without the virtual "
                "ENTRY->EXIT edge; rebuild with "
                "virtual_entry_exit_edge=True or pass "
                "include_virtual_entry_edge=False"
            )
        edges.append((cfg.entry_id, cfg.exit_id, EdgeLabel.FALSE))
    for src, dst, label in edges:
        if src not in pdt or dst not in pdt:
            raise AnalysisError(
                f"edge ({src}, {dst}) touches a node without a "
                "postdominator; the program has statements that cannot "
                "reach EXIT"
            )
        # Z postdominates Y: no dependence from this edge.
        if pdt.is_ancestor(dst, src):
            continue
        stop = pdt.parent_of(src)
        walker = dst
        while walker != stop:
            if walker is None:
                raise AnalysisError(
                    f"postdominator walk from edge ({src}, {dst}) "
                    "escaped the tree; inconsistent inputs"
                )
            cdg.add(src, walker, label)
            walker = pdt.parent_of(walker)
    cdg.seal()
    return cdg
