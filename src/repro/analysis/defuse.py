"""Def-use chains and the data-dependence graph.

Node U is *data dependent* (flow dependent) on node D when D defines a
variable v, U uses v, and some definition-clear path for v runs from D to
U — i.e. ``Definition(D, v)`` reaches U's entry (paper §2's "node 12 is
data dependent on nodes 2 and 7").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.bitset import iter_bits
from repro.analysis.reaching_defs import (
    Definition,
    ReachingDefinitions,
    compute_reaching_definitions,
)
from repro.cfg.graph import ControlFlowGraph, seal_adjacency


class DataDependenceGraph:
    """Edges ``(def node, use node, variable)``."""

    def __init__(self) -> None:
        self._deps: Dict[int, List[Tuple[int, str]]] = {}
        self._uses: Dict[int, List[Tuple[int, str]]] = {}
        self._edge_set: Set[Tuple[int, int, str]] = set()

    def add(self, def_node: int, use_node: int, var: str) -> None:
        if (def_node, use_node, var) in self._edge_set:
            return
        self._edge_set.add((def_node, use_node, var))
        self._deps.setdefault(use_node, []).append((def_node, var))
        self._uses.setdefault(def_node, []).append((use_node, var))

    def seal(self) -> None:
        """End construction: see :func:`repro.cfg.graph.seal_adjacency`."""
        seal_adjacency(self._deps, self._uses)

    def defs_reaching(self, use_node: int) -> List[int]:
        """Nodes *use_node* is directly data dependent on (deduped,
        sorted)."""
        return sorted({src for src, _ in self._deps.get(use_node, [])})

    def def_edges_of(self, use_node: int) -> List[Tuple[int, str]]:
        return list(self._deps.get(use_node, []))

    def uses_of(self, def_node: int) -> List[int]:
        """Nodes directly data dependent on *def_node* (deduped, sorted)."""
        return sorted({dst for dst, _ in self._uses.get(def_node, [])})

    def edges(self) -> Iterable[Tuple[int, int, str]]:
        return sorted(self._edge_set)

    def edge_pairs(self) -> Set[Tuple[int, int]]:
        return {(src, dst) for src, dst, _ in self._edge_set}

    def __len__(self) -> int:
        return len(self._edge_set)


def compute_data_dependence(
    cfg: ControlFlowGraph,
    reaching: Optional[object] = None,
) -> DataDependenceGraph:
    """Build the data-dependence graph of *cfg*.

    Pass a precomputed reaching-definitions result to avoid recomputing
    it (the PDG builder does).
    """
    if reaching is None:
        reaching = compute_reaching_definitions(cfg)
    ddg = DataDependenceGraph()
    if isinstance(reaching, ReachingDefinitions):
        # Mask-native: the definitions of v reaching n are
        # in_mask[n] & var_mask[v], no set decoded.
        in_mask, var_mask = reaching.in_mask, reaching.var_mask
        def_nodes = reaching.def_nodes
        for node in cfg.sorted_nodes():
            reaching_in = in_mask[node.id]
            if not (node.uses and reaching_in):
                continue
            for var in sorted(node.uses):
                for bit in iter_bits(reaching_in & var_mask.get(var, 0)):
                    ddg.add(def_nodes[bit], node.id, var)
        ddg.seal()
        return ddg
    for node in cfg.sorted_nodes():
        if not node.uses:
            continue
        for definition in reaching.in_[node.id]:
            if definition.var in node.uses:
                ddg.add(definition.node, node.id, definition.var)
    ddg.seal()
    return ddg


def def_use_chains(
    cfg: ControlFlowGraph,
) -> Dict[Definition, List[int]]:
    """Map each definition to the nodes it reaches and that use it."""
    reaching = compute_reaching_definitions(cfg)
    chains: Dict[Definition, List[int]] = {}
    for node in cfg.sorted_nodes():
        for definition in reaching.in_[node.id]:
            if definition.var in node.uses:
                chains.setdefault(definition, []).append(node.id)
    for uses in chains.values():
        uses.sort()
    return chains
