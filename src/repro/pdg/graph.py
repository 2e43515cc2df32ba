"""The program dependence graph structure.

Edges are typed ``"control"`` or ``"data"``; the conventional slicing
algorithm is a backward reachability closure over both kinds at once
(paper §2: "finding the transitive closure of the data and control
dependences of the appropriate node(s)").
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.cfg.graph import seal_adjacency
from repro.pdg.closure import (
    ClosureIndex,
    build_closure_index,
    closure_index_enabled,
    index_build_allowed,
)

CONTROL = "control"
DATA = "data"


class ProgramDependenceGraph:
    """A dependence graph over CFG node ids.

    ``dependences_of(n)`` lists the nodes *n* depends on (edges point
    dependence-wise: def → use and controller → controlled, so slicing
    walks edges backwards).
    """

    def __init__(self) -> None:
        #: dependent -> [(supplier, kind, detail)]
        self._back: Dict[int, List[Tuple[int, str, str]]] = {}
        #: supplier -> [(dependent, kind, detail)]
        self._forward: Dict[int, List[Tuple[int, str, str]]] = {}
        self._edge_set: Set[Tuple[int, int, str, str]] = set()
        self.nodes: Set[int] = set()
        #: Lazily built closure index (repro.pdg.closure); discarded on
        #: any mutation so it can never serve stale closures.
        self._closure_index: Optional[ClosureIndex] = None

    def add_node(self, node_id: int) -> None:
        self.nodes.add(node_id)
        self._closure_index = None

    def add_edge(self, src: int, dst: int, kind: str, detail: str = "") -> None:
        """Record that *dst* depends on *src* (kind: control/data)."""
        if (src, dst, kind, detail) in self._edge_set:
            return
        self._edge_set.add((src, dst, kind, detail))
        self.nodes.add(src)
        self.nodes.add(dst)
        self._back.setdefault(dst, []).append((src, kind, detail))
        self._forward.setdefault(src, []).append((dst, kind, detail))
        self._closure_index = None

    def seal(self) -> None:
        """End construction: see :func:`repro.cfg.graph.seal_adjacency`.
        The SDG's stitched local graphs grow summary edges after their
        copy is made, so only finished program PDGs are sealed."""
        seal_adjacency(self._back, self._forward)

    # ------------------------------------------------------------------

    def dependences_of(self, node: int) -> List[int]:
        """Nodes *node* directly depends on (deduped, sorted)."""
        return sorted({src for src, _, _ in self._back.get(node, [])})

    def dependents_of(self, node: int) -> List[int]:
        """Nodes directly depending on *node* (deduped, sorted)."""
        return sorted({dst for dst, _, _ in self._forward.get(node, [])})

    def control_parents_of(self, node: int) -> List[int]:
        return sorted(
            {src for src, kind, _ in self._back.get(node, []) if kind == CONTROL}
        )

    def data_parents_of(self, node: int) -> List[int]:
        return sorted(
            {src for src, kind, _ in self._back.get(node, []) if kind == DATA}
        )

    def edges(self) -> Iterator[Tuple[int, int, str, str]]:
        return iter(sorted(self._edge_set))

    def has_edge(self, src: int, dst: int, kind: str, detail: str = "") -> bool:
        """Exact-edge membership (the SDG builder uses it to keep
        summary-edge counts dedupe-exact across fixpoint rounds)."""
        return (src, dst, kind, detail) in self._edge_set

    def __len__(self) -> int:
        return len(self._edge_set)

    # ------------------------------------------------------------------

    def _suppliers(self, node: int) -> List[int]:
        return [src for src, _, _ in self._back.get(node, [])]

    def ensure_closure_index(self) -> Optional[ClosureIndex]:
        """Build (or return) the closure index, honouring the global
        enablement knob and the budget-pressure skip rule.

        Returns None when the index is disabled or deferred; callers
        then take the BFS path.  The index is assembled fully before the
        single attribute assignment, so a budget abort mid-build leaves
        no partial state and a concurrent reader sees either nothing or
        a complete index.
        """
        if not closure_index_enabled():
            return None
        index = self._closure_index
        if index is None:
            if not index_build_allowed():
                return None
            index = build_closure_index(sorted(self.nodes), self._suppliers)
            self._closure_index = index
        return index

    def backward_closure(self, seeds: Iterable[int]) -> FrozenSet[int]:
        """All nodes the *seeds* transitively depend on, seeds included —
        the conventional slice as a node set.

        Served from the closure index when enabled (one mask OR per
        seed); the BFS below is the reference path and the fallback
        under budget pressure."""
        index = self.ensure_closure_index()
        if index is not None:
            return index.backward_closure(seeds)
        seen: Set[int] = set(seeds)
        queue = deque(seen)
        while queue:
            current = queue.popleft()
            for supplier, _, _ in self._back.get(current, []):
                if supplier not in seen:
                    seen.add(supplier)
                    queue.append(supplier)
        return frozenset(seen)

    def forward_closure(self, seeds: Iterable[int]) -> FrozenSet[int]:
        """All nodes transitively depending on the *seeds* (forward
        slice), seeds included."""
        seen: Set[int] = set(seeds)
        queue = deque(seen)
        while queue:
            current = queue.popleft()
            for dependent, _, _ in self._forward.get(current, []):
                if dependent not in seen:
                    seen.add(dependent)
                    queue.append(dependent)
        return frozenset(seen)
