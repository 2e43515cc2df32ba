"""Condensed-PDG closure index — amortized backward slicing.

Every slice the reproduction computes bottoms out in
``backward_closure``: the conventional base, each jump Fig. 7 adds, each
jump Fig. 13 and Lyle add, and the SL20x verifier's re-derivation.  A
breadth-first search per query re-walks the same dependence edges over
and over; on the batch/bulk service paths that is the dominant cost.

This module pays the walk once per graph.  The PDG is condensed by
strongly connected components (Tarjan, iterative — dependence cycles
through loops are common), and the condensation — a DAG — admits a
one-pass transitive-closure computation: visiting components
suppliers-first, each component's closure mask is its own bit OR the
(already complete) masks of its supplier components.  After that a
``backward_closure(seeds)`` query is one OR over the seeds' component
masks plus a decode — no graph traversal at all.

The index is *query infrastructure*, not a different algorithm: decoded
results are node-for-node identical to the BFS reference, which the
differential property suite enforces across every registry algorithm.

Construction is budget-ticked (phase ``"closure-index"``) and traced
under its own span.  A build that outruns the request's deadline ends
like any other over-deadline slice: the budget trips and the service
degrades or reports ``budget-exceeded``.

The index is always on in production.  :func:`closure_index` switches it
off for the duration of a ``with`` block; it is the entry point the
differential tests and the benchmarks use to reach the BFS reference.
It stays in ``src/`` because ``perfbench/check.py`` computes its
reference answers through it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple, TypeVar

from repro.obs.tracer import trace_span
from repro.service.resilience import current_budget

#: Whether graphs build and consult the index.  The index is pure
#: acceleration, so it is on; only :func:`closure_index` turns it off.
_enabled = True

#: A condensation node: a PDG node id, or an SDG unit name.
N = TypeVar("N")


def closure_index_enabled() -> bool:
    return _enabled


@contextlib.contextmanager
def closure_index(enabled: bool) -> Iterator[None]:
    """Temporarily force the index on or off (tests, benches)."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    try:
        yield
    finally:
        _enabled = previous


class ClosureIndex:
    """Precomputed backward-transitive-closure masks over an SCC
    condensation.

    Immutable once built; the owning graph discards it on mutation.
    """

    __slots__ = ("_comp_of", "_comp_nodes", "_comp_mask", "node_count")

    def __init__(
        self,
        comp_of: Dict[int, int],
        comp_nodes: List[Tuple[int, ...]],
        comp_mask: List[int],
    ) -> None:
        self._comp_of = comp_of
        self._comp_nodes = comp_nodes
        self._comp_mask = comp_mask
        self.node_count = len(comp_of)

    @property
    def component_count(self) -> int:
        return len(self._comp_nodes)

    def backward_closure(self, seeds: Iterable[int]) -> FrozenSet[int]:
        """All nodes the seeds transitively depend on, seeds included.

        Seeds unknown to the index (nodes the PDG never saw an edge or
        ``add_node`` for) contribute just themselves, mirroring the BFS
        reference.
        """
        comp_of = self._comp_of
        mask = 0
        extra: List[int] = []
        for seed in seeds:
            comp = comp_of.get(seed)
            if comp is None:
                extra.append(seed)
            else:
                mask |= self._comp_mask[comp]
        out = set(extra)
        comp_nodes = self._comp_nodes
        while mask:
            low = mask & -mask
            out.update(comp_nodes[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


def condense(
    node_ids: Sequence[N],
    suppliers_of: Callable[[N], Iterable[N]],
    phase: str = "closure-index",
) -> Tuple[Dict[N, int], List[Tuple[N, ...]]]:
    """SCC-condense a backward dependence adjacency (iterative Tarjan).

    Returns ``(comp_of, comp_nodes)`` where components appear in
    *suppliers-first* emission order: Tarjan finalizes an SCC only after
    every SCC it can reach — here, its transitive suppliers — so a single
    forward sweep over ``comp_nodes`` sees every supplier component
    before its consumers.  Shared by the per-PDG index below, the
    whole-SDG ascend/descend indexes in ``sdg/closure.py``, and the SDG
    builder's callees-first summary order (units as nodes, callees as
    suppliers).  *phase* names the budget phase a deadline abort reports.
    """
    budget = current_budget()
    index_of: Dict[N, int] = {}
    lowlink: Dict[N, int] = {}
    on_stack: Dict[N, bool] = {}
    comp_of: Dict[N, int] = {}
    comp_nodes: List[Tuple[N, ...]] = []
    tarjan_stack: List[N] = []
    counter = 0

    for root in sorted(node_ids):
        if root in index_of:
            continue
        # Iterative Tarjan: (node, iterator over its suppliers).
        work: List[Tuple[N, Iterator[N]]] = []
        index_of[root] = lowlink[root] = counter
        counter += 1
        tarjan_stack.append(root)
        on_stack[root] = True
        work.append((root, iter(suppliers_of(root))))
        while work:
            if budget is not None:
                budget.tick(phase)
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index_of:
                    index_of[child] = lowlink[child] = counter
                    counter += 1
                    tarjan_stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(suppliers_of(child))))
                    advanced = True
                    break
                if on_stack.get(child):
                    if index_of[child] < lowlink[node]:
                        lowlink[node] = index_of[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index_of[node]:
                members: List[N] = []
                while True:
                    member = tarjan_stack.pop()
                    on_stack[member] = False
                    comp_of[member] = len(comp_nodes)
                    members.append(member)
                    if member == node:
                        break
                comp_nodes.append(tuple(members))

    return comp_of, comp_nodes


def build_closure_index(
    node_ids: Sequence[int],
    suppliers_of: Callable[[int], Iterable[int]],
) -> ClosureIndex:
    """Condense the dependence graph and precompute closure masks.

    *suppliers_of(n)* yields the nodes *n* directly depends on (the
    graph's backward adjacency).  Components emerge from
    :func:`condense` suppliers-first, so one forward sweep over the
    emission order completes every mask.
    """
    budget = current_budget()
    with trace_span("closure-index-build", nodes=len(node_ids)) as span:
        comp_of, comp_nodes = condense(node_ids, suppliers_of)

        # Suppliers-first sweep: every supplier component of comp was
        # emitted earlier, so its mask is already complete.
        comp_mask: List[int] = []
        for comp, members in enumerate(comp_nodes):
            if budget is not None:
                budget.tick("closure-index")
            mask = 1 << comp
            for member in members:
                for supplier in suppliers_of(member):
                    supplier_comp = comp_of[supplier]
                    if supplier_comp != comp:
                        mask |= comp_mask[supplier_comp]
            comp_mask.append(mask)

        span.set(components=len(comp_nodes))
        return ClosureIndex(comp_of, comp_nodes, comp_mask)
