"""Bitset analysis kernels — dense integer-mask dataflow.

Python's arbitrary-precision integers are free bit vectors: a set of
facts over a fixed, indexed universe is one ``int``, union is ``|``,
intersection is ``&``, and difference is ``& ~kill`` — each a single
C-level operation over machine words instead of a Python-object hash
walk.  The kernels here re-implement the reproduction's hottest
fixed-point loops on that representation:

* :func:`solve_gen_kill_bitset` — the gen/kill union-meet solver behind
  reaching definitions and liveness (the set-based reference lives in
  :mod:`repro.analysis.dataflow`, selectable via its ``engine`` knob);
* :func:`definite_assignment` — the *must* (intersection-meet) dataflow
  behind lint rule SL103;
* :func:`reverse_reachable` — the reaches-EXIT pass behind lint rule
  SL107.

All three decode their fixed points back to the exact frozensets the
set-based reference produces, so callers (and the differential property
suite) see byte-identical results regardless of engine.  Iteration runs
over a reverse-postorder worklist, which converges in a near-minimal
number of passes for reducible flowgraphs.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.cfg.graph import ControlFlowGraph
from repro.service.resilience import current_budget

T = TypeVar("T")

try:
    popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - older interpreters

    def popcount(mask: int) -> int:
        return bin(mask).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """The set bit positions of a mask, ascending — the shared decode
    kernel for every mask-valued fixed point in the repo."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitUniverse:
    """A fixed, indexed universe of facts: fact ↔ bit position.

    The fact order is the construction order (deduplicated), so two
    universes built from the same fact stream assign identical bits —
    which keeps masks comparable and decoding deterministic.
    """

    __slots__ = ("_facts", "_bit")

    def __init__(self, facts: Iterable[T]) -> None:
        self._facts: List[T] = []
        self._bit: Dict[T, int] = {}
        for fact in facts:
            if fact not in self._bit:
                self._bit[fact] = 1 << len(self._facts)
                self._facts.append(fact)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: T) -> bool:
        return fact in self._bit

    def bit(self, fact: T) -> int:
        """The single-bit mask of *fact* (KeyError when unknown)."""
        return self._bit[fact]

    def mask_of(self, facts: Iterable[T]) -> int:
        mask = 0
        bits = self._bit
        for fact in facts:
            mask |= bits[fact]
        return mask

    @property
    def full_mask(self) -> int:
        return (1 << len(self._facts)) - 1

    def decode(self, mask: int) -> FrozenSet[T]:
        """The fact set a mask denotes."""
        facts = self._facts
        return frozenset(facts[position] for position in iter_bits(mask))


def reverse_postorder(cfg: ControlFlowGraph, forward: bool = True) -> List[int]:
    """CFG node ids in reverse postorder of a DFS from ENTRY (forward
    problems) or EXIT over reversed edges (backward problems).

    Nodes unreachable from the chosen root (dead code still has
    well-defined local dataflow) are appended afterwards in id order, so
    the result is always a permutation of ``cfg.nodes``.
    """
    if forward:
        root, next_of = cfg.entry_id, cfg.succ_ids
    else:
        root, next_of = cfg.exit_id, cfg.pred_ids
    postorder: List[int] = []
    seen = {root}
    stack: List[Tuple[int, Iterable[int]]] = [(root, iter(next_of(root)))]
    while stack:
        node, children = stack[-1]
        advanced = False
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(next_of(child))))
                advanced = True
                break
        if not advanced:
            postorder.append(node)
            stack.pop()
    order = postorder[::-1]
    order.extend(n for n in sorted(cfg.nodes) if n not in seen)
    return order


def solve_gen_kill_bitset(
    cfg: ControlFlowGraph,
    gen: Dict[int, int],
    kill: Dict[int, int],
    forward: bool,
    phase: str = "dataflow",
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Least fixed point of ``out = gen | (in & ~kill)`` with union meet.

    Returns ``(before, after)`` masks per node, where *before* is the
    value merged from the node's dataflow inputs and *after* the
    transferred value — the caller maps them onto entry/exit order.
    """
    budget = current_budget()
    if budget is not None:
        budget.check_nodes(len(cfg.nodes), phase)
    inputs_of = cfg.pred_ids if forward else cfg.succ_ids
    outputs_of = cfg.succ_ids if forward else cfg.pred_ids

    before = {n: 0 for n in cfg.nodes}
    after = {n: 0 for n in cfg.nodes}
    not_kill = {n: ~kill.get(n, 0) for n in cfg.nodes}

    worklist = deque(reverse_postorder(cfg, forward=forward))
    queued = set(worklist)
    while worklist:
        if budget is not None:
            budget.tick(phase)
        node = worklist.popleft()
        queued.discard(node)
        merged = 0
        for source in inputs_of(node):
            merged |= after[source]
        before[node] = merged
        new_after = gen.get(node, 0) | (merged & not_kill[node])
        if new_after != after[node]:
            after[node] = new_after
            for target in outputs_of(node):
                if target not in queued:
                    queued.add(target)
                    worklist.append(target)
    return before, after


def definite_assignment(
    cfg: ControlFlowGraph, reachable: FrozenSet[int]
) -> Dict[int, FrozenSet[str]]:
    """Definite assignment (lint SL103) as a bitset *must* dataflow.

    A variable is safely initialised at a node only when **every** ENTRY
    path assigns it first, so IN is the intersection (``&``) over
    reachable predecessors; unreachable nodes are excluded entirely.
    Returns ``node id → frozenset of definitely-assigned variables on
    entry`` for every reachable non-ENTRY node — identical to the
    set-based reference previously inlined in
    :func:`repro.lint.rules._check_uninitialized`.
    """
    budget = current_budget()
    all_vars: List[str] = []
    seen_vars = set()
    for node in cfg.statement_nodes():
        for var in sorted(node.defs):
            if var not in seen_vars:
                seen_vars.add(var)
                all_vars.append(var)
    universe = BitUniverse(all_vars)
    full = universe.full_mask
    defs_mask = {
        node.id: universe.mask_of(node.defs) for node in cfg.sorted_nodes()
    }

    assigned_in: Dict[int, int] = {}
    assigned_out: Dict[int, int] = {n: full for n in reachable}
    assigned_out[cfg.entry_id] = 0

    order = [
        n
        for n in reverse_postorder(cfg, forward=True)
        if n in reachable and n != cfg.entry_id
    ]
    worklist = deque(order)
    queued = set(worklist)
    while worklist:
        if budget is not None:
            budget.tick("sl103-definite-assignment")
        node_id = worklist.popleft()
        queued.discard(node_id)
        preds = [p for p in cfg.pred_ids(node_id) if p in reachable]
        if preds:
            in_mask = full
            for pred in preds:
                in_mask &= assigned_out[pred]
        else:
            in_mask = 0
        out_mask = in_mask | defs_mask.get(node_id, 0)
        if (
            assigned_in.get(node_id) == in_mask
            and assigned_out[node_id] == out_mask
        ):
            continue
        assigned_in[node_id] = in_mask
        assigned_out[node_id] = out_mask
        for succ in cfg.succ_ids(node_id):
            if succ in reachable and succ not in queued:
                queued.add(succ)
                worklist.append(succ)
    return {
        node_id: universe.decode(mask)
        for node_id, mask in assigned_in.items()
    }


def reverse_reachable(
    cfg: ControlFlowGraph, target: int
) -> FrozenSet[int]:
    """Node ids from which *target* is reachable (lint SL107's
    reaches-EXIT pass), computed by mask propagation.

    Each node's successor set is one mask; a node reaches the target
    exactly when ``succ_mask & reaches`` is non-zero.  Sweeping nodes in
    postorder (successors before predecessors for the acyclic core)
    converges in one pass plus one confirmation pass on most programs.
    """
    budget = current_budget()
    node_bit = {n: 1 << i for i, n in enumerate(sorted(cfg.nodes))}
    succ_mask = {}
    for node_id in cfg.nodes:
        mask = 0
        for succ in cfg.succ_ids(node_id):
            mask |= node_bit[succ]
        succ_mask[node_id] = mask

    # Postorder of the forward DFS visits successors before their
    # predecessors wherever the graph is acyclic.
    sweep = reverse_postorder(cfg, forward=True)[::-1]
    reaches = node_bit[target]
    changed = True
    while changed:
        if budget is not None:
            budget.tick("sl107-reverse-reachability")
        changed = False
        for node_id in sweep:
            bit = node_bit[node_id]
            if not reaches & bit and succ_mask[node_id] & reaches:
                reaches |= bit
                changed = True
    return frozenset(n for n, bit in node_bit.items() if reaches & bit)


def node_universe(node_ids: Sequence[int]) -> BitUniverse:
    """A universe over CFG/PDG node ids in sorted order (shared helper
    for the closure index and the slice verifier's mask tables)."""
    return BitUniverse(sorted(node_ids))
