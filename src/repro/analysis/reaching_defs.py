"""Reaching definitions over an SL CFG.

A *definition* is a (node, variable) pair.  The fixed point of the
forward gen/kill problem gives, for each node, the set of definitions
that may reach its entry — the raw material for def-use chains and the
data-dependence edges of the PDG (paper §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Union

from repro.analysis.bitset import iter_bits, solve_gen_kill_bitset
from repro.analysis.dataflow import (
    ENGINE_BITSET,
    ENGINE_SETS,
    FORWARD,
    DataflowResult,
    GenKillProblem,
    get_dataflow_engine,
    solve_dataflow,
)
from repro.cfg.graph import ControlFlowGraph


@dataclass(frozen=True, order=True)
class Definition:
    """A definition of *var* at CFG node *node*."""

    node: int
    var: str

    def __repr__(self) -> str:
        return f"Def({self.node}, {self.var})"


class ReachingDefinitions:
    """The reaching-definitions fixed point as bit masks.

    Bit ``i`` stands for the definition of ``def_vars[i]`` at node
    ``def_nodes[i]``; sites are numbered in node-id order, and a node's
    variables in sorted order.  ``var_mask[v]`` holds the bits of every
    definition of ``v``, and ``in_mask``/``out_mask`` map each node id to
    the definitions reaching its entry/exit.

    ``in_`` and ``out`` give the same fixed point as frozensets of
    :class:`Definition` — equal to the ``engine="sets"`` result — decoded
    on first access only, for the consumers that want sets.
    """

    __slots__ = (
        "def_nodes", "def_vars", "var_mask", "in_mask", "out_mask",
        "_in", "_out",
    )

    def __init__(
        self,
        def_nodes: List[int],
        def_vars: List[str],
        var_mask: Dict[str, int],
        in_mask: Dict[int, int],
        out_mask: Dict[int, int],
    ) -> None:
        self.def_nodes = def_nodes
        self.def_vars = def_vars
        self.var_mask = var_mask
        self.in_mask = in_mask
        self.out_mask = out_mask
        self._in: Optional[Dict[int, FrozenSet[Definition]]] = None
        self._out: Optional[Dict[int, FrozenSet[Definition]]] = None

    def _decode(self, masks: Dict[int, int]) -> Dict[int, FrozenSet[Definition]]:
        definitions = [
            Definition(node, var)
            for node, var in zip(self.def_nodes, self.def_vars)
        ]
        return {
            node: frozenset(definitions[bit] for bit in iter_bits(mask))
            for node, mask in masks.items()
        }

    @property
    def in_(self) -> Dict[int, FrozenSet[Definition]]:
        if self._in is None:
            self._in = self._decode(self.in_mask)
        return self._in

    @property
    def out(self) -> Dict[int, FrozenSet[Definition]]:
        if self._out is None:
            self._out = self._decode(self.out_mask)
        return self._out

    def sites(self, node_id: int, var: str) -> List[int]:
        """Nodes whose definition of *var* reaches the entry of
        *node_id*, ascending (bits follow node-id order)."""
        mask = self.in_mask.get(node_id, 0) & self.var_mask.get(var, 0)
        def_nodes = self.def_nodes
        return [def_nodes[bit] for bit in iter_bits(mask)]


def compute_reaching_definitions(
    cfg: ControlFlowGraph,
    engine: Optional[str] = None,
) -> Union[ReachingDefinitions, DataflowResult[Definition]]:
    """Solve reaching definitions for *cfg*.

    ``result.in_[n]`` holds the definitions reaching the entry of node
    ``n``.  Variables never defined on some path simply have no reaching
    definition there (SL reads of unwritten variables default to zero at
    run time; the slicers treat them as having no data dependence).

    *engine* picks the solver (default: the
    :mod:`repro.analysis.dataflow` knob).  ``"bitset"`` builds each
    node's gen/kill masks straight from the definition sites and returns
    a :class:`ReachingDefinitions`; ``"sets"`` runs the generic frozenset
    solver, the reference the bitset result is tested against.
    """
    if engine is None:
        engine = get_dataflow_engine()
    if engine == ENGINE_SETS:
        return _reference_reaching_definitions(cfg)
    if engine != ENGINE_BITSET:
        raise ValueError(f"unknown dataflow engine: {engine!r}")
    def_nodes: List[int] = []
    def_vars: List[str] = []
    var_mask: Dict[str, int] = {}
    gen: Dict[int, int] = {}
    defining = [node for node in cfg.sorted_nodes() if node.defs]
    for node in defining:
        mask = 0
        for var in sorted(node.defs):
            bit = 1 << len(def_nodes)
            def_nodes.append(node.id)
            def_vars.append(var)
            var_mask[var] = var_mask.get(var, 0) | bit
            mask |= bit
        gen[node.id] = mask
    # Kill every definition of the node's variables, its own included:
    # out = gen | (in & ~kill) puts the node's own back.
    kill: Dict[int, int] = {}
    for node in defining:
        mask = 0
        for var in node.defs:
            mask |= var_mask[var]
        kill[node.id] = mask
    in_mask, out_mask = solve_gen_kill_bitset(cfg, gen, kill, forward=True)
    return ReachingDefinitions(def_nodes, def_vars, var_mask, in_mask, out_mask)


def _reference_reaching_definitions(
    cfg: ControlFlowGraph,
) -> DataflowResult[Definition]:
    """The set-based formulation, solved by the generic framework."""
    all_defs: Dict[str, FrozenSet[Definition]] = {}
    for node in cfg.sorted_nodes():
        for var in node.defs:
            existing = all_defs.get(var, frozenset())
            all_defs[var] = existing | {Definition(node.id, var)}

    gen_cache: Dict[int, FrozenSet[Definition]] = {}
    kill_cache: Dict[int, FrozenSet[Definition]] = {}
    for node in cfg.sorted_nodes():
        gen_cache[node.id] = frozenset(
            Definition(node.id, var) for var in node.defs
        )
        kill: FrozenSet[Definition] = frozenset()
        for var in node.defs:
            kill |= all_defs[var]
        kill_cache[node.id] = kill - gen_cache[node.id]

    problem = GenKillProblem(
        gen=gen_cache.__getitem__,
        kill=kill_cache.__getitem__,
        direction=FORWARD,
    )
    return solve_dataflow(cfg, problem, engine=ENGINE_SETS)
