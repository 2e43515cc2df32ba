"""A generic worklist dataflow framework over CFGs.

Monotone set-based problems (union meet) are all the reproduction needs:
reaching definitions (forward) feed data dependence; live variables
(backward) support the dead-code example.  Problems are expressed either
as gen/kill pairs (:class:`GenKillProblem`) or an arbitrary monotone
transfer function.

Two engines solve gen/kill problems:

* ``"sets"`` — the original frozenset worklist below, kept as the
  reference implementation;
* ``"bitset"`` — :mod:`repro.analysis.bitset` kernels over integer
  masks, the default.  Only pure gen/kill problems qualify: a problem
  whose class overrides :meth:`GenKillProblem.transfer` may compute
  anything, so it always takes the sets path regardless of engine.

Both produce identical :class:`DataflowResult` frozensets; the
differential property suite holds them to that.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Generic, Hashable, Iterator, Optional, TypeVar

from repro.cfg.graph import ControlFlowGraph
from repro.service.resilience import budget_check_nodes, current_budget

T = TypeVar("T", bound=Hashable)

FORWARD = "forward"
BACKWARD = "backward"

ENGINE_SETS = "sets"
ENGINE_BITSET = "bitset"

_default_engine = ENGINE_BITSET


def get_dataflow_engine() -> str:
    """The engine used when :func:`solve_dataflow` gets no explicit one."""
    return _default_engine


def set_dataflow_engine(engine: str) -> None:
    """Set the process-wide default engine (``"sets"`` or ``"bitset"``)."""
    global _default_engine
    if engine not in (ENGINE_SETS, ENGINE_BITSET):
        raise ValueError(f"unknown dataflow engine: {engine!r}")
    _default_engine = engine


@contextlib.contextmanager
def dataflow_engine(engine: str) -> Iterator[None]:
    """Temporarily override the default engine (differential tests)."""
    previous = _default_engine
    set_dataflow_engine(engine)
    try:
        yield
    finally:
        set_dataflow_engine(previous)


@dataclass
class DataflowResult(Generic[T]):
    """Fixed-point values at each node boundary.

    For a forward problem ``in_`` is the value at node entry and ``out``
    at node exit; for a backward problem the names keep their meaning
    (``in_`` still precedes the node in execution order).
    """

    in_: Dict[int, FrozenSet[T]]
    out: Dict[int, FrozenSet[T]]


class GenKillProblem(Generic[T]):
    """A classic gen/kill bit-vector problem with union meet.

    Subclasses (or direct instances) provide ``gen(node_id)`` and
    ``kill(node_id)``; the transfer function is
    ``out = gen ∪ (in − kill)`` (forward) or the mirror image (backward).
    """

    direction: str = FORWARD

    def __init__(
        self,
        gen: Callable[[int], FrozenSet[T]],
        kill: Callable[[int], FrozenSet[T]],
        direction: str = FORWARD,
    ) -> None:
        self._gen = gen
        self._kill = kill
        self.direction = direction

    def gen(self, node_id: int) -> FrozenSet[T]:
        return self._gen(node_id)

    def kill(self, node_id: int) -> FrozenSet[T]:
        return self._kill(node_id)

    def transfer(self, node_id: int, value: FrozenSet[T]) -> FrozenSet[T]:
        return self.gen(node_id) | (value - self.kill(node_id))


def solve_dataflow(
    cfg: ControlFlowGraph,
    problem: GenKillProblem[T],
    engine: Optional[str] = None,
) -> DataflowResult[T]:
    """Solve *problem* to its least fixed point.

    Every node (including ones unreachable from ENTRY — dead code still
    has well-defined local dataflow) starts at the empty set.  *engine*
    defaults to the module-level knob; the bitset engine only engages for
    problems whose transfer is the stock gen/kill one.
    """
    if engine is None:
        engine = _default_engine
    elif engine not in (ENGINE_SETS, ENGINE_BITSET):
        raise ValueError(f"unknown dataflow engine: {engine!r}")
    if (
        engine == ENGINE_BITSET
        and type(problem).transfer is GenKillProblem.transfer
    ):
        return _solve_bitset(cfg, problem)
    budget_check_nodes(len(cfg.nodes), "dataflow")
    budget = current_budget()
    forward = problem.direction == FORWARD
    if forward:
        inputs_of = cfg.pred_ids
        outputs_of = cfg.succ_ids
    else:
        inputs_of = cfg.succ_ids
        outputs_of = cfg.pred_ids

    before: Dict[int, FrozenSet[T]] = {n: frozenset() for n in cfg.nodes}
    after: Dict[int, FrozenSet[T]] = {n: frozenset() for n in cfg.nodes}

    worklist = deque(sorted(cfg.nodes))
    queued = set(worklist)
    while worklist:
        if budget is not None:
            budget.tick("dataflow")
        node = worklist.popleft()
        queued.discard(node)
        merged: FrozenSet[T] = frozenset()
        for source in inputs_of(node):
            merged |= after[source]
        before[node] = merged
        new_after = problem.transfer(node, merged)
        if new_after != after[node]:
            after[node] = new_after
            for target in outputs_of(node):
                if target not in queued:
                    queued.add(target)
                    worklist.append(target)

    if forward:
        return DataflowResult(in_=before, out=after)
    return DataflowResult(in_=after, out=before)


def _fact_order(facts: FrozenSet[T]) -> list:
    # Deterministic universe order even for unsortable/mixed fact types
    # (the generic framework allows any hashable fact).
    try:
        return sorted(facts)
    except TypeError:
        return sorted(facts, key=repr)


def _solve_bitset(
    cfg: ControlFlowGraph, problem: GenKillProblem[T]
) -> DataflowResult[T]:
    """Encode a pure gen/kill problem into masks, solve, decode."""
    from repro.analysis.bitset import BitUniverse, solve_gen_kill_bitset

    node_ids = sorted(cfg.nodes)
    gen_sets = {n: problem.gen(n) for n in node_ids}
    kill_sets = {n: problem.kill(n) for n in node_ids}

    def all_facts():
        for n in node_ids:
            yield from _fact_order(gen_sets[n])
        for n in node_ids:
            yield from _fact_order(kill_sets[n])

    universe: BitUniverse = BitUniverse(all_facts())
    gen = {n: universe.mask_of(gen_sets[n]) for n in node_ids}
    kill = {n: universe.mask_of(kill_sets[n]) for n in node_ids}

    forward = problem.direction == FORWARD
    before, after = solve_gen_kill_bitset(cfg, gen, kill, forward=forward)
    before_sets = {n: universe.decode(m) for n, m in before.items()}
    after_sets = {n: universe.decode(m) for n, m in after.items()}
    if forward:
        return DataflowResult(in_=before_sets, out=after_sets)
    return DataflowResult(in_=after_sets, out=before_sets)
