"""System dependence graph construction (DESIGN.md §12).

The SDG is built as one :class:`ProgramAnalysis` per unit — the entire
intraprocedural pipeline (CFG, postdominator tree, lexical successor
tree, control/data dependence, PDG, closure index) is reused per
procedure, exactly as Horwitz–Reps–Binkley stitch per-procedure PDGs —
plus the interprocedural glue:

* a *local graph* per unit: the unit's PDG, plus control edges from each
  CALL node to its actual-in/actual-out chain (an actual parameter is
  meaningless without its call), plus the summary edges of its calls;
* *parameter bindings* per call site: actual-in *i* ↔ formal-in *i* of
  the callee, formal-out *j* ↔ actual-out *j*;
* the *call binding*: CALL node ↔ callee ENTRY.

A summary edge ``actual-in i → actual-out j`` records that the callee's
formal-out *j* transitively depends on its formal-in *i* (the callee's
*formal pairs*), computed over the callee's own local graph — which
holds the summary edges of the calls inside it.  The least fixed point
is reached callees-first over the call graph's SCC condensation: a
non-recursive unit is stitched once, under its callees' final pairs; a
recursive SCC iterates from empty pairs until no member's pairs change
(pairs only grow, so this is the least fixed point).

Node ids stay unit-local everywhere (the per-unit trees and the Fig. 7
jump tests only make sense per procedure); each unit gets a dense global
id ``offset`` so results can also be reported as one flat vertex space.

An analysis that came through the incremental front end carries a unit
cache and its unit fingerprints (DESIGN.md §14).  The same assembly then
salvages untouched units' analyses and, for non-recursive units, their
stitched local graphs, keyed by the unit fingerprint plus the callee
pairs they were stitched under.  A cold build has no cache and does no
cache work: no lookups, no fingerprints, no assumption keys.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.cfg.builder import call_interface
from repro.cfg.graph import NodeKind
from repro.lang.ast_nodes import MAIN_UNIT, Program
from repro.lang.parser import parse_program
from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis, analyze_program
from repro.pdg.closure import condense
from repro.pdg.graph import CONTROL, ProgramDependenceGraph
from repro.sdg.callgraph import CallGraph
from repro.sdg.params import ParamSignature
from repro.service.resilience import budget_check_nodes, budget_round

#: Edge kind of the Horwitz–Reps–Binkley summary edges (actual-in →
#: actual-out; transitive dependence through the callee).
SUMMARY = "summary"

#: Formal pairs ``(i, j)``: formal-out *j* depends on formal-in *i*.
Pairs = FrozenSet[Tuple[int, int]]


@dataclass
class CallSiteNodes:
    """The node chain of one call site, by role (unit-local ids)."""

    caller: str
    callee: str
    call_id: int
    #: parameter index → actual-in node id (every position has one).
    actual_in: Dict[int, int] = field(default_factory=dict)
    #: parameter index → actual-out node id (only copy-out positions).
    actual_out: Dict[int, int] = field(default_factory=dict)


@dataclass
class ProcedureInfo:
    """One unit's share of the SDG."""

    name: str
    analysis: ProgramAnalysis
    #: The unit-local slicing graph: PDG ∪ call-control ∪ summary edges.
    local: ProgramDependenceGraph
    #: Global vertex id of this unit's local node 0.
    offset: int
    #: parameter index → formal-in / formal-out node id (procs only).
    formal_in: Dict[int, int] = field(default_factory=dict)
    formal_out: Dict[int, int] = field(default_factory=dict)
    #: Call sites *inside* this unit, in lexical order.
    sites: List[CallSiteNodes] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.analysis.cfg.nodes)


@dataclass
class StitchedUnit:
    """One non-recursive unit's local graph under one callee-pairs
    assumption, as the unit cache keeps it.

    ``local`` is shared across programs and **must not be mutated** —
    the SDG slicer only reads it (and lazily builds its closure index,
    which is idempotent).
    """

    local: ProgramDependenceGraph
    pairs: Pairs
    summary_count: int


@dataclass
class SDGAnalysis:
    """The stitched system dependence graph of one program."""

    program: Program
    graph: CallGraph
    signatures: Dict[str, ParamSignature]
    #: Unit name → per-unit share, main first, declaration order after.
    procs: Dict[str, ProcedureInfo]
    #: Callee name → the call sites that invoke it (across all units).
    sites_of: Dict[str, List[CallSiteNodes]]
    summary_edges: int = 0
    #: Summary-fixpoint rounds: one per SCC evaluation plus one per
    #: round of a recursive SCC (each is one budget round).
    summary_iterations: int = 0
    #: Unit name → its formal pairs (main: empty).  The slice-result and
    #: index salvage tiers compare these across program versions.
    unit_pairs: Dict[str, Pairs] = field(default_factory=dict)
    #: Whole-SDG closure index and its build lock (repro.sdg.closure).
    _closure_index: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    _closure_index_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def proc_of_global(self, global_id: int) -> str:
        """The unit owning a flat vertex id."""
        for name, info in self.procs.items():
            if info.offset <= global_id < info.offset + info.size:
                return name
        raise KeyError(f"global vertex {global_id} out of range")

    def global_id(self, unit: str, local_id: int) -> int:
        return self.procs[unit].offset + local_id

    @property
    def is_degenerate(self) -> bool:
        """True for a single-unit program (no procedures): the SDG is
        exactly the main unit's PDG and interprocedural slicing must
        coincide node-for-node with the intraprocedural algorithms."""
        return not self.program.procs


def _local_graph(analysis: ProgramAnalysis) -> ProgramDependenceGraph:
    """The unit's slicing graph: a copy of its PDG (the shared analysis
    object must not grow summary or call edges other algorithms would
    see) plus a control edge from every CALL node to each parameter node
    of its chain."""
    local = ProgramDependenceGraph()
    for node_id in analysis.pdg.nodes:
        local.add_node(node_id)
    for src, dst, kind, detail in analysis.pdg.edges():
        local.add_edge(src, dst, kind, detail)
    for call_id, chain in analysis.cfg.call_chains.items():
        for member in chain:
            if member != call_id:
                local.add_edge(call_id, member, CONTROL, "call")
    return local


def _site_nodes(analysis: ProgramAnalysis, unit: str) -> List[CallSiteNodes]:
    cfg = analysis.cfg
    sites: List[CallSiteNodes] = []
    for call_id in sorted(cfg.call_chains):
        call_node = cfg.nodes[call_id]
        site = CallSiteNodes(
            caller=unit, callee=call_node.call_name, call_id=call_id
        )
        for member in cfg.call_chains[call_id]:
            node = cfg.nodes[member]
            if node.kind is NodeKind.ACTUAL_IN:
                site.actual_in[node.param_index] = member
            elif node.kind is NodeKind.ACTUAL_OUT:
                site.actual_out[node.param_index] = member
        sites.append(site)
    return sites


def formal_dependences(info: ProcedureInfo) -> Pairs:
    """The unit's formal pairs under the summary edges currently in its
    local graph."""
    pairs: Set[Tuple[int, int]] = set()
    for j, f_out in info.formal_out.items():
        closure = info.local.backward_closure([f_out])
        for i, f_in in info.formal_in.items():
            if f_in in closure:
                pairs.add((i, j))
    return frozenset(pairs)


def _insert_summary_edges(
    info: ProcedureInfo, callee_pairs: Dict[str, Pairs]
) -> int:
    """Add the summary edges of every call site of *info*'s unit whose
    callee has pairs in *callee_pairs*; returns how many edges are new
    (re-insertion is idempotent, so counts stay exact across rounds)."""
    local = info.local
    added = 0
    for site in info.sites:
        for i, j in callee_pairs.get(site.callee, ()):
            ai = site.actual_in.get(i)
            ao = site.actual_out.get(j)
            if ai is None or ao is None:
                continue
            if not local.has_edge(ai, ao, SUMMARY, site.callee):
                local.add_edge(ai, ao, SUMMARY, site.callee)
                added += 1
    return added


def _stitch(info: ProcedureInfo, callee_pairs: Dict[str, Pairs]) -> StitchedUnit:
    """A non-recursive unit's local graph under its callees' final pairs."""
    info.local = _local_graph(info.analysis)
    count = _insert_summary_edges(info, callee_pairs)
    pairs = frozenset() if info.name == MAIN_UNIT else formal_dependences(info)
    return StitchedUnit(local=info.local, pairs=pairs, summary_count=count)


def _unit_analysis(
    program: Program, unit: str, cache, digests
) -> ProgramAnalysis:
    """One procedure's analysis: salvaged from the unit cache when its
    fingerprint hits, else built (and cached when there is a cache)."""
    if cache is None:
        return analyze_program(program, unit=unit)
    record = cache.get_unit(digests[unit])
    if record is not None:
        cache.stats.record("units_reused")
        proc = program.proc_named(unit)
        return record.analysis.rebind(
            Program(body=proc.body, source=program.source, procs=program.procs)
        )
    cache.stats.record("units_built")
    analysis = analyze_program(program, unit=unit)
    cache.put_unit(digests[unit], analysis)
    return analysis


def _summarize(
    graph: CallGraph,
    procs: Dict[str, ProcedureInfo],
    cache,
    digests,
) -> Tuple[int, int, Dict[str, Pairs]]:
    """Stitch every unit's local graph, callees first; returns (summary
    edge count, rounds, formal pairs per unit)."""
    pairs: Dict[str, Pairs] = {}
    total = 0
    rounds = 0
    _, components = condense(
        graph.units, lambda unit: sorted(graph.callees[unit]), "sdg-summary"
    )
    for component in components:
        component = sorted(component)
        rounds += 1
        budget_round("sdg-summary")
        unit = component[0]
        if len(component) == 1 and unit not in graph.recursive:
            info = procs[unit]
            callee_pairs = {callee: pairs[callee] for callee in graph.callees[unit]}
            if cache is None:
                stitched = _stitch(info, callee_pairs)
            else:
                key = (digests[unit], tuple(sorted(callee_pairs.items())))
                stitched = cache.get_stitched(digests[unit], key)
                if stitched is None:
                    cache.stats.record("stitched_built")
                    stitched = cache.put_stitched(
                        digests[unit], key, _stitch(info, callee_pairs)
                    )
                else:
                    cache.stats.record("stitched_reused")
            info.local = stitched.local
            pairs[unit] = stitched.pairs
            total += stitched.summary_count
            continue

        # Recursive SCC: iterate from empty pairs, never from cached
        # ones — an edit can shrink pairs, and stale seeds would
        # overshoot the least fixed point.
        if cache is not None:
            cache.stats.record("recursive_rebuilt", len(component))
        members = set(component)
        for unit in component:
            info = procs[unit]
            info.local = _local_graph(info.analysis)
            external = {
                callee: pairs[callee]
                for callee in graph.callees[unit]
                if callee not in members
            }
            total += _insert_summary_edges(info, external)
        changed = True
        while changed:
            changed = False
            rounds += 1
            budget_round("sdg-summary")
            for unit in component:
                unit_pairs = formal_dependences(procs[unit])
                if unit_pairs == pairs.get(unit):
                    continue
                pairs[unit] = unit_pairs
                changed = True
                for caller in sorted(graph.callers[unit] & members):
                    total += _insert_summary_edges(
                        procs[caller], {unit: unit_pairs}
                    )
    return total, rounds, pairs


def build_sdg(
    source_or_program: Union[str, Program],
    main_analysis: Optional[ProgramAnalysis] = None,
) -> SDGAnalysis:
    """Build the SDG: one analysis per unit, stitched, summary edges
    computed callees-first to the least fixed point.

    ``main_analysis`` lets the service reuse its cached main-unit
    analysis instead of rebuilding it.  Every unit is analysed with the
    default front-end options, the ones the service uses.  When it
    carries a unit cache (the incremental front end attaches one),
    procedure analyses and stitched local graphs are salvaged from it;
    the graph is the same either way.
    """
    with trace_span("sdg-build") as span:
        if isinstance(source_or_program, str):
            with trace_span("parse", bytes=len(source_or_program)):
                program = parse_program(source_or_program)
        else:
            program = source_or_program
        cache = digests = None
        if main_analysis is not None:
            program = main_analysis.program
            cache = main_analysis._unit_cache
            digests = main_analysis._unit_digests
        with trace_span("sdg-callgraph"):
            graph, sigs = call_interface(program)

        procs: Dict[str, ProcedureInfo] = {}
        sites_of: Dict[str, List[CallSiteNodes]] = {
            unit: [] for unit in graph.units
        }
        offset = 0
        for unit in graph.units:
            with trace_span("sdg-unit", unit=unit):
                if unit != MAIN_UNIT:
                    analysis = _unit_analysis(program, unit, cache, digests)
                elif main_analysis is not None:
                    # A shell, not the analysis itself: the analysis
                    # memoizes this SDG, and a back-edge would make
                    # every evicted analysis cyclic garbage.
                    analysis = main_analysis.rebind(program)
                else:
                    analysis = analyze_program(program)
                cfg = analysis.cfg
                info = ProcedureInfo(
                    name=unit,
                    analysis=analysis,
                    local=None,  # stitched by _summarize
                    offset=offset,
                )
                for node_id in cfg.formal_ins:
                    info.formal_in[cfg.nodes[node_id].param_index] = node_id
                for node_id in cfg.formal_outs:
                    info.formal_out[cfg.nodes[node_id].param_index] = node_id
                info.sites = _site_nodes(analysis, unit)
                for site in info.sites:
                    sites_of[site.callee].append(site)
                procs[unit] = info
                offset += info.size
                # Per-unit budget stop: the cumulative SDG vertex count
                # honors the request's node cap (the analysis cache only
                # guards the main unit), and the deadline is polled
                # between unit analyses.
                budget_check_nodes(offset, "sdg-build")

        with trace_span("sdg-summary") as summary_span:
            total, rounds, pairs = _summarize(graph, procs, cache, digests)
            if not program.procs:
                total = rounds = 0
            summary_span.set(edges=total, iterations=rounds)
        sdg = SDGAnalysis(
            program=program,
            graph=graph,
            signatures=sigs,
            procs=procs,
            sites_of=sites_of,
            summary_edges=total,
            summary_iterations=rounds,
            unit_pairs=pairs,
        )
        span.set(units=len(procs), vertices=offset, summary_edges=total)
        return sdg


def sdg_for_analysis(analysis: ProgramAnalysis) -> SDGAnalysis:
    """The SDG of an already-analysed program, memoized on the analysis
    object, so an evicted analysis takes its SDG with it.  The SDG holds
    a rebound shell of the analysis, never the analysis itself, so the
    pair stays acyclic (DESIGN.md §17)."""
    if analysis._sdg is None:
        analysis._sdg = build_sdg(analysis.program, main_analysis=analysis)
    return analysis._sdg
