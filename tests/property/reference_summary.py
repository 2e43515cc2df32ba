"""The monolithic summary-edge worklist, kept as the SDG builder's oracle.

This is how :mod:`repro.sdg.builder` computed Horwitz–Reps–Binkley
summary edges before it assembled them callees-first over the call
graph's SCC condensation: every procedure starts on one worklist, a
popped procedure recomputes its formal-in → formal-out dependence pairs
over its local graph, and any change adds summary edges at its call
sites and re-queues the callers whose graphs grew.  Pairs only grow, so
the worklist reaches the least fixed point; recursion needs no special
case.

The differential suites (``test_sdg_differential.py`` and the edit-trace
reference in ``test_incremental_differential.py``) hold the production
builder to the graphs built here.  Unit analyses, local graphs and call
sites are shared with the production builder; only the fixpoint is
independent.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Optional, Set, Tuple, Union

from repro.cfg.builder import call_interface
from repro.lang.ast_nodes import MAIN_UNIT, Program
from repro.lang.parser import parse_program
from repro.pdg.builder import ProgramAnalysis, analyze_program
from repro.sdg.builder import (
    ProcedureInfo,
    SDGAnalysis,
    _local_graph,
    _site_nodes,
)


def formal_dependences(sdg, unit: str) -> FrozenSet[Tuple[int, int]]:
    """Pairs ``(i, j)``: formal-out *j* of *unit* depends on formal-in
    *i*, under the *current* summary-edge approximation of the calls
    inside *unit*."""
    info = sdg.procs[unit]
    pairs: Set[Tuple[int, int]] = set()
    for j, f_out in info.formal_out.items():
        closure = info.local.backward_closure([f_out])
        for i, f_in in info.formal_in.items():
            if f_in in closure:
                pairs.add((i, j))
    return frozenset(pairs)


def compute_summary_edges(sdg) -> Dict[str, FrozenSet[Tuple[int, int]]]:
    """Add every summary edge to the callers' local graphs (fixed point
    over the call graph); records the edge and pop counts on *sdg* and
    returns each unit's final formal pairs (main: empty)."""
    dep: Dict[str, FrozenSet[Tuple[int, int]]] = {MAIN_UNIT: frozenset()}
    added: Set[Tuple[str, int, int]] = set()
    worklist = deque(unit for unit in sdg.procs if unit != MAIN_UNIT)
    queued = set(worklist)
    iterations = 0
    while worklist:
        unit = worklist.popleft()
        queued.discard(unit)
        iterations += 1
        pairs = formal_dependences(sdg, unit)
        if pairs == dep.get(unit):
            continue
        dep[unit] = pairs
        dirty_callers: Set[str] = set()
        for site in sdg.sites_of[unit]:
            caller = sdg.procs[site.caller]
            for i, j in pairs:
                ai = site.actual_in.get(i)
                ao = site.actual_out.get(j)
                if ai is None or ao is None:
                    continue
                key = (site.caller, ai, ao)
                if key in added:
                    continue
                added.add(key)
                caller.local.add_edge(ai, ao, "summary", unit)
                dirty_callers.add(site.caller)
        for caller_name in dirty_callers:
            if caller_name != MAIN_UNIT and caller_name not in queued:
                worklist.append(caller_name)
                queued.add(caller_name)
    sdg.summary_edges = len(added)
    sdg.summary_iterations = iterations
    return dep


def reference_sdg(
    source_or_program: Union[str, Program],
    main_analysis: Optional[ProgramAnalysis] = None,
) -> SDGAnalysis:
    """The SDG as the monolithic builder made it: every unit analysed
    afresh (main excepted when *main_analysis* is given), local graphs
    without summary edges, then :func:`compute_summary_edges`."""
    if main_analysis is not None:
        program = main_analysis.program
    elif isinstance(source_or_program, str):
        program = parse_program(source_or_program)
    else:
        program = source_or_program
    graph, sigs = call_interface(program)
    procs: Dict[str, ProcedureInfo] = {}
    sites_of = {unit: [] for unit in graph.units}
    offset = 0
    for unit in graph.units:
        if unit == MAIN_UNIT and main_analysis is not None:
            # A shell, as the production builder keeps: callers memoize
            # this SDG on main_analysis, which must not close a cycle.
            analysis = main_analysis.rebind(program)
        else:
            analysis = analyze_program(
                program, unit=None if unit == MAIN_UNIT else unit
            )
        cfg = analysis.cfg
        info = ProcedureInfo(
            name=unit,
            analysis=analysis,
            local=_local_graph(analysis),
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
    sdg = SDGAnalysis(
        program=program,
        graph=graph,
        signatures=sigs,
        procs=procs,
        sites_of=sites_of,
    )
    if program.procs:
        sdg.unit_pairs = compute_summary_edges(sdg)
    else:
        sdg.unit_pairs = {MAIN_UNIT: frozenset()}
    return sdg
