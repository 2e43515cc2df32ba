"""The two-pass backward interprocedural slicer, with Agrawal's jump
correction applied per procedure (DESIGN.md §12).

Horwitz–Reps–Binkley two-pass closure over the SDG:

* **pass 1** starts from the criterion and may *ascend* into callers
  (formal-in → actual-in, callee ENTRY → call node) but never descends
  through a call's result (actual-out ⇸ formal-out) — summary edges
  carry the call's effect instead;
* **pass 2** starts from everything pass 1 marked and may *descend*
  (actual-out → formal-out) but never ascend — ascending from a
  procedure pass 2 entered would conjure calling contexts the slice
  never came from.

Within each unit both passes are plain backward closures over the
unit-local graph (PDG + call-control + summary edges), served by the
condensed-graph closure index — only the crossings walk the worklist.

Agrawal's Fig. 7 correction then runs *per procedure*: each unit has its
own postdominator and lexical successor trees (rooted at the unit's
EXIT, so a ``return`` is a jump to the formal-out prelude of its own
procedure, and "EXIT counts as in the slice" means *this unit's* exit).
A jump admitted in a unit reached by pass 1 re-seeds pass 1 (its
dependence closure may ascend); a jump in a unit only pass 2 reached
re-seeds pass 2.  The outer loop — passes, then one jump traversal per
affected unit — repeats until a whole round admits no jump, mirroring
the intraprocedural fixed point; on a single-unit program it reduces to
exactly :func:`repro.slicing.agrawal.agrawal_slice`.

One wrinkle the classic two-pass does not have: a jump's dependence
closure can pull a formal-in into a unit's slice *without* a
corresponding summary edge (summary edges encode conventional
dependence only; the jump rule is exactly the dependence the
conventional PDG misses).  The *binding completion* step patches this:
whenever formal-in *i* of a unit is in the slice, the matching
actual-in joins at every call site whose CALL node is already in the
slice — completing parameter bindings at included call sites only, so
no new calling context is invented.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set

from repro.lang.ast_nodes import MAIN_UNIT
from repro.lang.errors import SliceError, UnreachableCriterionError
from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis
from repro.sdg.builder import SDGAnalysis, sdg_for_analysis
from repro.sdg.closure import SDGClosureIndex, _popcount, ensure_sdg_index
from repro.service.resilience import budget_round, budget_tick
from repro.slicing.agrawal import MAX_TRAVERSALS
from repro.slicing.common import (
    SliceResult,
    admit_jumps,
    reassociate_labels,
)
from repro.slicing.criterion import (
    ResolvedCriterion,
    SlicingCriterion,
    resolve_criterion,
)

ALGORITHM = "interprocedural"


@dataclass(frozen=True)
class SDGResolvedCriterion:
    """A criterion located in one unit of a multi-procedure program."""

    criterion: SlicingCriterion
    unit: str
    node_id: int
    seeds: FrozenSet[int]


def resolve_sdg_criterion(
    sdg: SDGAnalysis, criterion: SlicingCriterion
) -> SDGResolvedCriterion:
    """Locate the criterion across units.

    The unit is the one named by ``criterion.proc`` when given
    (``"main"`` names the top-level unit); otherwise the single unit
    with a statement at the criterion line.  Error messages name the
    procedures involved — ambiguity lists every candidate, a criterion
    in a never-called procedure says which procedure is dead.
    """
    if criterion.proc is not None:
        unit = criterion.proc
        if unit not in sdg.procs:
            known = ", ".join(repr(name) for name in sdg.procs)
            raise SliceError(
                f"criterion names unknown procedure {unit!r}; "
                f"program units are {known}"
            )
        candidates = [unit] if _has_line(sdg, unit, criterion.line) else []
        if not candidates:
            lines = sdg.procs[unit].analysis.statement_lines()
            raise SliceError(
                f"no statement at line {criterion.line} in proc "
                f"{unit!r}; its statement lines are {lines}"
            )
    else:
        candidates = [
            unit
            for unit in sdg.procs
            if _has_line(sdg, unit, criterion.line)
        ]
        if not candidates:
            per_unit = {
                unit: info.analysis.statement_lines()
                for unit, info in sdg.procs.items()
            }
            raise SliceError(
                f"no statement at line {criterion.line}; "
                f"statement lines per unit are {per_unit}"
            )
        if len(candidates) > 1:
            named = ", ".join(repr(unit) for unit in candidates)
            raise SliceError(
                f"criterion line {criterion.line} is ambiguous: "
                f"statements of procedures {named} share it; qualify "
                "the criterion with a procedure (slang slice --proc)"
            )
    unit = candidates[0]
    if unit != MAIN_UNIT and unit not in sdg.graph.reachable:
        raise UnreachableCriterionError(
            f"criterion {criterion} lies in procedure {unit!r}, which "
            "is never called: no call path from main reaches it, so "
            "every slice with respect to it is empty; add a call or "
            "pick a criterion in a live procedure"
        )
    try:
        resolved = resolve_criterion(sdg.procs[unit].analysis, criterion)
    except UnreachableCriterionError as error:
        if unit == MAIN_UNIT:
            raise
        raise UnreachableCriterionError(
            f"{error} (the statement is in proc {unit!r})"
        ) from None
    return SDGResolvedCriterion(
        criterion=criterion,
        unit=unit,
        node_id=resolved.node_id,
        seeds=resolved.seeds,
    )


def _has_line(sdg: SDGAnalysis, unit: str, line: int) -> bool:
    return bool(sdg.procs[unit].analysis.nodes_at_line(line))


@dataclass
class SDGSliceResult:
    """An interprocedural slice: one node set per unit (local ids)."""

    sdg: SDGAnalysis
    resolved: SDGResolvedCriterion
    per_proc: Dict[str, FrozenSet[int]]
    label_maps: Dict[str, Dict[str, int]]
    traversals: int = 0
    pass1_visits: int = 0
    pass2_visits: int = 0
    pass1_procs: FrozenSet[str] = frozenset()
    notes: List[str] = field(default_factory=list)
    algorithm: str = ALGORITHM
    #: Whether the whole-SDG closure index served this slice's
    #: fixpoints, and what its lifecycle did during the call, as nonzero
    #: ``sdg-index:*`` event counts.  Protocol payloads never include
    #: these (index on/off is byte-invisible); the service records them.
    index_used: bool = False
    index_events: Dict[str, int] = field(default_factory=dict)

    @property
    def criterion(self) -> SlicingCriterion:
        return self.resolved.criterion

    def units(self) -> List[str]:
        """Units with at least one slice member, SDG order."""
        return [
            unit for unit in self.sdg.procs if self.per_proc.get(unit)
        ]

    def statement_nodes(self, unit: str) -> List[int]:
        from repro.cfg.graph import NodeKind

        cfg = self.sdg.procs[unit].analysis.cfg
        return [
            node_id
            for node_id in sorted(self.per_proc.get(unit, ()))
            if cfg.nodes[node_id].kind
            not in (NodeKind.ENTRY, NodeKind.EXIT)
        ]

    def global_nodes(self) -> FrozenSet[int]:
        out: Set[int] = set()
        for unit, nodes in self.per_proc.items():
            offset = self.sdg.procs[unit].offset
            out.update(offset + node_id for node_id in nodes)
        return frozenset(out)

    def lines(self) -> List[int]:
        lines: Set[int] = set()
        for unit in self.units():
            cfg = self.sdg.procs[unit].analysis.cfg
            lines.update(
                cfg.nodes[n].line for n in self.statement_nodes(unit)
            )
        return sorted(lines)

    def as_slice_result(self) -> SliceResult:
        """Project onto the main unit as a registry-shaped
        :class:`SliceResult`.

        On a degenerate (single-unit) program this *is* the whole
        answer and is node-for-node comparable with the
        intraprocedural algorithms; on a multi-procedure program the
        projection covers the main unit only and the full result rides
        along as ``.sdg_result`` with a note naming the other units.
        """
        main = self.sdg.procs[MAIN_UNIT]
        nodes = frozenset(self.per_proc.get(MAIN_UNIT, frozenset()))
        if self.resolved.unit == MAIN_UNIT:
            resolved = ResolvedCriterion(
                criterion=self.criterion,
                node_id=self.resolved.node_id,
                seeds=self.resolved.seeds,
            )
        else:
            # The criterion statement lives in another unit; there is
            # no main-local criterion node to point at.
            resolved = ResolvedCriterion(
                criterion=self.criterion, node_id=-1, seeds=frozenset()
            )
        notes = list(self.notes)
        others = [u for u in self.units() if u != MAIN_UNIT]
        if others:
            notes.append(
                "interprocedural slice spans procedures: "
                + ", ".join(others)
            )
        result = SliceResult(
            algorithm=ALGORITHM,
            resolved=resolved,
            nodes=nodes,
            analysis=main.analysis,
            traversals=self.traversals,
            label_map=dict(self.label_maps.get(MAIN_UNIT, {})),
            notes=notes,
        )
        result.sdg_result = self
        return result

    def describe(self) -> str:
        lines = [
            f"interprocedural slice w.r.t. {self.criterion} "
            f"({sum(len(self.statement_nodes(u)) for u in self.units())} "
            f"statements across {len(self.units())} unit(s), "
            f"{self.traversals} traversals)"
        ]
        for unit in self.units():
            cfg = self.sdg.procs[unit].analysis.cfg
            lines.append(f"  [{unit}]")
            for node_id in self.statement_nodes(unit):
                node = cfg.nodes[node_id]
                lines.append(
                    f"  {node_id:>3}  line {node.line:<3} {node.text}"
                )
            for label, node_id in sorted(
                self.label_maps.get(unit, {}).items()
            ):
                lines.append(f"    label {label} -> node {node_id}")
        return "\n".join(lines)


class _TwoPassState:
    """Working state of one slice computation.

    ``s1`` holds the pass-1-marked vertices per unit (the ones whose
    dependence may still ascend into callers); ``s2`` holds everything
    marked (pass 2's superset).  Both only grow, and every rule below is
    monotone, so iterating the rules to a joint fixed point is sound
    regardless of order — which is what lets the Fig. 7 jump rule (which
    adds vertices *outside* any closure call) compose with the two-pass
    crossings without delta bookkeeping.
    """

    def __init__(
        self, sdg: SDGAnalysis, index: Optional[SDGClosureIndex] = None
    ) -> None:
        self.sdg = sdg
        self.index = index
        self.s1: Dict[str, Set[int]] = {unit: set() for unit in sdg.procs}
        self.s2: Dict[str, Set[int]] = {unit: set() for unit in sdg.procs}
        self.pass1_visits = 0
        self.pass2_visits = 0
        self.mask_hits = 0

    @property
    def pass1_reached(self) -> Set[str]:
        return {unit for unit, nodes in self.s1.items() if nodes}

    def fixpoint(self) -> None:
        """Run the two-pass rules to a joint fixed point:

        * pass-1 expansion: ``s1[u]`` closed under *u*'s local graph;
        * ascent (pass 1 only): formal-in *i* ∈ ``s1[u]`` puts actual-in
          *i* of every call site of *u* into the caller's ``s1``; *u*'s
          ENTRY ∈ ``s1[u]`` puts every CALL node invoking *u* there too;
        * ``s2 ⊇ s1``;
        * pass-2 expansion: ``s2[u]`` closed under *u*'s local graph;
        * descent (pass 2): actual-out *j* ∈ ``s2[u]`` puts the callee's
          formal-out *j* into the callee's ``s2``;
        * binding completion: formal-in *i* ∈ ``s2[q]`` puts actual-in
          *i* into ``s2[p]`` for call sites whose CALL node ∈ ``s2[p]``.

        With the whole-SDG closure index available, the joint fixed
        point is computed as mask closures (``_fixpoint_masked``); the
        rule set is identical and monotone, so the fixed point is too —
        the differential suite holds the two paths node-for-node equal.
        The worklist below remains the reference, reached only when a
        test or benchmark switches the index off.
        """
        if self.index is not None:
            self._fixpoint_masked()
        else:
            self._fixpoint_worklist()

    def _fixpoint_masked(self) -> None:
        index = self.index
        budget_round("sdg-two-pass")
        budget_tick("sdg-pass1")
        s1_mask = index.encode(self.s1)
        s2_mask = index.encode(self.s2)
        before1 = _popcount(s1_mask)
        before2 = _popcount(s2_mask | s1_mask)
        s1_closed, s2_closed, hits = index.two_pass_masks(s1_mask, s2_mask)
        budget_tick("sdg-pass2")
        self.mask_hits += hits
        # Honest work accounting: vertices newly marked by this call
        # (the worklist path counts per-closure growth instead, so the
        # two paths' visit counters legitimately differ — they measure
        # work done, and the index does less of it).
        self.pass1_visits += _popcount(s1_closed) - before1
        self.pass2_visits += _popcount(s2_closed) - before2
        decoded1 = index.decode(s1_closed)
        decoded2 = index.decode(s2_closed)
        for unit in self.s1:
            self.s1[unit] = decoded1[unit]
            self.s2[unit] = decoded2[unit]

    def _fixpoint_worklist(self) -> None:
        sdg = self.sdg
        while True:
            # One joint pass-1/pass-2 sweep is one fixed-point round:
            # the traversal cap bounds how long a pathological call
            # graph may churn, with a structured sdg-* phase name.
            budget_round("sdg-two-pass")
            changed = False
            # Pass-1 expansion + ascent.
            for unit, info in sdg.procs.items():
                nodes = self.s1[unit]
                if not nodes:
                    continue
                budget_tick("sdg-pass1")
                closure = info.local.backward_closure(nodes)
                if len(closure) > len(nodes):
                    self.pass1_visits += len(closure) - len(nodes)
                    nodes |= closure
                    changed = True
                entry_id = info.analysis.cfg.entry_id
                for site in sdg.sites_of[unit]:
                    caller = self.s1[site.caller]
                    if entry_id in nodes and site.call_id not in caller:
                        caller.add(site.call_id)
                        changed = True
                    for index, f_in in info.formal_in.items():
                        if f_in not in nodes:
                            continue
                        ai = site.actual_in.get(index)
                        if ai is not None and ai not in caller:
                            caller.add(ai)
                            changed = True
            # s2 ⊇ s1, pass-2 expansion, descent.
            for unit, info in sdg.procs.items():
                nodes = self.s2[unit]
                nodes |= self.s1[unit]
                if not nodes:
                    continue
                budget_tick("sdg-pass2")
                closure = info.local.backward_closure(nodes)
                if len(closure) > len(nodes):
                    self.pass2_visits += len(closure) - len(nodes)
                    nodes |= closure
                    changed = True
                for site in info.sites:
                    callee = sdg.procs[site.callee]
                    for index, ao in site.actual_out.items():
                        if ao not in nodes:
                            continue
                        f_out = callee.formal_out.get(index)
                        if (
                            f_out is not None
                            and f_out not in self.s2[site.callee]
                        ):
                            self.s2[site.callee].add(f_out)
                            changed = True
            # Binding completion (see module docstring).
            for unit, info in sdg.procs.items():
                nodes = self.s2[unit]
                if not nodes:
                    continue
                for index, f_in in info.formal_in.items():
                    if f_in not in nodes:
                        continue
                    for site in sdg.sites_of[unit]:
                        caller = self.s2[site.caller]
                        if site.call_id not in caller:
                            continue
                        ai = site.actual_in.get(index)
                        if ai is not None and ai not in caller:
                            caller.add(ai)
                            changed = True
            if not changed:
                return

    # -- Agrawal's jump correction, per unit ---------------------------

    def jump_round(self) -> bool:
        """One Fig. 7 traversal per unit with slice members.

        The same walk as a round of
        :func:`repro.slicing.agrawal.agrawal_slice`
        (:func:`repro.slicing.common.admit_jumps`): pre-order over the
        unit's postdominator tree, live additions (the jump plus its
        unit-local dependence closure join ``s2`` immediately), EXIT
        counting as in the slice.  A jump in a
        pass-1 unit joins ``s1`` (its dependences may ascend); one in a
        pass-2-only unit joins ``s2`` alone.  Returns True when any
        unit admitted a jump; the caller then re-runs the fixed point
        so crossings the jump closures opened are propagated.
        """
        sdg = self.sdg
        pass1 = self.pass1_reached
        added_any = False
        for unit, info in sdg.procs.items():
            current = self.s2[unit]
            if not current:
                continue
            analysis = info.analysis
            # With the index on, walk the analysis's jump schedule (same
            # pre-order, non-jumps skipped either way); the index-off
            # reference keeps the full tree walk (DESIGN.md §11).
            if self.index is not None:
                schedule = analysis.jump_preorder(analysis.pdt)
            else:
                nodes = analysis.cfg.nodes
                schedule = (
                    node_id
                    for node_id in analysis.pdt.preorder()
                    if (node := nodes.get(node_id)) is not None
                    and node.is_jump
                )
            added, _ = admit_jumps(
                analysis, schedule, current, info.local.backward_closure,
                "sdg-fig7-jump",
            )
            if not added:
                continue
            added_any = True
            # The walk reads only s2; a pass-1 unit's admissions also
            # join s1, since their dependences may ascend.
            if unit in pass1:
                s1 = self.s1[unit]
                for jump, closure in added.items():
                    s1.add(jump)
                    s1 |= closure
        return added_any


def sdg_slice(
    sdg: SDGAnalysis, criterion: SlicingCriterion
) -> SDGSliceResult:
    """Slice *sdg* with respect to *criterion* (see module docstring)."""
    resolved = resolve_sdg_criterion(sdg, criterion)
    index, index_events = ensure_sdg_index(sdg)
    with trace_span(
        "sdg-slice", unit=resolved.unit, indexed=index is not None
    ) as span:
        state = _TwoPassState(sdg, index=index)
        state.s1[resolved.unit].update(resolved.seeds)
        traversals = 0
        rounds = 0
        while True:
            rounds += 1
            if rounds > MAX_TRAVERSALS:
                raise AssertionError(
                    "interprocedural Fig. 7 fixed point failed to "
                    "converge; this is a bug"
                )
            budget_round("sdg-slice-round")
            with trace_span("sdg-two-pass", round=rounds):
                state.fixpoint()
            with trace_span("sdg-jump-round", round=rounds):
                added = state.jump_round()
            if not added:
                break
            traversals += 1

        per_proc = {
            unit: frozenset(nodes)
            for unit, nodes in state.s2.items()
            if nodes
        }
        label_maps = {
            unit: reassociate_labels(
                sdg.procs[unit].analysis, per_proc[unit]
            )
            for unit in per_proc
        }
        span.set(
            units=len(per_proc),
            pass1_visits=state.pass1_visits,
            pass2_visits=state.pass2_visits,
            traversals=traversals,
            mask_hits=state.mask_hits,
        )
        if state.mask_hits:
            index_events["sdg-index:mask-hits"] = state.mask_hits
        return SDGSliceResult(
            sdg=sdg,
            resolved=resolved,
            per_proc=per_proc,
            label_maps=label_maps,
            traversals=traversals,
            pass1_visits=state.pass1_visits,
            pass2_visits=state.pass2_visits,
            pass1_procs=frozenset(state.pass1_reached),
            index_used=index is not None,
            index_events=index_events,
        )


def interprocedural_slice(
    analysis: ProgramAnalysis, criterion: SlicingCriterion
) -> SliceResult:
    """Registry adapter: slice via the SDG, projected onto the main
    unit (the full :class:`SDGSliceResult` rides along as
    ``.sdg_result``).  On a single-unit program the projection is the
    whole slice and is node-for-node identical to ``agrawal``.

    Incremental builds additionally consult the slice-result salvage
    tier: a slice recorded under an earlier version of the program is
    replayed when the edit provably cannot have changed it (see
    :mod:`repro.service.incremental`); only fully-computed results are
    recorded, so budget-degraded answers never enter the memo.
    """
    from repro.service.incremental import (
        record_sdg_slice,
        salvage_sdg_slice,
    )

    sdg = sdg_for_analysis(analysis)
    salvaged = salvage_sdg_slice(analysis, sdg, criterion)
    if salvaged is not None:
        return salvaged.as_slice_result()
    result = sdg_slice(sdg, criterion)
    # Record without the index events: a future replay of this result
    # did no index work, and must not re-report it.
    record_sdg_slice(
        analysis, sdg, criterion, replace(result, index_events={})
    )
    return result.as_slice_result()
