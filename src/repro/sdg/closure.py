"""Context-sensitive SDG closure indexes (DESIGN.md §15).

PR 5's condensed-PDG closure index amortizes the *intra*-unit closures,
but the two-pass interprocedural slicer still re-runs its crossing
worklist — ascent, descent, binding completion — from scratch for every
criterion.  This module lifts the index one level: two whole-SDG
reachability indexes over the flat global vertex space, partitioned by
the edges each HRB pass may traverse:

* the **ascend index** closes over {intra-unit data/control,
  call-control, summary} edges plus the pass-1 crossings (callee ENTRY →
  CALL node, formal-in → actual-in) — everything pass 1 may walk;
* the **descend index** closes over the same intra-unit edges plus the
  pass-2 crossings (actual-out → formal-out) — everything pass 2 may
  walk.

Each side is an iterative-Tarjan SCC condensation (shared helper in
:mod:`repro.pdg.closure`) with a suppliers-first one-pass closure sweep,
storing *node-space* bitmasks over a single global universe of SDG
vertices (unit-local id + unit offset = global bit, the dense layout
:mod:`repro.sdg.builder` already assigns).  A whole-program pass-1
closure then collapses to one mask OR per seed component.

Pass 2 is *not* pure reachability: binding completion — formal-in *i* ∈
S2[q] adds actual-in *i* at a call site only when the site's CALL node
is already in S2 — is a conditional (two-antecedent) rule no static
edge can encode without inventing calling contexts.  The index instead
precomputes the (formal-in, CALL, actual-in) bit triples and iterates
{descend closure; fire ready bindings} to the same least fixed point the
reference worklist computes; the rule set is identical and monotone, so
the fixed point is too (the differential suite enforces node-for-node
identity).

What stays iterative: Agrawal's per-unit Fig. 7 jump rounds.  A jump's
npd-vs-nls verdict depends on the *current* slice membership, which
changes as jumps are admitted — that is inherently sequential (see
DESIGN.md §15 for why precomputing it would change results).  But each
round's live additions are unit-local closures already served by the
per-unit PDG index, and every post-jump re-fixpoint is two mask ORs
here, so the closure portion of the whole computation is O(masks).

Lifecycle mirrors :mod:`repro.pdg.closure`: lazily built behind the same
``--closure-index`` knob (plus an SDG-only override for differential
benchmarks), budget-ticked under the ``closure-index`` phase, traced,
skipped under deadline pressure, and invalidated when the stitched
graphs mutate.  Each SDG builds its own index: an edited program gets a
new SDG and so a new index, while the per-unit PDG indexes inside it
survive the edit with their salvaged units (DESIGN.md §14).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.bitset import iter_bits, popcount as _popcount
from repro.obs.tracer import trace_span
from repro.pdg.closure import (
    closure_index_enabled,
    condense,
    index_build_allowed,
)
from repro.sdg.builder import SDGAnalysis
from repro.service.resilience import current_budget

#: SDG-level override: ``None`` follows the process-wide
#: ``--closure-index`` knob; True/False force just the SDG index (the
#: benchmark's reference configuration is per-unit index on, SDG index
#: off — exactly the pre-index slicer).
_forced: Optional[bool] = None


def sdg_index_enabled() -> bool:
    if _forced is not None:
        return _forced
    return closure_index_enabled()


@contextlib.contextmanager
def sdg_closure_index(enabled: Optional[bool]) -> Iterator[None]:
    """Temporarily force just the SDG index on or off (tests, benches);
    ``None`` restores deference to the process-wide knob."""
    global _forced
    previous = _forced
    _forced = enabled if enabled is None else bool(enabled)
    try:
        yield
    finally:
        _forced = previous


class _ClosureSide:
    """One edge partition's condensation: node → component, component →
    node-space closure mask (own members ∪ every transitive supplier's
    members).  Immutable once built."""

    __slots__ = ("_comp_of", "_comp_mask")

    def __init__(self, comp_of: Dict[int, int], comp_mask: List[int]) -> None:
        self._comp_of = comp_of
        self._comp_mask = comp_mask

    @property
    def component_count(self) -> int:
        return len(self._comp_mask)

    def closure_mask(self, mask: int) -> int:
        """The backward closure of a seed mask, as a mask — one OR per
        seed component (seeds already covered by an earlier component's
        mask are skipped for free)."""
        comp_of = self._comp_of
        comp_mask = self._comp_mask
        out = 0
        while mask:
            low = mask & -mask
            out |= comp_mask[comp_of[low.bit_length() - 1]]
            mask &= ~out
        return out


class SDGClosureIndex:
    """The paired ascend/descend indexes plus the binding triples of one
    stitched SDG.  Immutable once built; ``signature`` snapshots the
    per-unit graph shape so any SDG mutation is detected and the index
    discarded (mirroring ``ProgramDependenceGraph._closure_index``)."""

    __slots__ = (
        "ascend",
        "descend",
        "bindings",
        "unit_ranges",
        "vertex_count",
        "signature",
    )

    def __init__(
        self,
        ascend: _ClosureSide,
        descend: _ClosureSide,
        bindings: List[Tuple[int, int, int]],
        unit_ranges: Dict[str, Tuple[int, int]],
        signature: Tuple,
    ) -> None:
        self.ascend = ascend
        self.descend = descend
        self.bindings = bindings
        self.unit_ranges = unit_ranges
        self.vertex_count = sum(size for _, size in unit_ranges.values())
        self.signature = signature

    def encode(self, per_unit: Dict[str, Iterable[int]]) -> int:
        """Per-unit local node sets → one global mask."""
        mask = 0
        ranges = self.unit_ranges
        for unit, nodes in per_unit.items():
            offset = ranges[unit][0]
            for node_id in nodes:
                mask |= 1 << (offset + node_id)
        return mask

    def decode(self, mask: int) -> Dict[str, Set[int]]:
        """One global mask → per-unit local node sets (every unit keyed,
        empty sets included, so callers can assign wholesale)."""
        out: Dict[str, Set[int]] = {}
        for unit, (offset, size) in self.unit_ranges.items():
            sub = (mask >> offset) & ((1 << size) - 1)
            out[unit] = set(iter_bits(sub))
        return out

    def two_pass_masks(
        self, s1_mask: int, s2_mask: int
    ) -> Tuple[int, int, int]:
        """Close (s1, s2) under the two-pass rules; returns the closed
        masks plus the number of mask-closure lookups performed.

        s1 is pure ascend reachability.  s2 starts from ``s2 | s1`` and
        alternates descend closure with binding completion until no
        binding fires — the same monotone rule set as the reference
        worklist, hence the same least fixed point.
        """
        hits = 1
        s1 = self.ascend.closure_mask(s1_mask)
        s2 = s2_mask | s1
        bindings = self.bindings
        while True:
            s2 = self.descend.closure_mask(s2)
            hits += 1
            added = 0
            for f_in_bit, call_bit, ai_bit in bindings:
                if (
                    s2 & f_in_bit
                    and s2 & call_bit
                    and not s2 & ai_bit
                ):
                    added |= ai_bit
            if not added:
                return s1, s2, hits
            s2 |= added


def _edge_signature(sdg: SDGAnalysis) -> Tuple:
    """A cheap per-unit shape snapshot: any node or edge added to any
    stitched local graph changes it, so a stale index can never serve a
    mutated SDG."""
    return tuple(
        (unit, info.offset, info.size, len(info.local), len(info.local.nodes))
        for unit, info in sdg.procs.items()
    )


def _build_side(
    vertex_count: int, suppliers: Dict[int, List[int]]
) -> _ClosureSide:
    def suppliers_of(node: int) -> Sequence[int]:
        return suppliers.get(node, ())

    comp_of, comp_nodes = condense(range(vertex_count), suppliers_of)
    budget = current_budget()
    comp_mask: List[int] = []
    for comp, members in enumerate(comp_nodes):
        if budget is not None:
            budget.tick("closure-index")
        mask = 0
        for member in members:
            mask |= 1 << member
        for member in members:
            for supplier in suppliers_of(member):
                supplier_comp = comp_of[supplier]
                if supplier_comp != comp:
                    mask |= comp_mask[supplier_comp]
        comp_mask.append(mask)
    return _ClosureSide(comp_of, comp_mask)


def build_sdg_closure_index(sdg: SDGAnalysis) -> SDGClosureIndex:
    """Assemble both edge partitions and condense each.

    The *traversal adjacency* maps a vertex to every vertex the slicer
    would add on seeing it, in global ids — unit-local dependences for
    both sides, plus the pass-specific crossings.  (For the ascend side
    the crossings run callee → caller: from a callee's ENTRY the
    traversal reaches the CALL node, from a formal-in the matching
    actual-ins — the direction pass 1 walks them.)
    """
    unit_ranges: Dict[str, Tuple[int, int]] = {
        unit: (info.offset, info.size) for unit, info in sdg.procs.items()
    }
    total = sum(size for _, size in unit_ranges.values())
    with trace_span("sdg-index-build", vertices=total) as span:
        local_adj: Dict[int, List[int]] = {}
        ascend_adj: Dict[int, List[int]] = {}
        descend_adj: Dict[int, List[int]] = {}
        bindings: List[Tuple[int, int, int]] = []
        for unit, info in sdg.procs.items():
            offset = info.offset
            local = info.local
            for node_id in local.nodes:
                deps = local.dependences_of(node_id)
                if deps:
                    local_adj[offset + node_id] = [
                        offset + dep for dep in deps
                    ]
            # Pass-1 crossings out of this (callee) unit.
            entry_global = offset + info.analysis.cfg.entry_id
            for site in sdg.sites_of[unit]:
                caller_offset = sdg.procs[site.caller].offset
                ascend_adj.setdefault(entry_global, []).append(
                    caller_offset + site.call_id
                )
                for index, f_in in info.formal_in.items():
                    ai = site.actual_in.get(index)
                    if ai is not None:
                        ascend_adj.setdefault(offset + f_in, []).append(
                            caller_offset + ai
                        )
                        bindings.append(
                            (
                                1 << (offset + f_in),
                                1 << (caller_offset + site.call_id),
                                1 << (caller_offset + ai),
                            )
                        )
            # Pass-2 crossings out of this (caller) unit.
            for site in info.sites:
                callee = sdg.procs[site.callee]
                for index, ao in site.actual_out.items():
                    f_out = callee.formal_out.get(index)
                    if f_out is not None:
                        descend_adj.setdefault(offset + ao, []).append(
                            callee.offset + f_out
                        )

        def merged(extra: Dict[int, List[int]]) -> Dict[int, List[int]]:
            out = dict(local_adj)
            for node, targets in extra.items():
                base = out.get(node)
                out[node] = targets if base is None else base + targets
            return out

        ascend = _build_side(total, merged(ascend_adj))
        descend = _build_side(total, merged(descend_adj))
        span.set(
            ascend_components=ascend.component_count,
            descend_components=descend.component_count,
            bindings=len(bindings),
        )
        return SDGClosureIndex(
            ascend=ascend,
            descend=descend,
            bindings=bindings,
            unit_ranges=unit_ranges,
            signature=_edge_signature(sdg),
        )


# ---------------------------------------------------------------------------
# Lifecycle: knob, pressure, invalidation, build lock
# ---------------------------------------------------------------------------


def ensure_sdg_index(
    sdg: SDGAnalysis,
) -> Tuple[Optional[SDGClosureIndex], Dict[str, int]]:
    """Return (index, events) — the memoized index when fresh, else a
    newly built one; ``None`` when disabled or deferred under deadline
    pressure (callers then take the worklist path).

    ``events`` counts what happened this call under the service's
    ``sdg-index:*`` event names (``builds``, ``pressure-skips``), which
    ``slang_events_total`` exports.
    """
    events: Dict[str, int] = {}
    if not sdg_index_enabled():
        return None, events
    signature = _edge_signature(sdg)
    index = sdg._closure_index
    if index is not None and index.signature == signature:
        return index, events
    if not index_build_allowed():
        events["sdg-index:pressure-skips"] = 1
        return None, events
    with sdg._closure_index_lock:
        index = sdg._closure_index
        if index is not None and index.signature == signature:
            return index, events
        index = build_sdg_closure_index(sdg)
        events["sdg-index:builds"] = 1
        sdg._closure_index = index
    return index, events
