"""Lyle's conservative jump treatment (paper §5, reference [22]).

The paper characterises Lyle's 1984 algorithm behaviourally: "Suppose a
statement, S, is included in a slice with respect to a variable, var, and
a location, loc ...  Then, except in certain degenerate cases, Lyle's
algorithm will include all jump statements that lie between S and loc in
the control flowgraph of the program, in the slice."

We implement that description literally: a jump J joins the slice when
some already-included statement reaches J in the CFG and J reaches the
criterion node — i.e. J lies on a potential path from slice code to the
criterion.  Each added jump brings the closure of its dependences along
(its controlling predicates must appear for the slice to be executable),
and the process iterates to a fixed point because those additions widen
the "some included statement" side.

The paper's two calibration points, both reproduced by the tests:

* on Fig. 5 it includes the ``continue`` on line 11 — and therefore the
  predicate on line 9 — which none of Agrawal's algorithms include;
* on Fig. 3 it includes *all* goto statements and all predicates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis
from repro.service.resilience import budget_round
from repro.slicing.common import SliceResult, conventional_base, reassociate_labels
from repro.slicing.criterion import SlicingCriterion, resolve_criterion


def lyle_slice(
    analysis: ProgramAnalysis, criterion: SlicingCriterion
) -> SliceResult:
    """Slice with the reconstruction of Lyle's algorithm."""
    resolved = resolve_criterion(analysis, criterion)
    cfg = analysis.cfg
    with trace_span("conventional-base"):
        slice_set: Set[int] = conventional_base(analysis, resolved)
    criterion_node = resolved.node_id

    reach_cache: Dict[int, FrozenSet[int]] = {}

    def reachable(start: int) -> FrozenSet[int]:
        if start not in reach_cache:
            reach_cache[start] = cfg.reachable_from(start)
        return reach_cache[start]

    jumps = [node.id for node in cfg.jump_nodes()]
    boundary = (cfg.entry_id, cfg.exit_id)
    with trace_span("lyle-fixed-point") as span:
        rounds = 0
        jumps_added = 0
        changed = True
        while changed:
            rounds += 1
            budget_round("lyle-fixed-point")
            changed = False
            for jump_id in jumps:
                if jump_id in slice_set:
                    continue
                if criterion_node not in reachable(jump_id):
                    continue
                feeds = any(
                    jump_id in reachable(member)
                    for member in slice_set
                    if member not in boundary
                )
                if feeds:
                    slice_set.add(jump_id)
                    slice_set |= analysis.pdg.backward_closure([jump_id])
                    changed = True
                    jumps_added += 1
        span.set(rounds=rounds, jumps_added=jumps_added)

    nodes = frozenset(slice_set)
    return SliceResult(
        algorithm="lyle",
        resolved=resolved,
        nodes=nodes,
        analysis=analysis,
        traversals=0,
        label_map=reassociate_labels(analysis, nodes),
    )
