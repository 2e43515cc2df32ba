"""Agrawal's conservative on-the-fly algorithm — Figure 13.

The extreme simplification for structured programs: skip the lexical
successor tree and the postdominator-tree traversal entirely, and add
**every** jump statement that is directly control dependent on a
predicate in the slice.  The result may contain jumps the Fig. 12
algorithm would omit (paper Fig. 14c includes the ``break`` statements on
lines 5 and 7 that Fig. 14b does not), but it is never *less* than
Fig. 12's slice, never incorrect on structured programs, and cheap enough
to fold into the conventional slicer's closure ("on-the-fly detection",
§4).
"""

from __future__ import annotations

from typing import Set

from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis
from repro.service.resilience import budget_tick
from repro.slicing.common import SliceResult, conventional_base, reassociate_labels
from repro.slicing.criterion import SlicingCriterion, resolve_criterion
from repro.slicing.structured import (
    _controlled_by_slice_predicate,
    check_preconditions,
    repair_slice,
)


def conservative_slice(
    analysis: ProgramAnalysis,
    criterion: SlicingCriterion,
    force: bool = False,
) -> SliceResult:
    """Slice with the paper's Fig. 13 algorithm.

    Like :func:`repro.slicing.structured.structured_slice`, this is only
    guaranteed correct on structured programs; ``force=True`` bypasses
    the check.
    """
    structured = check_preconditions(analysis, "Fig. 13", force)
    resolved = resolve_criterion(analysis, criterion)
    cfg = analysis.cfg
    with trace_span("conventional-base"):
        slice_set: Set[int] = conventional_base(analysis, resolved)

    with trace_span("fig13-sweep") as span:
        jumps_examined = 0
        jumps_added = 0
        for node in cfg.jump_nodes():
            budget_tick("fig13-jump")
            if node.id in slice_set:
                continue
            jumps_examined += 1
            if _controlled_by_slice_predicate(analysis, node.id, slice_set):
                slice_set.add(node.id)
                jumps_added += 1
                # The paper adds no closure here, justified by its property
                # 2 (an added jump's dependences are already in the slice).
                # We union the closure anyway: it is a no-op exactly when
                # property 2 holds, and it keeps the slice well-formed (a
                # jump never appears without its enclosing construct) in the
                # corner cases the property misses — e.g. a jump controlled
                # only by the dummy entry predicate.
                slice_set |= analysis.pdg.backward_closure([node.id])
        span.set(jumps_examined=jumps_examined, jumps_added=jumps_added)

    # Fig. 13 leans on the same property 2 as Fig. 12, so it inherits
    # the same defensive repair (erratum E4 — see jump_repair_pass);
    # force=True means "exactly as published" and skips it.
    _, notes = repair_slice(analysis, slice_set, structured, force)
    nodes = frozenset(slice_set)
    return SliceResult(
        algorithm="conservative",
        resolved=resolved,
        nodes=nodes,
        analysis=analysis,
        traversals=0,
        label_map=reassociate_labels(analysis, nodes),
        notes=notes,
    )
