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

from typing import FrozenSet

from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis
from repro.service.resilience import budget_tick
from repro.slicing.common import SliceBody, SliceResult
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.structured import (
    _controlled_by_slice_predicate,
    finish_body,
    gated_start,
)


def fig13_finish(
    analysis: ProgramAnalysis, base: FrozenSet[int], force: bool = False
) -> SliceBody:
    """Fig. 13 from its conventional slice *base*: the sweep over every
    jump, the E4 repair and the label re-association."""
    slice_set = set(base)
    with trace_span("fig13-sweep") as span:
        jumps_examined = 0
        jumps_added = 0
        for node in analysis.cfg.jump_nodes():
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
    return finish_body(analysis, slice_set, base, 0, force)


def conservative_slice(
    analysis: ProgramAnalysis,
    criterion: SlicingCriterion,
    force: bool = False,
) -> SliceResult:
    """Slice with the paper's Fig. 13 algorithm: the gate and the
    conventional slice, then :func:`fig13_finish`.

    Like :func:`repro.slicing.structured.structured_slice`, this is only
    guaranteed correct on structured programs; ``force=True`` bypasses
    the check.
    """
    resolved, base = gated_start(analysis, criterion, "Fig. 13", force)
    return SliceResult.of_body(
        "conservative", resolved, analysis,
        fig13_finish(analysis, base, force),
    )
