"""Agrawal's simplified algorithm for structured programs — Figure 12.

For programs whose every jump is structured (target lexically succeeds
the jump: ``break``/``continue``/``return``, forward gotos along their
own successor chain), §4 proves two properties:

1. no (postdominates, lexically-succeeds) conflicting pair exists, so a
   **single** pre-order traversal of the postdominator tree suffices; and
2. a jump can only matter when a predicate it is *directly* control
   dependent on is already in the slice — and then the closure of the
   jump's dependences is already in the slice too.

The algorithm therefore makes one traversal, considers only jumps
directly control dependent on an in-slice predicate, applies the same
nearest-postdominator vs nearest-lexical-successor test, and never needs
to chase dependence closures.
"""

from __future__ import annotations

from functools import partial
from typing import FrozenSet, List, Set, Tuple

from repro.cfg.graph import NodeKind
from repro.lang.errors import SliceError
from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis
from repro.analysis.lexical import is_structured_program
from repro.slicing.common import (
    SliceBody,
    SliceResult,
    admit_jumps,
    reassociate_labels,
    slice_start,
)
from repro.slicing.criterion import ResolvedCriterion, SlicingCriterion

#: Node kinds that count as predicates for the "directly control
#: dependent on a predicate in Slice" test.  ENTRY is included: the paper
#: treats it as "a dummy predicate node, viz., node 0" (footnote 3) on
#: which all top-level statements are control dependent, and it is in
#: every slice's closure.  Without it, a top-level unguarded ``return``
#: (whose removal resurrects dead code after it) would never be
#: considered, and Figs. 12/13 would under-slice a structured program.
PREDICATE_KINDS = frozenset(
    {NodeKind.PREDICATE, NodeKind.SWITCH, NodeKind.CONDGOTO, NodeKind.ENTRY}
)


def exit_diverting_predicates(analysis: ProgramAnalysis) -> list:
    """Predicates from which control never rejoins the program.

    A predicate whose immediate postdominator is EXIT even though real
    statements lexically follow it (every branch ``return``s, say) breaks
    the paper's §4 property 2: jumps under it can be *needed* by a slice
    while the predicate itself is not in the conventional slice — so
    Figs. 12/13 would under-slice.  **This is a deviation from the paper
    discovered by this reproduction's property-based tests** (see
    EXPERIMENTS.md, finding E1): the counterexample

    .. code-block:: c

        if (p) { if (q) return 1; return 2; }   // both branches return
        write(x);                                // criterion

    is structured by the paper's definition, yet Fig. 12 drops both
    returns (the criterion is not control dependent on ``q``, so ``q`` is
    not in the conventional slice) while Fig. 7 and Ball–Horwitz keep
    them.  The structured slicers therefore refuse programs containing
    such predicates unless forced.
    """
    cfg = analysis.cfg
    out = []
    for node in cfg.statement_nodes():
        if node.kind not in PREDICATE_KINDS:
            continue
        if (
            analysis.pdt.parent_of(node.id) == cfg.exit_id
            and analysis.lst.parent_of(node.id) != cfg.exit_id
        ):
            out.append(node.id)
    return out


def _controlled_by_slice_predicate(
    analysis: ProgramAnalysis, node_id: int, slice_set: Set[int]
) -> bool:
    for parent in analysis.cdg.parents_of(node_id):
        if (
            parent in slice_set
            and analysis.cfg.nodes[parent].kind in PREDICATE_KINDS
        ):
            return True
    return False


def jump_repair_pass(analysis: ProgramAnalysis, slice_set: Set[int]) -> Set[int]:
    """Apply the §3 npd/nls test to *every* out-of-slice jump until a
    fixed point; return the set of jumps added.

    **Erratum E4, discovered by the slice well-formedness verifier**
    (``repro.lint.slice_check``; see EXPERIMENTS.md): §4's property 2 —
    a jump can only matter when a predicate it is *directly* control
    dependent on is already in the slice — is false.  On a structured
    program a jump J controlled only by an out-of-slice predicate Q can
    still matter: when every path through Q's region bypasses an
    in-slice statement S, deleting the region (Q, J and all) makes the
    fall-through edge of S's own guard land *on* S, changing S's guard.
    Minimal witness (criterion ``<v1, line 6>``)::

        read(v3);
        if (4 != v3) goto L9;   // P, in slice (guards L9)
        if (v3) goto L13;       // Q, not in slice
        goto L13;               // J, control dependent only on Q
        L9: v1 = 1;             // in slice
        L13: write(v1);         // criterion

    Fig. 12/13 omit J (and Q), so the sliced program falls through P
    into ``v1 = 1`` on the path where the original skips it.  This pass
    is a no-op exactly when property 2 holds; otherwise it restores the
    Fig. 7 termination invariant (no out-of-slice jump with
    npd-in-slice ≠ nls-in-slice) and with it slice correctness.

    Jumps are examined in postdominator-tree pre-order — the same
    schedule Fig. 7 uses — not in node-id order.  **Erratum E6
    (seed 15182, see EXPERIMENTS.md):** the npd/nls test is
    order-sensitive while the slice is still growing.  Under node-id
    order a ``switch``-nested ``break`` B1 can be examined before the
    sibling ``break`` B2 that lexically follows it; without B2 in the
    slice B1's nearest postdominator and lexical successor transiently
    differ, so B1 is added — yet once B2 joins, both queries answer B2
    and B1 is redundant (npd == nls at the fixed point).  Fig. 7's
    pre-order visits B2 first and never adds B1, so the node-id
    schedule broke Fig12 ⊆ Fig7 containment.  Matching Fig. 7's
    schedule removes the artefact; the fixed point reached still
    satisfies the invariant above, which is all E4 soundness needs.
    """
    added: Set[int] = set()
    while True:
        round_added, _ = admit_jumps(
            analysis, analysis.jump_preorder(analysis.pdt), slice_set,
            analysis.pdg.backward_closure, "jump-repair",
        )
        if not round_added:
            return added
        added.update(round_added)


def check_preconditions(
    analysis: ProgramAnalysis, figure: str, force: bool
) -> None:
    """Refuse a program outside *figure*'s (Fig. 12's or Fig. 13's)
    guarantees: an unstructured program, dead code, or an
    exit-diverting predicate (erratum E1).  ``force=True`` runs the
    figure regardless."""
    if force:
        return
    if not is_structured_program(analysis.cfg, analysis.lst):
        raise SliceError(
            f"{figure} requires a structured program (every jump's "
            "target lexically succeeds it); use agrawal_slice for "
            "unstructured programs or pass force=True to run regardless"
        )
    dead = analysis.cfg.unreachable_statements()
    if dead:
        raise SliceError(
            f"{figure} assumes no unreachable code (its property 2 fails "
            f"on dead code; first dead statement at line {dead[0].line}); "
            "use agrawal_slice or pass force=True"
        )
    diverting = exit_diverting_predicates(analysis)
    if diverting:
        line = analysis.cfg.nodes[diverting[0]].line
        raise SliceError(
            f"{figure}'s property 2 fails when a predicate's every branch "
            f"leaves the program (line {line}): jumps under it may be "
            "needed while it is outside the conventional slice (erratum "
            "E1, see EXPERIMENTS.md); use agrawal_slice or pass "
            "force=True"
        )


def gated_start(
    analysis: ProgramAnalysis,
    criterion: SlicingCriterion,
    figure: str,
    force: bool = False,
) -> Tuple[ResolvedCriterion, FrozenSet[int]]:
    """The prepare step of Figs. 12 and 13: the precondition gate, then
    :func:`~repro.slicing.common.slice_start`."""
    check_preconditions(analysis, figure, force)
    return slice_start(analysis, criterion)


def finish_body(
    analysis: ProgramAnalysis, slice_set: Set[int], base: FrozenSet[int],
    traversals: int, force: bool,
) -> SliceBody:
    """Finish a Fig. 12/13 slice: run the erratum-E4 repair pass unless
    *force* asks for the figure exactly as published, then re-associate
    labels.  A repair counts as one more traversal when *traversals* is
    counted at all (Fig. 12's single pass; Fig. 13 counts none)."""
    if force:
        repaired: Set[int] = set()
    else:
        with trace_span("jump-repair") as span:
            repaired = jump_repair_pass(analysis, slice_set)
            span.set(jumps_added=len(repaired))
    notes: List[str] = []
    if force and not is_structured_program(analysis.cfg, analysis.lst):
        notes.append("ran on an unstructured program (force)")
    if repaired:
        notes.append(
            "erratum E4 repair added jump node(s) "
            f"{sorted(repaired)} missed by the property-2 predicate test"
        )
        if traversals:
            traversals += 1
    nodes = base if len(slice_set) == len(base) else frozenset(slice_set)
    return SliceBody(
        nodes, traversals, reassociate_labels(analysis, nodes), tuple(notes)
    )


def fig12_finish(
    analysis: ProgramAnalysis, base: FrozenSet[int], force: bool = False
) -> SliceBody:
    """Fig. 12 from its conventional slice *base*: one filtered pass,
    the E4 repair and the label re-association."""
    slice_set = set(base)
    # The closure is defensive — a no-op when the paper's property 2
    # holds (see the matching comment in conservative.py).
    with trace_span("fig12-traversal") as span:
        added, examined = admit_jumps(
            analysis, analysis.jump_preorder(analysis.pdt), slice_set,
            analysis.pdg.backward_closure, "fig12-jump",
            eligible=partial(_controlled_by_slice_predicate, analysis),
        )
        span.set(jumps_examined=examined, jumps_added=len(added))
    return finish_body(analysis, slice_set, base, 1, force)


def structured_slice(
    analysis: ProgramAnalysis,
    criterion: SlicingCriterion,
    force: bool = False,
) -> SliceResult:
    """Slice with the paper's Fig. 12 algorithm: :func:`gated_start`,
    then :func:`fig12_finish`.

    Raises :class:`SliceError` when the program is not structured, since
    the algorithm's guarantees do not apply; pass ``force=True`` to run
    the algorithm exactly as published — skipping both the
    preconditions and the erratum-E4 defensive repair — so the result
    may be an under-approximation (useful for the tests that
    demonstrate *why* the precondition and the repair exist).
    """
    resolved, base = gated_start(analysis, criterion, "Fig. 12", force)
    return SliceResult.of_body(
        "structured", resolved, analysis, fig12_finish(analysis, base, force)
    )
