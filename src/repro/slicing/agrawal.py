"""Agrawal's general slicing algorithm — the paper's Figure 7.

Start from the conventional slice.  Repeatedly traverse the postdominator
tree in pre-order; for every unconditional jump statement J not yet in
the slice, compare its *nearest postdominator in the slice* with its
*nearest lexical successor in the slice* (EXIT counts as in the slice for
both).  If they differ, J's presence affects the relative order or
guarding of the sliced statements, so J joins the slice along with the
transitive closure of its (control and data) dependences.  Iterate until
a whole traversal adds no jump.  Finally, re-associate the label of any
in-slice goto whose target fell outside the slice with the target's
nearest postdominator in the slice.

§3 notes that the traversal may equally be driven by pre-order over the
*lexical successor tree*; the final slice is identical though the number
of traversals may differ.  ``drive_tree="lexical"`` selects that variant
(ablation experiment B2 in DESIGN.md).

Additions take effect immediately *within* a traversal — the paper's
Fig. 3 walkthrough depends on it (node 13's inclusion is what keeps node
11 out).  One traversal is :func:`repro.slicing.common.admit_jumps`,
the walk every jump pass shares; this module adds the rounds, the
narration and the redundant-jump prune.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.lang.errors import SliceError
from repro.obs.tracer import trace_span
from repro.pdg.builder import ProgramAnalysis
from repro.service.resilience import budget_round, budget_tick
from repro.slicing.common import (
    SliceResult,
    Verdict,
    admit_jumps,
    conventional_base,
    jump_verdict,
    reassociate_labels,
)
from repro.slicing.criterion import SlicingCriterion, resolve_criterion

#: Safety bound on fixed-point traversals; the loop provably terminates
#: (each round adds at least one of finitely many jumps) so hitting this
#: indicates an implementation bug, not a hard program.
MAX_TRAVERSALS = 10_000


def _prune_redundant_jumps(
    analysis: ProgramAnalysis, slice_set: Set[int], base: frozenset
) -> None:
    """Drop algorithm-added jumps that are redundant at the fixed point,
    together with the dependence-closure members only they brought in.

    Sound by the paper's own criterion: a jump whose nearest
    postdominator in the slice equals its nearest lexical successor in
    the slice "will not adversely affect the flow of control among the
    statements included in the slice" when omitted (§3).  The candidate
    slice is rebuilt as ``base ∪ closures(surviving jumps)`` after each
    removal, so orphaned closure nodes disappear too; the loop iterates
    because one removal can make another jump redundant.
    """
    cfg = analysis.cfg
    jumps: Set[int] = {
        node_id
        for node_id in slice_set - base
        if cfg.nodes.get(node_id) is not None and cfg.nodes[node_id].is_jump
    }
    closures = {
        jump: analysis.pdg.backward_closure([jump]) for jump in jumps
    }

    def rebuild(kept: Set[int]) -> Set[int]:
        result = set(base)
        for jump in kept:
            result.add(jump)
            result |= closures[jump]
        return result

    changed = True
    while changed:
        changed = False
        for jump in sorted(jumps):
            budget_tick("fig7-prune")
            npd, nls = jump_verdict(analysis, jump, rebuild(jumps - {jump}))
            if npd == nls:
                jumps.discard(jump)
                changed = True
                break

    slice_set.clear()
    slice_set.update(rebuild(jumps))


def _narrate(
    analysis: ProgramAnalysis, verdicts: List[Verdict], traversal: int,
    explain: List[str],
) -> None:
    """One explain line per examined jump of a traversal, in the style
    of the paper's §3 walkthroughs."""
    cfg = analysis.cfg
    for jump, npd, nls, brought in verdicts:
        node = cfg.nodes[jump]
        head = (
            f"traversal {traversal}: jump {jump} ({node.text!r}, "
            f"line {node.line}) — "
        )
        if brought is None:
            explain.append(
                f"{head}both nearest postdominator and lexical successor "
                f"in slice are {npd}: skip"
            )
            continue
        members = sorted(
            n for n in brought - {jump} if cfg.nodes[n].stmt is not None
        )
        extra = f"; closure adds {members}" if members else ""
        explain.append(
            f"{head}nearest postdominator in slice {npd} != nearest "
            f"lexical successor in slice {nls}: INCLUDE{extra}"
        )


def agrawal_slice(
    analysis: ProgramAnalysis,
    criterion: SlicingCriterion,
    drive_tree: str = "postdominator",
    prune_redundant: bool = False,
    explain: Optional[List[str]] = None,
) -> SliceResult:
    """Slice with the paper's Fig. 7 algorithm.

    Parameters
    ----------
    drive_tree:
        ``"postdominator"`` (paper default) or ``"lexical"`` — which
        tree's pre-order drives the per-traversal examination order.
    prune_redundant:
        The algorithm examines jumps in pre-order, but the paper leaves
        *sibling* order unspecified — and this reproduction found that
        the choice can matter (erratum E2, EXPERIMENTS.md): a jump
        examined before the slice has grown may pass the npd ≠ nls test
        and be added, even though at the fixed point the test no longer
        holds; the algorithm never removes jumps.  The result is a
        superset of the Ball–Horwitz slice, differing only by such
        redundant no-op jumps, and remains semantically correct.  With
        ``prune_redundant=True`` a post-pass repeatedly removes added
        jumps whose nearest postdominator and lexical successor in the
        remaining slice coincide — sound by the paper's own omission
        criterion — which restores exact Ball–Horwitz equality on every
        program we have tested.
    explain:
        Pass a list to collect a human-readable narration of the run —
        one line per jump examination with its nearest-postdominator /
        nearest-lexical-successor verdict, in the style of the paper's
        §3 walkthroughs.
    """
    if drive_tree == "postdominator":
        order_tree = analysis.pdt
    elif drive_tree == "lexical":
        order_tree = analysis.lst
    else:
        raise SliceError(
            f"unknown drive_tree {drive_tree!r}; expected "
            "'postdominator' or 'lexical'"
        )

    resolved = resolve_criterion(analysis, criterion)
    cfg = analysis.cfg
    # Only jumps are examined, so a traversal walks the tree's jumps in
    # pre-order; the walk's membership test reads the live slice.
    schedule = analysis.jump_preorder(order_tree)
    with trace_span("conventional-base"):
        slice_set: Set[int] = conventional_base(analysis, resolved)
    base = frozenset(slice_set)
    if explain is not None:
        members = sorted(
            n for n in base if cfg.nodes[n].stmt is not None
        )
        explain.append(
            f"conventional slice w.r.t. {criterion}: {members}"
        )

    # ``traversals`` counts *productive* traversals — ones that added at
    # least one jump — matching the paper's usage ("a single traversal
    # ... was sufficient", "node 4 is added ... during the second
    # preorder traversal").  The final, confirming pass is not counted.
    closure = analysis.pdg.backward_closure
    verdicts: Optional[List[Verdict]] = [] if explain is not None else None
    traversals = 0
    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_TRAVERSALS:
            raise AssertionError(
                "Fig. 7 fixed point failed to converge; this is a bug"
            )
        # One cooperative budget round per traversal: the request-scoped
        # deadline / traversal cap (if any) is enforced here, so a hard
        # program raises BudgetExceededError instead of running long.
        budget_round("fig7-traversal")
        with trace_span("fig7-traversal", round=rounds) as round_span:
            added, examined = admit_jumps(
                analysis, schedule, slice_set, closure, "fig7-jump",
                verdicts=verdicts,
            )
            round_span.set(jumps_examined=examined, jumps_added=len(added))
        if verdicts:
            _narrate(analysis, verdicts, traversals + 1, explain)
            verdicts.clear()
        if not added:
            break
        traversals += 1

    if prune_redundant:
        before = frozenset(slice_set)
        with trace_span("fig7-prune") as prune_span:
            _prune_redundant_jumps(analysis, slice_set, base)
            prune_span.set(removed=len(before - slice_set))
        if explain is not None and before != frozenset(slice_set):
            removed = sorted(before - slice_set)
            explain.append(f"prune: removed redundant nodes {removed}")

    nodes = frozenset(slice_set)
    label_map = reassociate_labels(analysis, nodes)
    if explain is not None:
        for label, node_id in sorted(label_map.items()):
            explain.append(
                f"label {label}: target not in slice; re-associated with "
                f"its nearest postdominator in the slice, node {node_id}"
            )
        final = sorted(
            n for n in nodes if cfg.nodes[n].stmt is not None
        )
        explain.append(
            f"final slice after {traversals} productive traversal(s): "
            f"{final}"
        )
    return SliceResult(
        algorithm="agrawal" if not prune_redundant else "agrawal-pruned",
        resolved=resolved,
        nodes=nodes,
        analysis=analysis,
        traversals=traversals,
        label_map=label_map,
    )
