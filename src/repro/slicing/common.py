"""Shared machinery for the slicing algorithms.

* :class:`SliceResult` — the node set a slicer produced, plus the
  bookkeeping every consumer needs (criterion, traversal count, label
  re-associations, a handle back to the analyses).
* :func:`nearest_in_slice` — the "nearest postdominator / lexical
  successor *in the slice*" query, with EXIT always treated as a member
  so the query is total (DESIGN.md §4).
* :func:`jump_verdict` and :func:`admit_jumps` — the paper's one jump
  rule (§3) and the live-addition walk every jump pass runs it in
  (DESIGN.md §11, "One jump rule").
* :func:`reassociate_labels` — the final step of Figs. 7/12/13: "for each
  goto statement, Goto L, in Slice, if the statement labeled L is not in
  Slice then associate the label L with its nearest postdominator in
  Slice."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet, Callable, Dict, FrozenSet, Iterable, List, Optional, Set,
    Tuple,
)

from repro.analysis.tree import Tree
from repro.cfg.graph import NodeKind
from repro.pdg.builder import ProgramAnalysis
from repro.service.resilience import budget_tick, current_budget
from repro.slicing.criterion import ResolvedCriterion


def nearest_in_slice(
    tree: Tree, node_id: int, slice_nodes: AbstractSet[int], exit_id: int
) -> int:
    """The nearest proper ancestor of *node_id* (in *tree*) that is in the
    slice, with EXIT counting as always in the slice.

    Both trees the slicers walk (postdominator and lexical successor) are
    rooted at EXIT, so the walk always terminates with an answer.
    """
    # Iterate the memoized chain tuple directly: this is the hottest
    # loop of the Fig. 7 family and of label re-association.
    for ancestor in tree.ancestor_chain(node_id):
        if ancestor in slice_nodes or ancestor == exit_id:
            return ancestor
    raise AssertionError(
        f"node {node_id} has no ancestor reaching EXIT ({exit_id}); "
        "malformed tree"
    )


def jump_verdict(
    analysis: ProgramAnalysis, jump: int, slice_nodes: AbstractSet[int]
) -> Tuple[int, int]:
    """The §3 test for *jump* against *slice_nodes*: ``(npd, nls)``, its
    nearest postdominator and its nearest lexical successor in the
    slice.  The jump matters to the slice exactly when they differ."""
    exit_id = analysis.cfg.exit_id
    return (
        nearest_in_slice(analysis.pdt, jump, slice_nodes, exit_id),
        nearest_in_slice(analysis.lst, jump, slice_nodes, exit_id),
    )


#: One examined jump of an :func:`admit_jumps` walk, for narration:
#: ``(jump, npd, nls, brought)``; ``brought`` is None for a skipped jump
#: and, for an admitted one, the nodes its closure added to the slice.
Verdict = Tuple[int, int, int, Optional[FrozenSet[int]]]


def admit_jumps(
    analysis: ProgramAnalysis,
    schedule: Iterable[int],
    live: Set[int],
    closure: Callable[[Iterable[int]], FrozenSet[int]],
    phase: str,
    eligible: Optional[Callable[[int, Set[int]], bool]] = None,
    verdicts: Optional[List[Verdict]] = None,
) -> Tuple[Dict[int, FrozenSet[int]], int]:
    """Walk *schedule* once, admitting every jump the §3 test asks for.

    Members of the *live* slice are skipped, as are jumps *eligible*
    rejects (Fig. 12's "directly control dependent on a predicate in
    the slice").  Each other jump ticks the deadline under *phase* and
    is tested against the live set; when npd ≠ nls the jump and its
    dependence *closure* join *live* at once, so later jumps in the
    same walk see them (the paper's Fig. 3 walkthrough depends on it).

    Returns ``(added, examined)``: each admitted jump mapped to its
    closure, in admission order, and how many jumps were tested.
    Rounds are the caller's: only Fig. 7 and the SDG count them.
    """
    budget = current_budget()
    added: Dict[int, FrozenSet[int]] = {}
    examined = 0
    for jump in schedule:
        if jump in live:
            continue
        if eligible is not None and not eligible(jump, live):
            continue
        if budget is not None:
            budget.tick(phase)
        examined += 1
        npd, nls = jump_verdict(analysis, jump, live)
        if npd == nls:
            if verdicts is not None:
                verdicts.append((jump, npd, nls, None))
            continue
        brought = closure([jump])
        if verdicts is not None:
            verdicts.append((jump, npd, nls, brought - live))
        live.add(jump)
        live |= brought
        added[jump] = brought
    return added, examined


def reassociate_labels(
    analysis: ProgramAnalysis, slice_nodes: AbstractSet[int]
) -> Dict[str, int]:
    """Re-associate dangling goto labels with their nearest postdominator
    in the slice.

    Returns a map ``label -> node id``; extraction renders each entry as
    a labelled empty statement (``L: ;``) immediately before that node's
    statement, matching how the paper prints its slices (the bare ``L14``
    of Fig. 3c, the bare ``L6``/``L8`` of Fig. 10b).
    """
    cfg = analysis.cfg
    mapping: Dict[str, int] = {}
    # Only goto/condgoto members can dangle a label; the precomputed
    # site list (node-id order, matching the old sorted-slice scan)
    # keeps this O(gotos in slice) instead of O(slice).
    for node_id, label, target in analysis.goto_sites():
        if node_id not in slice_nodes:
            continue
        if target in slice_nodes or target == cfg.exit_id:
            continue
        mapping[label] = nearest_in_slice(
            analysis.pdt, target, slice_nodes, cfg.exit_id
        )
    return mapping


@dataclass
class SliceResult:
    """The output of one slicing algorithm run.

    Attributes
    ----------
    algorithm:
        Registry name of the algorithm that produced the slice.
    resolved:
        The resolved criterion (node and seeds).
    nodes:
        The slice as a set of CFG node ids (may include ENTRY, never
        EXIT).
    analysis:
        The shared :class:`ProgramAnalysis` the slice was computed from.
    traversals:
        Number of postdominator-tree (or LST) traversals the algorithm
        performed (0 for algorithms that do not traverse).
    label_map:
        Re-associated labels (label → node id).
    notes:
        Free-form diagnostics (e.g. the structured slicer recording that
        it was run on an unstructured program with ``force=True``).
    """

    algorithm: str
    resolved: ResolvedCriterion
    nodes: FrozenSet[int]
    analysis: ProgramAnalysis
    traversals: int = 0
    label_map: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def criterion(self):
        return self.resolved.criterion

    def statement_nodes(self) -> List[int]:
        """Slice members that are real statements (ENTRY/EXIT stripped)."""
        cfg = self.analysis.cfg
        return [
            node_id
            for node_id in sorted(self.nodes)
            if cfg.nodes[node_id].kind
            not in (NodeKind.ENTRY, NodeKind.EXIT)
        ]

    def lines(self) -> List[int]:
        """Source lines of the slice's statements, sorted."""
        cfg = self.analysis.cfg
        return sorted({cfg.nodes[n].line for n in self.statement_nodes()})

    def jump_nodes(self) -> List[int]:
        cfg = self.analysis.cfg
        return [n for n in self.statement_nodes() if cfg.nodes[n].is_jump]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def same_statements_as(self, other: "SliceResult") -> bool:
        """Statement-set equality (ignores ENTRY membership, traversal
        counts, and label maps)."""
        return set(self.statement_nodes()) == set(other.statement_nodes())

    def describe(self) -> str:
        cfg = self.analysis.cfg
        lines = [
            f"slice by {self.algorithm} w.r.t. {self.criterion} "
            f"({len(self.statement_nodes())} statements, "
            f"{self.traversals} traversals)"
        ]
        for node_id in self.statement_nodes():
            node = cfg.nodes[node_id]
            lines.append(f"  {node_id:>3}  line {node.line:<3} {node.text}")
        for label, node_id in sorted(self.label_map.items()):
            lines.append(f"  label {label} -> node {node_id}")
        return "\n".join(lines)


def conventional_base(
    analysis: ProgramAnalysis, resolved: ResolvedCriterion
) -> Set[int]:
    """The conventional slice (paper §2) as a mutable node set: the
    backward closure of the criterion seeds over the standard PDG.

    Thanks to CONDGOTO fusion, the "adaptation" for conditional jump
    statements (§3: an included predicate brings its jump along) needs no
    extra work — the predicate and its goto are one node.
    """
    budget_tick("conventional-base")
    return set(analysis.pdg.backward_closure(resolved.seeds))
