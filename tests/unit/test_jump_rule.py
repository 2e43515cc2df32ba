"""The paper's one jump rule (§3) and the walk every jump pass shares.

``jump_verdict`` is the npd/nls test; ``admit_jumps`` walks a jump
schedule once with live additions.  Fig. 7's rounds, its prune, Fig.
12's pass, the erratum-E4 repair pass and the SDG's per-unit round all
call them, so these tests pin what each caller relies on: the closure
function runs only when a jump is admitted, a rejected or member jump
is not examined, and every walk polls the deadline under its caller's
phase name while only Fig. 7 and the SDG count rounds.
"""

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.pdg.builder import analyze_program
from repro.service.resilience import Budget, BudgetExceededError, use_budget
from repro.slicing.common import (
    admit_jumps,
    conventional_base,
    jump_verdict,
    nearest_in_slice,
)
from repro.slicing.conservative import conservative_slice
from repro.slicing.criterion import SlicingCriterion, resolve_criterion
from repro.slicing.structured import structured_slice


class RecordingBudget(Budget):
    """A budget without limits that records every phase it is polled
    under; ``stop_at`` makes one phase's first poll raise."""

    def __init__(self, stop_at=None):
        super().__init__()
        self.phases = []
        self.stop_at = stop_at

    def tick(self, phase):
        self.phases.append(phase)
        if phase == self.stop_at:
            self.deadline = 0.0
        super().tick(phase)


def fig3a_base():
    entry = PAPER_PROGRAMS["fig3a"]
    analysis = analyze_program(entry.source)
    resolved = resolve_criterion(analysis, SlicingCriterion(*entry.criterion))
    return analysis, conventional_base(analysis, resolved)


def test_verdict_is_both_nearest_in_slice_queries():
    analysis, base = fig3a_base()
    exit_id = analysis.cfg.exit_id
    jumps = analysis.jump_preorder(analysis.pdt)
    assert jumps
    for jump in jumps:
        assert jump_verdict(analysis, jump, base) == (
            nearest_in_slice(analysis.pdt, jump, base, exit_id),
            nearest_in_slice(analysis.lst, jump, base, exit_id),
        )


def test_closure_runs_only_on_admission():
    analysis, live = fig3a_base()
    calls = []

    def closure(seeds):
        calls.append(list(seeds))
        return analysis.pdg.backward_closure(seeds)

    verdicts = []
    added, examined = admit_jumps(
        analysis, analysis.jump_preorder(analysis.pdt), live, closure,
        "test-jump", verdicts=verdicts,
    )
    assert added, "fig3a's first traversal admits jumps"
    assert calls == [[jump] for jump in added]
    assert examined == len(verdicts) > len(added)
    for jump, npd, nls, brought in verdicts:
        assert (brought is not None) == (jump in added) == (npd != nls)
    for jump, closure_nodes in added.items():
        assert jump in live and closure_nodes <= live


def test_members_and_rejected_jumps_are_not_examined():
    analysis, live = fig3a_base()
    schedule = analysis.jump_preorder(analysis.pdt)
    seen = []

    def eligible(jump, slice_set):
        assert slice_set is live
        seen.append(jump)
        return False

    added, examined = admit_jumps(
        analysis, schedule, live, analysis.pdg.backward_closure,
        "test-jump", eligible=eligible,
    )
    assert (added, examined) == ({}, 0)
    assert seen == [jump for jump in schedule if jump not in live]


def test_fig12_and_repair_passes_poll_the_deadline():
    """Fig. 12's pass and the E4 repair pass each tick under their own
    phase; neither counts a round, so Figs. 12 and 13 stay zero-round
    (``Budget.exhaust_traversals`` and degradation rely on that)."""
    entry = PAPER_PROGRAMS["fig14a"]
    analysis = analyze_program(entry.source)
    criterion = SlicingCriterion(*entry.criterion)
    budget = RecordingBudget()
    with use_budget(budget):
        structured_slice(analysis, criterion)
    assert "fig12-jump" in budget.phases
    assert "jump-repair" in budget.phases
    assert budget.rounds == 0
    # Fig. 13 admits every jump under an in-slice predicate, so only a
    # jump outside their control is left for its repair pass: the E4
    # witness (EXPERIMENTS.md).
    analysis = analyze_program(
        "read(v3);\n"
        "if (4 != v3) goto L9;\n"
        "if (v3) goto L13;\n"
        "goto L13;\n"
        "L9: v1 = 1;\n"
        "L13: write(v1);"
    )
    budget = RecordingBudget()
    with use_budget(budget):
        result = conservative_slice(analysis, SlicingCriterion(6, "v1"))
    assert 4 in result.nodes
    assert "jump-repair" in budget.phases
    assert budget.rounds == 0


@pytest.mark.parametrize("phase", ["fig12-jump", "jump-repair"])
def test_a_passed_deadline_stops_each_pass(phase):
    entry = PAPER_PROGRAMS["fig14a"]
    analysis = analyze_program(entry.source)
    with use_budget(RecordingBudget(stop_at=phase)):
        with pytest.raises(BudgetExceededError) as info:
            structured_slice(analysis, SlicingCriterion(*entry.criterion))
    assert info.value.phase == phase
    assert info.value.reason == "deadline"
