"""The per-analysis jump schedule: ``ProgramAnalysis.jump_preorder``.

Fig. 7 examines only unconditional jumps, in pre-order over the drive
tree.  The schedule is that pre-order restricted to jump nodes, built
once per tree, so every traversal round visits the same jumps in the
same order as a full walk would, without walking the tree again.
"""

import json
import random
from pathlib import Path

import pytest

from repro.analysis.tree import Tree
from repro.corpus import PAPER_PROGRAMS
from repro.corpus.extras import EXTRA_PROGRAMS
from repro.gen.generator import (
    generate_structured,
    generate_unstructured,
    realize,
)
from repro.pdg.builder import analyze_program
from repro.service.engine import enumerate_criteria
from repro.slicing.agrawal import agrawal_slice
from repro.slicing.criterion import SlicingCriterion

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "explain"

GENERATED_SEEDS = range(120)


def full_walk_restriction(analysis, tree):
    cfg = analysis.cfg
    return tuple(
        node_id
        for node_id in tree.preorder()
        if node_id in cfg.nodes and cfg.nodes[node_id].is_jump
    )


def assert_schedules_match(analysis):
    for tree in (analysis.pdt, analysis.lst):
        schedule = analysis.jump_preorder(tree)
        assert isinstance(schedule, tuple)
        assert schedule == full_walk_restriction(analysis, tree)
        # Memoized: the second call returns the very same tuple.
        assert analysis.jump_preorder(tree) is schedule


@pytest.mark.parametrize(
    "entry",
    list(PAPER_PROGRAMS.values()) + list(EXTRA_PROGRAMS.values()),
    ids=lambda entry: entry.name,
)
def test_corpus_schedule_is_the_preorder_restriction(entry):
    assert_schedules_match(analyze_program(entry.source))


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_schedule_is_the_preorder_restriction(seed):
    for generate in (generate_structured, generate_unstructured):
        program = realize(generate(random.Random(seed)))
        assert_schedules_match(analyze_program(program))


def test_unstructured_corpus_schedules_are_not_empty():
    # Guards against a vacuous pass: the paper's goto programs have
    # jumps, so both schedules must list some.
    analysis = analyze_program(PAPER_PROGRAMS["fig3a"].source)
    assert analysis.jump_preorder(analysis.pdt)
    assert analysis.jump_preorder(analysis.lst)


def test_schedule_rejects_a_foreign_tree():
    analysis = analyze_program(PAPER_PROGRAMS["fig3a"].source)
    other = analyze_program(PAPER_PROGRAMS["fig8a"].source)
    with pytest.raises(ValueError):
        analysis.jump_preorder(other.pdt)


def test_rebind_shares_the_memo():
    analysis = analyze_program(PAPER_PROGRAMS["fig8a"].source)
    pdt_schedule = analysis.jump_preorder(analysis.pdt)
    lst_schedule = analysis.jump_preorder(analysis.lst)
    shell = analysis.rebind(analysis.program)
    assert shell.jump_preorder(shell.pdt) is pdt_schedule
    assert shell.jump_preorder(shell.lst) is lst_schedule


def test_slicing_a_criterion_family_walks_each_tree_at_most_once(
    monkeypatch,
):
    analysis = analyze_program(PAPER_PROGRAMS["fig10a"].source)
    criteria = enumerate_criteria(analysis, "all")
    assert len(criteria) > 1
    walks = {}
    original = Tree.preorder

    def counting_preorder(self):
        walks[id(self)] = walks.get(id(self), 0) + 1
        return original(self)

    monkeypatch.setattr(Tree, "preorder", counting_preorder)
    traversals = 0
    for criterion in criteria:
        for drive_tree in ("postdominator", "lexical"):
            result = agrawal_slice(analysis, criterion, drive_tree=drive_tree)
            traversals += result.traversals + 1
    assert traversals > 2 * len(criteria)  # some criteria needed rounds
    assert walks.get(id(analysis.pdt), 0) <= 1
    assert walks.get(id(analysis.lst), 0) <= 1
    assert set(walks) <= {id(analysis.pdt), id(analysis.lst)}


def test_explain_narration_matches_the_full_walk_golden():
    """Narrations captured from the full-walk Fig. 7 loop: examination
    order, verdicts and traversal numbering are unchanged."""
    golden = json.loads((GOLDEN / "agrawal.json").read_text())
    assert golden
    for key, expected in sorted(golden.items()):
        name, drive_tree, mode = key.split("/")
        entry = PAPER_PROGRAMS[name]
        log = []
        agrawal_slice(
            analyze_program(entry.source),
            SlicingCriterion(*entry.criterion),
            drive_tree=drive_tree,
            prune_redundant=mode == "pruned",
            explain=log,
        )
        assert log == expected, key
