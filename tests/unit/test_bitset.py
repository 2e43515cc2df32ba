"""Unit tests for the bitset analysis kernels.

Each kernel's fixed point is checked against the corresponding
set-based reference implementation on the full paper corpus (the
engine-level identity over random programs lives in
``tests/property/test_engine_differential.py``).
"""

import pytest

from repro.analysis.bitset import (
    BitUniverse,
    definite_assignment,
    node_universe,
    reverse_postorder,
    reverse_reachable,
    solve_gen_kill_bitset,
)
from repro.analysis.liveness import compute_liveness
from repro.analysis.reaching_defs import compute_reaching_definitions
from repro.corpus import PAPER_PROGRAMS
from repro.lint.rules import _definite_assignment_sets
from repro.pdg.builder import analyze_program

CORPUS = sorted(PAPER_PROGRAMS)


@pytest.fixture(scope="module")
def corpus_cfgs():
    return {
        name: analyze_program(PAPER_PROGRAMS[name].source).cfg
        for name in CORPUS
    }


class TestBitUniverse:
    def test_bits_follow_construction_order(self):
        universe = BitUniverse(["a", "b", "c"])
        assert universe.bit("a") == 1
        assert universe.bit("b") == 2
        assert universe.bit("c") == 4

    def test_duplicates_keep_first_position(self):
        universe = BitUniverse(["a", "b", "a", "c", "b"])
        assert len(universe) == 3
        assert universe.bit("c") == 4

    def test_unknown_fact_raises(self):
        universe = BitUniverse(["a"])
        with pytest.raises(KeyError):
            universe.bit("zzz")
        assert "zzz" not in universe
        assert "a" in universe

    def test_mask_of_and_full_mask(self):
        universe = BitUniverse("abcd")
        assert universe.mask_of("bd") == 0b1010
        assert universe.full_mask == 0b1111
        assert BitUniverse([]).full_mask == 0

    def test_decode_roundtrip(self):
        facts = ["x", "y", "z", "w"]
        universe = BitUniverse(facts)
        for subset in (
            set(),
            {"x"},
            {"y", "w"},
            {"x", "y", "z", "w"},
        ):
            assert universe.decode(universe.mask_of(subset)) == subset

    def test_node_universe_sorts_ids(self):
        universe = node_universe([9, 2, 5])
        assert universe.bit(2) == 1
        assert universe.bit(5) == 2
        assert universe.bit(9) == 4


class TestReversePostorder:
    @pytest.mark.parametrize("name", CORPUS)
    @pytest.mark.parametrize("forward", [True, False])
    def test_is_a_permutation_of_the_cfg(self, corpus_cfgs, name, forward):
        cfg = corpus_cfgs[name]
        order = reverse_postorder(cfg, forward=forward)
        assert sorted(order) == sorted(cfg.nodes)
        assert len(order) == len(set(order))

    @pytest.mark.parametrize("name", CORPUS)
    def test_forward_order_starts_at_entry(self, corpus_cfgs, name):
        cfg = corpus_cfgs[name]
        assert reverse_postorder(cfg, forward=True)[0] == cfg.entry_id

    @pytest.mark.parametrize("name", CORPUS)
    def test_backward_order_starts_at_exit(self, corpus_cfgs, name):
        cfg = corpus_cfgs[name]
        assert reverse_postorder(cfg, forward=False)[0] == cfg.exit_id


class TestGenKillSolver:
    """The raw solver against the set-based dataflow framework, via the
    two problems the service actually runs."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_reaching_definitions_match(self, corpus_cfgs, name):
        cfg = corpus_cfgs[name]
        reference = compute_reaching_definitions(cfg, engine="sets")
        fast = compute_reaching_definitions(cfg, engine="bitset")
        assert reference.in_ == fast.in_
        assert reference.out == fast.out

    @pytest.mark.parametrize("name", CORPUS)
    def test_liveness_matches(self, corpus_cfgs, name):
        cfg = corpus_cfgs[name]
        reference = compute_liveness(cfg, engine="sets")
        fast = compute_liveness(cfg, engine="bitset")
        assert reference.in_ == fast.in_
        assert reference.out == fast.out

    def test_kill_wins_over_inherited_facts(self, corpus_cfgs):
        """Direct solver call: a fact killed on the only path does not
        survive, and gen resurrects it downstream of the kill."""
        cfg = corpus_cfgs["fig3a"]
        universe = BitUniverse(["d1"])
        entry = cfg.entry_id
        order = reverse_postorder(cfg, forward=True)
        first, second = order[1], order[2]
        gen = {entry: universe.bit("d1")}
        kill = {first: universe.bit("d1")}
        before, after = solve_gen_kill_bitset(cfg, gen, kill, forward=True)
        assert after[entry] == universe.bit("d1")
        assert after[first] == 0
        assert before[second] in (0, universe.bit("d1"))


class TestDefiniteAssignment:
    @pytest.mark.parametrize("name", CORPUS)
    def test_matches_set_reference(self, corpus_cfgs, name):
        cfg = corpus_cfgs[name]
        reachable = cfg.reachable_from(cfg.entry_id)
        assert definite_assignment(cfg, reachable) == (
            _definite_assignment_sets(cfg, reachable)
        )


class TestReverseReachable:
    @pytest.mark.parametrize("name", CORPUS)
    def test_matches_reverse_dfs(self, corpus_cfgs, name):
        cfg = corpus_cfgs[name]
        seen = {cfg.exit_id}
        stack = [cfg.exit_id]
        while stack:
            current = stack.pop()
            for pred in cfg.pred_ids(current):
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        assert reverse_reachable(cfg, cfg.exit_id) == frozenset(seen)

    @pytest.mark.parametrize("name", CORPUS)
    def test_non_exit_target(self, corpus_cfgs, name):
        """Reverse reachability to an arbitrary statement node."""
        cfg = corpus_cfgs[name]
        target = min(node.id for node in cfg.statement_nodes())
        seen = {target}
        stack = [target]
        while stack:
            current = stack.pop()
            for pred in cfg.pred_ids(current):
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        assert reverse_reachable(cfg, target) == frozenset(seen)
