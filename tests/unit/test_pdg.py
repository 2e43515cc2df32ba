"""Unit tests for PDG construction and the ProgramAnalysis bundle."""

from repro.corpus import PAPER_PROGRAMS
from repro.pdg.builder import (
    analyze_program,
    build_augmented_pdg,
    build_pdg,
)
from repro.pdg.graph import CONTROL, DATA, ProgramDependenceGraph
from repro.cfg.builder import build_cfg
from repro.lang.parser import parse_program


class TestGraphStructure:
    def test_add_edge_and_queries(self):
        pdg = ProgramDependenceGraph()
        pdg.add_edge(1, 2, CONTROL, "true")
        pdg.add_edge(3, 2, DATA, "x")
        assert pdg.dependences_of(2) == [1, 3]
        assert pdg.control_parents_of(2) == [1]
        assert pdg.data_parents_of(2) == [3]
        assert pdg.dependents_of(1) == [2]

    def test_duplicate_edges_deduped(self):
        pdg = ProgramDependenceGraph()
        pdg.add_edge(1, 2, DATA, "x")
        pdg.add_edge(1, 2, DATA, "x")
        assert len(pdg) == 1

    def test_backward_closure(self):
        pdg = ProgramDependenceGraph()
        pdg.add_edge(1, 2, CONTROL, "")
        pdg.add_edge(2, 3, DATA, "x")
        pdg.add_edge(4, 4, DATA, "y")  # unrelated self-loop
        assert pdg.backward_closure([3]) == {1, 2, 3}

    def test_forward_closure(self):
        pdg = ProgramDependenceGraph()
        pdg.add_edge(1, 2, CONTROL, "")
        pdg.add_edge(2, 3, DATA, "x")
        assert pdg.forward_closure([1]) == {1, 2, 3}

    def test_closure_includes_seeds(self):
        pdg = ProgramDependenceGraph()
        pdg.add_node(5)
        assert pdg.backward_closure([5]) == {5}


class TestBuilders:
    def test_pdg_merges_control_and_data(self):
        analysis = analyze_program("x = 1;\nif (x)\ny = 2;")
        pdg = analysis.pdg
        assert 1 in pdg.data_parents_of(2)
        assert 2 in pdg.control_parents_of(3)

    def test_build_pdg_from_cfg_alone(self):
        cfg = build_cfg(parse_program("x = 1;\nwrite(x);"))
        pdg = build_pdg(cfg)
        assert 1 in pdg.data_parents_of(2)

    def test_augmented_pdg_has_jump_control_edges(self):
        analysis = analyze_program(PAPER_PROGRAMS["fig3a"].source)
        augmented = analysis.augmented_pdg
        # In the augmented PDG statements are control dependent on the
        # unconditional jumps (pseudo-predicates); in the plain PDG they
        # never are.
        jump_children = augmented.dependents_of(13)
        assert jump_children, "goto 13 controls nothing in augmented PDG?"
        assert analysis.pdg.dependents_of(13) == []

    def test_augmented_pdg_shares_data_dependence(self):
        analysis = analyze_program(PAPER_PROGRAMS["fig3a"].source)
        plain_data = {
            (s, d)
            for s, d, kind, _ in analysis.pdg.edges()
            if kind == DATA
        }
        augmented_data = {
            (s, d)
            for s, d, kind, _ in analysis.augmented_pdg.edges()
            if kind == DATA
        }
        assert plain_data == augmented_data

    def test_augmented_artifacts_cached(self):
        analysis = analyze_program("x = 1;")
        assert analysis.augmented_cfg is analysis.augmented_cfg
        assert analysis.augmented_pdg is analysis.augmented_pdg


class TestProgramAnalysis:
    def test_accepts_source_or_ast(self):
        source = "x = 1;"
        from_source = analyze_program(source)
        from_ast = analyze_program(parse_program(source))
        assert len(from_source.cfg) == len(from_ast.cfg)

    def test_node_text(self):
        analysis = analyze_program("x = 1;")
        assert analysis.node_text(1) == "x = 1"

    def test_lines_of(self):
        analysis = analyze_program("x = 1;\ny = 2;")
        assert analysis.lines_of([1, 2]) == {1: 1, 2: 2}

    def test_reaching_defs_of(self):
        analysis = analyze_program("x = 1;\nif (c)\nx = 2;\nwrite(x);")
        assert analysis.reaching_defs_of(4, "x") == [1, 3]

    def test_reaching_defs_of_unknown_var_empty(self):
        analysis = analyze_program("x = 1;\nwrite(x);")
        assert analysis.reaching_defs_of(2, "zzz") == []


class TestReachingDefsIndex:
    def test_index_matches_linear_scan_on_corpus(self):
        """The per-(node, var) index answers exactly what the old
        linear scan over ``reaching.in_`` answered."""
        for name in sorted(PAPER_PROGRAMS):
            analysis = analyze_program(PAPER_PROGRAMS[name].source)
            for node in analysis.cfg.sorted_nodes():
                for var in sorted(node.uses | node.defs):
                    expected = sorted(
                        d.node
                        for d in analysis.reaching.in_[node.id]
                        if d.var == var
                    )
                    assert (
                        analysis.reaching_defs_of(node.id, var)
                        == expected
                    ), (name, node.id, var)

    def test_result_lists_are_not_aliased(self):
        analysis = analyze_program("x = 1;\nwrite(x);")
        first = analysis.reaching_defs_of(2, "x")
        first.append(999)
        assert analysis.reaching_defs_of(2, "x") == [1]
