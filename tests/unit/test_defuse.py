"""Unit tests for def-use chains and the data-dependence graph."""

from repro.analysis.defuse import (
    compute_data_dependence,
    def_use_chains,
)
from repro.analysis.reaching_defs import (
    Definition,
    compute_reaching_definitions,
)
from repro.cfg.builder import build_cfg
from repro.lang.parser import parse_program


def cfg_of(source):
    return build_cfg(parse_program(source))


class TestDataDependence:
    def test_simple_flow(self):
        cfg = cfg_of("x = 1;\nwrite(x);")
        ddg = compute_data_dependence(cfg)
        assert (1, 2, "x") in set(ddg.edges())

    def test_no_dependence_when_killed(self):
        cfg = cfg_of("x = 1;\nx = 2;\nwrite(x);")
        ddg = compute_data_dependence(cfg)
        assert (1, 3, "x") not in set(ddg.edges())
        assert (2, 3, "x") in set(ddg.edges())

    def test_paper_fig1_write_depends_on_both_assignments(self):
        from repro.corpus import PAPER_PROGRAMS

        cfg = cfg_of(PAPER_PROGRAMS["fig1a"].source)
        ddg = compute_data_dependence(cfg)
        # "Node 12 is data dependent on nodes 2 and 7" (paper §2).
        assert ddg.defs_reaching(12) == [2, 7]

    def test_predicate_uses_create_dependence(self):
        cfg = cfg_of("read(x);\nif (x > 0)\ny = 1;")
        ddg = compute_data_dependence(cfg)
        assert (1, 2, "x") in set(ddg.edges())

    def test_accepts_precomputed_reaching(self):
        cfg = cfg_of("x = 1;\nwrite(x);")
        reaching = compute_reaching_definitions(cfg)
        ddg = compute_data_dependence(cfg, reaching)
        assert ddg.defs_reaching(2) == [1]

    def test_uses_of(self):
        cfg = cfg_of("x = 1;\nwrite(x);\nwrite(x + 1);")
        ddg = compute_data_dependence(cfg)
        assert ddg.uses_of(1) == [2, 3]

    def test_def_edges_carry_variable(self):
        cfg = cfg_of("x = 1;\ny = 2;\nwrite(x + y);")
        ddg = compute_data_dependence(cfg)
        assert sorted(ddg.def_edges_of(3)) == [(1, "x"), (2, "y")]

    def test_self_dependence_around_loop(self):
        cfg = cfg_of("s = 0;\nwhile (c)\ns = s + 1;")
        ddg = compute_data_dependence(cfg)
        assert (3, 3, "s") in set(ddg.edges())


class TestDefUseChains:
    def test_chain_lists_all_uses(self):
        cfg = cfg_of("x = 1;\nwrite(x);\ny = x + 2;")
        chains = def_use_chains(cfg)
        assert chains[Definition(1, "x")] == [2, 3]

    def test_unused_definition_absent(self):
        cfg = cfg_of("x = 1;\ny = 2;\nwrite(y);")
        chains = def_use_chains(cfg)
        assert Definition(1, "x") not in chains
