"""Unit tests for the generic dataflow framework and its instances."""

from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    GenKillProblem,
    solve_dataflow,
)
from repro.analysis.liveness import compute_liveness
from repro.analysis.reaching_defs import (
    Definition,
    compute_reaching_definitions,
)
from repro.cfg.builder import build_cfg
from repro.lang.parser import parse_program


def cfg_of(source):
    return build_cfg(parse_program(source))


def node_by_text(cfg, text):
    return next(n for n in cfg.statement_nodes() if n.text == text)


class TestFramework:
    def test_forward_constant_gen(self):
        cfg = cfg_of("x = 1;\ny = 2;")
        problem = GenKillProblem(
            gen=lambda n: frozenset({n}),
            kill=lambda n: frozenset(),
            direction=FORWARD,
        )
        result = solve_dataflow(cfg, problem)
        assert result.in_[2] == {cfg.entry_id, 1}
        assert result.out[2] == {cfg.entry_id, 1, 2}

    def test_backward_direction(self):
        cfg = cfg_of("x = 1;\ny = 2;")
        problem = GenKillProblem(
            gen=lambda n: frozenset({n}),
            kill=lambda n: frozenset(),
            direction=BACKWARD,
        )
        result = solve_dataflow(cfg, problem)
        assert 2 in result.in_[1]
        assert cfg.exit_id in result.in_[2]

    def test_kill_removes(self):
        cfg = cfg_of("x = 1;\ny = 2;")
        problem = GenKillProblem(
            gen=lambda n: frozenset({n}) if n == 1 else frozenset(),
            kill=lambda n: frozenset({1}) if n == 2 else frozenset(),
            direction=FORWARD,
        )
        result = solve_dataflow(cfg, problem)
        assert 1 in result.in_[2]
        assert 1 not in result.out[2]

    def test_loop_reaches_fixed_point(self):
        cfg = cfg_of("while (c)\nx = 1;\ny = 2;")
        problem = GenKillProblem(
            gen=lambda n: frozenset({n}),
            kill=lambda n: frozenset(),
            direction=FORWARD,
        )
        result = solve_dataflow(cfg, problem)
        # The loop test sees its own body's gen through the back edge.
        assert 2 in result.in_[1]


class TestReachingDefinitions:
    def test_simple_def_reaches_use(self):
        cfg = cfg_of("x = 1;\nwrite(x);")
        result = compute_reaching_definitions(cfg)
        assert Definition(1, "x") in result.in_[2]

    def test_redefinition_kills(self):
        cfg = cfg_of("x = 1;\nx = 2;\nwrite(x);")
        result = compute_reaching_definitions(cfg)
        assert Definition(1, "x") not in result.in_[3]
        assert Definition(2, "x") in result.in_[3]

    def test_both_branches_reach_join(self):
        cfg = cfg_of("if (c)\nx = 1;\nelse\nx = 2;\nwrite(x);")
        result = compute_reaching_definitions(cfg)
        reaching = {d for d in result.in_[4] if d.var == "x"}
        assert reaching == {Definition(2, "x"), Definition(3, "x")}

    def test_loop_carried_definition(self):
        cfg = cfg_of("x = 0;\nwhile (c)\nx = x + 1;\nwrite(x);")
        result = compute_reaching_definitions(cfg)
        loop_def = Definition(3, "x")
        assert loop_def in result.in_[3]  # reaches itself around the loop
        assert loop_def in result.in_[4]

    def test_read_defines(self):
        cfg = cfg_of("read(x);\nwrite(x);")
        result = compute_reaching_definitions(cfg)
        assert Definition(1, "x") in result.in_[2]

    def test_io_chaining_links_reads(self):
        cfg = cfg_of("read(x);\nread(y);")
        result = compute_reaching_definitions(cfg)
        assert Definition(1, "$in") in result.in_[2]


class TestLiveness:
    def test_used_variable_live_before_use(self):
        cfg = cfg_of("x = 1;\nwrite(x);")
        result = compute_liveness(cfg)
        assert "x" in result.in_[2]
        assert "x" in result.out[1]

    def test_dead_after_last_use(self):
        cfg = cfg_of("x = 1;\nwrite(x);\ny = 2;")
        result = compute_liveness(cfg)
        assert "x" not in result.out[2]

    def test_definition_kills_liveness(self):
        cfg = cfg_of("x = 1;\nx = 2;\nwrite(x);")
        result = compute_liveness(cfg)
        assert "x" not in result.in_[1]  # first def is dead

    def test_loop_keeps_variable_live(self):
        cfg = cfg_of("s = 0;\nwhile (c)\ns = s + 1;\nwrite(s);")
        result = compute_liveness(cfg)
        assert "s" in result.in_[2]
        assert "s" in result.out[3]

    def test_condition_variables_live(self):
        cfg = cfg_of("if (c)\nx = 1;")
        result = compute_liveness(cfg)
        assert "c" in result.in_[1]


class TestEngineKnob:
    def test_default_engine_is_bitset(self):
        from repro.analysis.dataflow import (
            ENGINE_BITSET,
            get_dataflow_engine,
        )

        assert get_dataflow_engine() == ENGINE_BITSET

    def test_set_engine_rejects_unknown(self):
        import pytest

        from repro.analysis.dataflow import set_dataflow_engine

        with pytest.raises(ValueError):
            set_dataflow_engine("abacus")

    def test_context_manager_restores(self):
        from repro.analysis.dataflow import (
            dataflow_engine,
            get_dataflow_engine,
        )

        before = get_dataflow_engine()
        with dataflow_engine("sets"):
            assert get_dataflow_engine() == "sets"
        assert get_dataflow_engine() == before

    def test_engines_agree_on_framework_problem(self):
        cfg = cfg_of("x = 1;\nwhile (x) {\nx = x - 1;\n}\nwrite(x);")
        problem = GenKillProblem(
            gen=lambda n: frozenset({n}) if n % 2 else frozenset(),
            kill=lambda n: frozenset({n - 1}),
            direction=FORWARD,
        )
        reference = solve_dataflow(cfg, problem, engine="sets")
        fast = solve_dataflow(cfg, problem, engine="bitset")
        assert reference.in_ == fast.in_
        assert reference.out == fast.out

    def test_custom_transfer_takes_the_sets_path(self):
        """A subclass overriding ``transfer`` is not a pure gen/kill
        problem; the bitset engine must defer to the reference solver
        rather than mis-encode it."""

        class Clamp(GenKillProblem):
            def transfer(self, node_id, value):
                return frozenset(list(sorted(value))[:1])

        cfg = cfg_of("x = 1;\ny = 2;\nwrite(y);")
        problem = Clamp(
            gen=lambda n: frozenset({n}),
            kill=lambda n: frozenset(),
            direction=FORWARD,
        )
        reference = solve_dataflow(cfg, problem, engine="sets")
        fast = solve_dataflow(cfg, problem, engine="bitset")
        assert reference.in_ == fast.in_
        assert reference.out == fast.out
        for node_id, facts in fast.out.items():
            assert len(facts) <= 1
