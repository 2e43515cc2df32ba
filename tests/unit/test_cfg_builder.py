"""Unit tests for CFG construction."""

import pytest

from repro.cfg.builder import INPUT_CURSOR, build_cfg
from repro.cfg.graph import EdgeLabel, NodeKind
from repro.lang.errors import ValidationError
from repro.lang.parser import parse_program


def cfg_of(source):
    return build_cfg(parse_program(source))


def kinds(cfg):
    return [node.kind for node in cfg.sorted_nodes()]


def edge_set(cfg):
    return set(cfg.edges())


class TestNodeCreation:
    def test_entry_is_node_zero_exit_is_last(self):
        cfg = cfg_of("x = 1;\ny = 2;")
        assert cfg.entry_id == 0
        assert cfg.exit_id == len(cfg) - 1
        assert cfg.entry.kind is NodeKind.ENTRY
        assert cfg.exit.kind is NodeKind.EXIT

    def test_lexical_numbering(self):
        cfg = cfg_of("x = 1;\nif (x)\ny = 2;\nz = 3;")
        texts = [cfg.nodes[i].text for i in range(1, 4 + 1)]
        assert texts == ["x = 1", "if (x)", "y = 2", "z = 3"]

    def test_node_lines_match_source(self):
        cfg = cfg_of("x = 1;\n\ny = 2;")
        lines = [node.line for node in cfg.statement_nodes()]
        assert lines == [1, 3]

    def test_block_has_no_node(self):
        cfg = cfg_of("{ x = 1; }")
        assert len(cfg.statement_nodes()) == 1

    def test_do_while_test_node_follows_body_lexically(self):
        cfg = cfg_of("do\nx = 1;\nwhile (c);")
        body, test = cfg.statement_nodes()
        assert body.kind is NodeKind.ASSIGN
        assert test.kind is NodeKind.PREDICATE
        assert body.id < test.id


class TestCondGotoFusion:
    def test_fusion_applies(self):
        cfg = cfg_of("if (eof()) goto L; L: x = 1;")
        node = cfg.statement_nodes()[0]
        assert node.kind is NodeKind.CONDGOTO
        assert node.goto_target == "L"

    def test_fused_node_has_true_and_false_edges(self):
        cfg = cfg_of("if (eof()) goto L; y = 2; L: x = 1;")
        node_id = cfg.statement_nodes()[0].id
        labels = {label for _, label in cfg.successors(node_id)}
        assert labels == {EdgeLabel.TRUE, EdgeLabel.FALSE}

    def test_no_fusion_with_else(self):
        cfg = cfg_of("if (c) goto L; else x = 2; L: x = 1;")
        assert cfg.statement_nodes()[0].kind is NodeKind.PREDICATE

    def test_no_fusion_with_block_body(self):
        cfg = cfg_of("if (c) { goto L; } L: x = 1;")
        assert cfg.statement_nodes()[0].kind is NodeKind.PREDICATE

    def test_both_statements_map_to_fused_node(self):
        program = parse_program("if (c) goto L; L: x = 1;")
        cfg = build_cfg(program)
        if_stmt = program.body[0]
        assert cfg.node_of(if_stmt) == cfg.node_of(if_stmt.then_branch)


class TestEdges:
    def test_straight_line(self):
        cfg = cfg_of("x = 1;\ny = 2;")
        assert (0, 1, EdgeLabel.TRUE) in edge_set(cfg)
        assert (1, 2, EdgeLabel.FALL) in edge_set(cfg)
        assert (2, 3, EdgeLabel.FALL) in edge_set(cfg)

    def test_if_branches_rejoin(self):
        cfg = cfg_of("if (c)\nx = 1;\nelse\ny = 2;\nz = 3;")
        edges = edge_set(cfg)
        assert (1, 2, EdgeLabel.TRUE) in edges
        assert (1, 3, EdgeLabel.FALSE) in edges
        assert (2, 4, EdgeLabel.FALL) in edges
        assert (3, 4, EdgeLabel.FALL) in edges

    def test_if_without_else_false_edge_falls_through(self):
        cfg = cfg_of("if (c)\nx = 1;\nz = 3;")
        assert (1, 3, EdgeLabel.FALSE) in edge_set(cfg)

    def test_while_back_edge_and_exit(self):
        cfg = cfg_of("while (c)\nx = 1;\ny = 2;")
        edges = edge_set(cfg)
        assert (1, 2, EdgeLabel.TRUE) in edges
        assert (1, 3, EdgeLabel.FALSE) in edges
        assert (2, 1, EdgeLabel.FALL) in edges

    def test_do_while_executes_body_first(self):
        cfg = cfg_of("do\nx = 1;\nwhile (c);\ny = 2;")
        edges = edge_set(cfg)
        # ENTRY -> body (1), body -> test (2), test -true-> body,
        # test -false-> next (3).
        assert (0, 1, EdgeLabel.TRUE) in edges
        assert (1, 2, EdgeLabel.FALL) in edges
        assert (2, 1, EdgeLabel.TRUE) in edges
        assert (2, 3, EdgeLabel.FALSE) in edges

    def test_for_wiring(self):
        cfg = cfg_of("for (i = 0; i < 3; i = i + 1)\nx = x + i;\ny = 1;")
        # Nodes: 1 init, 2 pred, 3 step, 4 body, 5 after.
        edges = edge_set(cfg)
        assert (1, 2, EdgeLabel.FALL) in edges  # init -> pred
        assert (2, 4, EdgeLabel.TRUE) in edges  # pred -> body
        assert (2, 5, EdgeLabel.FALSE) in edges  # pred -> after
        assert (4, 3, EdgeLabel.FALL) in edges  # body -> step
        assert (3, 2, EdgeLabel.FALL) in edges  # step -> pred

    def test_break_targets_after_loop(self):
        cfg = cfg_of("while (c) {\nbreak;\n}\ny = 1;")
        break_node = next(
            n for n in cfg.statement_nodes() if n.kind is NodeKind.BREAK
        )
        after = next(n for n in cfg.statement_nodes() if n.text == "y = 1")
        assert (break_node.id, after.id, EdgeLabel.JUMP) in edge_set(cfg)

    def test_continue_targets_loop_test(self):
        cfg = cfg_of("while (c) {\ncontinue;\n}")
        cont = next(
            n for n in cfg.statement_nodes() if n.kind is NodeKind.CONTINUE
        )
        assert (cont.id, 1, EdgeLabel.JUMP) in edge_set(cfg)

    def test_continue_in_for_targets_step(self):
        cfg = cfg_of("for (i = 0; i < 3; i = i + 1) {\ncontinue;\n}")
        cont = next(
            n for n in cfg.statement_nodes() if n.kind is NodeKind.CONTINUE
        )
        step = next(n for n in cfg.statement_nodes() if n.text == "i = i + 1")
        assert (cont.id, step.id, EdgeLabel.JUMP) in edge_set(cfg)

    def test_return_targets_exit(self):
        cfg = cfg_of("return 1;\nx = 2;")
        ret = cfg.statement_nodes()[0]
        assert (ret.id, cfg.exit_id, EdgeLabel.JUMP) in edge_set(cfg)

    def test_goto_resolves_forward_and_backward(self):
        cfg = cfg_of("A: x = 1;\ngoto B;\ngoto A;\nB: y = 2;")
        edges = edge_set(cfg)
        assert (2, 4, EdgeLabel.JUMP) in edges
        assert (3, 1, EdgeLabel.JUMP) in edges


class TestSwitchWiring:
    SOURCE = (
        "switch (c) {\n"
        "case 1: x = 1;\n"
        "break;\n"
        "case 2: y = 2;\n"
        "case 3: z = 3;\n"
        "}\n"
        "w = 4;"
    )

    def test_case_edges(self):
        cfg = cfg_of(self.SOURCE)
        edges = edge_set(cfg)
        assert (1, 2, "case 1") in edges
        assert (1, 4, "case 2") in edges
        assert (1, 5, "case 3") in edges

    def test_missing_default_goes_past_switch(self):
        cfg = cfg_of(self.SOURCE)
        assert (1, 6, EdgeLabel.DEFAULT) in edge_set(cfg)

    def test_fall_through_between_arms(self):
        cfg = cfg_of(self.SOURCE)
        assert (4, 5, EdgeLabel.FALL) in edge_set(cfg)

    def test_break_leaves_switch(self):
        cfg = cfg_of(self.SOURCE)
        assert (3, 6, EdgeLabel.JUMP) in edge_set(cfg)

    def test_default_edge_to_default_arm(self):
        cfg = cfg_of("switch (c) { default: x = 1; }\ny = 2;")
        assert (1, 2, EdgeLabel.DEFAULT) in edge_set(cfg)

    def test_empty_arm_falls_into_next(self):
        cfg = cfg_of("switch (c) { case 1: case 2: x = 1; }\ny = 2;")
        edges = edge_set(cfg)
        assert (1, 2, "case 1") in edges
        assert (1, 2, "case 2") in edges


class TestDefsUses:
    def test_assign(self):
        cfg = cfg_of("x = y + z;")
        node = cfg.statement_nodes()[0]
        assert node.defs == {"x"}
        assert node.uses == {"y", "z"}

    def test_read_chains_input_cursor(self):
        cfg = cfg_of("read(x);")
        node = cfg.statement_nodes()[0]
        assert node.defs == {"x", INPUT_CURSOR}
        assert node.uses == {INPUT_CURSOR}

    def test_eof_uses_cursor(self):
        cfg = cfg_of("while (!eof()) read(x);")
        pred = cfg.statement_nodes()[0]
        assert INPUT_CURSOR in pred.uses

    def test_write_uses(self):
        cfg = cfg_of("write(a + b);")
        assert cfg.statement_nodes()[0].uses == {"a", "b"}

    def test_return_uses(self):
        cfg = cfg_of("return a * 2;")
        assert cfg.statement_nodes()[0].uses == {"a"}

    def test_jump_has_no_defs_or_uses(self):
        cfg = cfg_of("while (c) break;")
        brk = next(
            n for n in cfg.statement_nodes() if n.kind is NodeKind.BREAK
        )
        assert brk.defs == frozenset() and brk.uses == frozenset()


class TestLexicalParents:
    def test_sequence(self):
        cfg = cfg_of("x = 1;\ny = 2;\nz = 3;")
        assert cfg.lexical_parent[1] == 2
        assert cfg.lexical_parent[2] == 3
        assert cfg.lexical_parent[3] == cfg.exit_id

    def test_last_of_while_body_points_to_loop(self):
        cfg = cfg_of("while (c) {\nx = 1;\ny = 2;\n}\nz = 3;")
        # nodes: 1 while, 2 x, 3 y, 4 z
        assert cfg.lexical_parent[3] == 1
        assert cfg.lexical_parent[1] == 4

    def test_then_branch_tail_points_past_if(self):
        cfg = cfg_of("if (c) {\nx = 1;\n}\ny = 2;")
        assert cfg.lexical_parent[2] == 3


class TestValidationHook:
    def test_invalid_program_rejected(self):
        with pytest.raises(ValidationError):
            cfg_of("goto nowhere;")

    def test_misplaced_break_rejected(self):
        with pytest.raises(ValidationError):
            cfg_of("break;")


class TestUnreachable:
    def test_dead_code_detected(self):
        cfg = cfg_of("return;\nx = 1;")
        dead = cfg.unreachable_statements()
        assert [node.text for node in dead] == ["x = 1"]

    def test_live_program_has_none(self):
        cfg = cfg_of("if (c) return;\nx = 1;")
        assert cfg.unreachable_statements() == []


class TestValidateOnce:
    """Validation and parameter signatures are whole-program answers:
    building every unit's CFG computes them once per Program."""

    NINE_PROCS = "\n".join(
        [f"call p{index}(x);" for index in range(9)]
        + ["write(x);"]
        + [f"proc p{index}(a) {{ a = a + {index}; }}" for index in range(9)]
    )

    @staticmethod
    def _count(monkeypatch):
        import repro.cfg.builder as builder
        import repro.sdg.params as params

        calls = {"check_program": 0, "signatures": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(builder, "check_program")
        counting(params, "signatures")
        return calls

    def test_every_unit_validates_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        program = parse_program(self.NINE_PROCS)
        assert len(program.procs) == 9
        for unit in [None] + [proc.name for proc in program.procs]:
            build_cfg(program, unit=unit)
        assert calls == {"check_program": 1, "signatures": 1}

    def test_invalid_program_fails_every_unit_identically(self, monkeypatch):
        calls = self._count(monkeypatch)
        source = self.NINE_PROCS + "\nproc q(a) { goto nowhere; }"
        program = parse_program(source)
        messages = set()
        for unit in [None] + [proc.name for proc in program.procs]:
            with pytest.raises(ValidationError) as info:
                build_cfg(program, unit=unit)
            messages.add(str(info.value))
        fresh = parse_program(source)
        with pytest.raises(ValidationError) as info:
            build_cfg(fresh, unit="p3")
        assert messages == {str(info.value)}
        assert "goto to undefined label 'nowhere'" in str(info.value)
        assert calls["check_program"] == 2
        assert calls["signatures"] == 0
