"""Unit tests for the SDG subsystem: call graph, parameter model,
summary edges, and criterion resolution across procedures."""

import random
import sys

import pytest

from repro.cfg.builder import INPUT_CURSOR
from repro.gen.generator import generate_interprocedural, random_criterion
from repro.lang.ast_nodes import MAIN_UNIT
from repro.lang.errors import SliceError, UnreachableCriterionError
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.pdg.builder import analyze_program
from repro.pdg.closure import condense
from repro.sdg import callgraph, params
from repro.sdg.builder import build_sdg, sdg_for_analysis
from repro.sdg.callgraph import build_call_graph
from repro.sdg.params import IO_PARAM, actuals_for, signatures
from repro.sdg.slicer import resolve_sdg_criterion, sdg_slice
from repro.service.cache import AnalysisCache
from repro.service.engine import SlicingEngine
from repro.service.resilience import Budget, BudgetExceededError, use_budget
from repro.slicing.criterion import SlicingCriterion

COMBINE = """\
read(x);
read(y);
call combine(x, y, s);
call combine(y, y, t);
write(s);
write(t);

proc combine(a, b, r) {
    r = a * b;
    if (a > b) {
        return;
    }
    r = r + a;
}
"""

CHAIN = """\
read(v);
call outer(v, r);
write(r);

proc outer(a, out) {
    call inner(a, out);
}

proc inner(a, out) {
    out = a + 1;
}

proc orphan(z) {
    z = 0;
}
"""

READER = """\
call fetch(x);
read(y);
write(x);
write(y);

proc fetch(slot) {
    read(slot);
}
"""


def _sdg(source):
    return sdg_for_analysis(analyze_program(source))


class TestCallGraph:
    def test_sites_and_callees(self):
        graph = build_call_graph(parse_program(COMBINE))
        assert graph.units == [MAIN_UNIT, "combine"]
        assert [name for _, name in graph.sites[MAIN_UNIT]] == [
            "combine",
            "combine",
        ]
        assert graph.callees[MAIN_UNIT] == {"combine"}
        assert graph.callers["combine"] == {MAIN_UNIT}

    def test_reachability_excludes_uncalled_proc(self):
        graph = build_call_graph(parse_program(CHAIN))
        assert graph.reachable == {MAIN_UNIT, "outer", "inner"}
        assert "orphan" not in graph.reachable

    def test_recursion_detection(self):
        source = """\
call ping(x);
write(x);

proc ping(a) {
    if (a > 0) {
        call pong(a);
    }
}

proc pong(a) {
    a = a - 1;
    call ping(a);
}
"""
        graph = build_call_graph(parse_program(source))
        assert graph.recursive == {"ping", "pong"}

    def test_io_units_propagate_to_callers(self):
        graph = build_call_graph(parse_program(READER))
        # fetch reads directly; main reads directly too.
        assert graph.io_units == {MAIN_UNIT, "fetch"}


class TestParamModel:
    def test_io_param_matches_cfg_input_cursor(self):
        # The implicit parameter must be the same pseudo-variable the
        # CFG builder threads through read statements, or read
        # chaining breaks across call boundaries.
        assert IO_PARAM == INPUT_CURSOR

    def test_io_proc_gains_implicit_formal(self):
        program = parse_program(READER)
        table = signatures(program)
        assert table["fetch"].formals == ("slot", IO_PARAM)
        assert table[MAIN_UNIT].formals == ()

    def test_non_var_argument_is_copy_in_only(self):
        source = """\
call f(x + 1, y);
write(y);

proc f(a, b) {
    b = a;
}
"""
        program = parse_program(source)
        table = signatures(program)
        call = next(
            stmt
            for stmt in program.statements()
            if type(stmt).__name__ == "CallStmt"
        )
        specs = actuals_for(call, table["f"])
        assert [spec.out_var for spec in specs] == [None, "y"]


class TestSummaryEdges:
    def test_summary_edges_exist_for_param_flow(self):
        sdg = _sdg(COMBINE)
        assert sdg.summary_edges > 0
        assert sdg.summary_iterations >= 1

    def test_budget_stops_name_an_sdg_phase(self):
        analysis = analyze_program(CHAIN)
        with use_budget(Budget(max_traversals=0)):
            with pytest.raises(BudgetExceededError) as err:
                build_sdg(analysis.program, main_analysis=analysis)
        assert err.value.phase == "sdg-summary"
        # The callees-first order's SCC walk polls the deadline under
        # the same phase.
        with use_budget(Budget(deadline_seconds=-1.0)):
            with pytest.raises(BudgetExceededError) as err:
                condense(["main"], lambda unit: [], "sdg-summary")
        assert err.value.phase == "sdg-summary"

    def test_degenerate_program_has_no_summary_edges(self):
        sdg = _sdg("x = 1;\nwrite(x);")
        assert sdg.is_degenerate
        assert sdg.summary_edges == 0

    def test_chain_effect_reaches_top_level_actual_out(self):
        # r depends on v only through outer -> inner; slicing on r must
        # pull the read through two summary levels.
        sdg = _sdg(CHAIN)
        result = sdg_slice(sdg, SlicingCriterion(line=3, var="r"))
        lines = result.lines()
        assert 1 in lines  # read(v)
        assert "inner" in result.units()


class TestCriterionResolution:
    def test_unknown_proc_is_named(self):
        sdg = _sdg(COMBINE)
        with pytest.raises(SliceError) as err:
            resolve_sdg_criterion(
                sdg, SlicingCriterion(line=9, var="r", proc="nope")
            )
        assert "'nope'" in str(err.value)
        assert "'combine'" in str(err.value)

    def test_line_outside_proc_lists_its_lines(self):
        sdg = _sdg(COMBINE)
        with pytest.raises(SliceError) as err:
            resolve_sdg_criterion(
                sdg, SlicingCriterion(line=1, var="x", proc="combine")
            )
        assert "proc 'combine'" in str(err.value)

    def test_line_in_no_unit(self):
        sdg = _sdg(COMBINE)
        with pytest.raises(SliceError) as err:
            resolve_sdg_criterion(sdg, SlicingCriterion(line=99, var="x"))
        assert "no statement at line 99" in str(err.value)

    def test_ambiguous_line_names_candidates(self):
        # Two proc bodies share source line 5, so an unqualified
        # criterion there cannot pick a unit.
        source = (
            "call a(x);\n"
            "call b(y);\n"
            "write(x);\n"
            "\n"
            "proc a(p) { p = 1; } proc b(q) { q = 2; }\n"
        )
        sdg = _sdg(source)
        with pytest.raises(SliceError) as err:
            resolve_sdg_criterion(sdg, SlicingCriterion(line=5, var="p"))
        message = str(err.value)
        assert "ambiguous" in message
        assert "'a'" in message and "'b'" in message
        # Qualifying resolves it.
        resolved = resolve_sdg_criterion(
            sdg, SlicingCriterion(line=5, var="p", proc="a")
        )
        assert resolved.unit == "a"

    def test_never_called_proc_is_rejected_by_name(self):
        sdg = _sdg(CHAIN)
        with pytest.raises(UnreachableCriterionError) as err:
            resolve_sdg_criterion(
                sdg, SlicingCriterion(line=14, var="z", proc="orphan")
            )
        assert "'orphan'" in str(err.value)
        assert "never called" in str(err.value)

    def test_unreachable_statement_in_proc_names_the_proc(self):
        source = """\
call f(x);
write(x);

proc f(a) {
    return;
    a = 1;
}
"""
        sdg = _sdg(source)
        with pytest.raises(UnreachableCriterionError) as err:
            resolve_sdg_criterion(
                sdg, SlicingCriterion(line=6, var="a", proc="f")
            )
        assert "proc 'f'" in str(err.value)


class TestSliceShape:
    def test_unrelated_call_site_is_dropped(self):
        sdg = _sdg(COMBINE)
        result = sdg_slice(sdg, SlicingCriterion(line=5, var="s"))
        lines = result.lines()
        assert 3 in lines  # the call that produces s
        assert 4 not in lines  # the unrelated second call
        # The guarded return controls the copy-out value: Agrawal's
        # rule must keep it.
        assert 11 in lines

    def test_global_nodes_are_disjoint_across_units(self):
        sdg = _sdg(COMBINE)
        result = sdg_slice(sdg, SlicingCriterion(line=5, var="s"))
        globals_ = result.global_nodes()
        total = sum(len(nodes) for nodes in result.per_proc.values())
        assert len(globals_) == total


def _count_calls(monkeypatch, original):
    """Replace every ``repro`` module's reference to *original* with a
    counting wrapper; returns the list the wrapper appends to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestFrontMemo:
    def test_one_call_graph_per_cold_multiproc_request(self, monkeypatch):
        jobs = [(COMBINE, 5, "s"), (CHAIN, 3, "r"), (READER, 3, "x")]
        for seed in range(7):
            source = pretty(generate_interprocedural(random.Random(seed)))
            line, var = random_criterion(
                random.Random(seed), parse_program(source)
            )
            jobs.append((source, line, var))
        graphs = _count_calls(monkeypatch, callgraph.build_call_graph)
        sigs = _count_calls(monkeypatch, params.signatures)
        engine = SlicingEngine(cache=AnalysisCache(capacity=16))
        try:
            for source, line, var in jobs:
                envelope = engine.handle_payload(
                    {
                        "version": 2,
                        "op": "slice",
                        "source": source,
                        "line": line,
                        "var": var,
                        "algorithm": "interprocedural",
                    }
                )
                # A dead generated criterion is rejected after the SDG
                # build, which is what this test counts.
                assert envelope["ok"] or (
                    envelope["error"]["code"] == "unreachable-criterion"
                ), envelope
        finally:
            engine.close()
        assert len(graphs) == len(jobs)
        assert len(sigs) == len(jobs)
