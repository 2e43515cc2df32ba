"""Unit tests for the condensed-PDG closure index.

Covers the raw index (Tarjan condensation + mask closure on hand-built
graphs), the lazy wiring on :class:`ProgramDependenceGraph` (build,
invalidation on mutation, enablement knob, budget-pressure skip), and
the lazy build on a served program's first slice.  Whole-registry
identity over random programs lives in
``tests/property/test_engine_differential.py``.
"""

from pathlib import Path

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.pdg.builder import analyze_program
from repro.pdg.closure import (
    MIN_BUILD_HEADROOM_SECONDS,
    build_closure_index,
    closure_index,
    closure_index_enabled,
    index_build_allowed,
    set_closure_index_enabled,
)
from repro.pdg.graph import ProgramDependenceGraph
from repro.service.cache import analysis_key
from repro.service.engine import SlicingEngine
from repro.service.resilience import Budget, use_budget

FIG3A = PAPER_PROGRAMS["fig3a"].source
COMBINE = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "interprocedural"
    / "combine.sl"
).read_text()


def index_for(edges, nodes=()):
    """Build an index from ``dependent <- supplier`` edge pairs."""
    suppliers = {}
    node_ids = set(nodes)
    for supplier, dependent in edges:
        suppliers.setdefault(dependent, []).append(supplier)
        node_ids.update((supplier, dependent))
    return build_closure_index(
        sorted(node_ids), lambda n: suppliers.get(n, [])
    )


def bfs_closure(edges, seeds, nodes=()):
    suppliers = {}
    for supplier, dependent in edges:
        suppliers.setdefault(dependent, []).append(supplier)
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        for supplier in suppliers.get(frontier.pop(), []):
            if supplier not in seen:
                seen.add(supplier)
                frontier.append(supplier)
    return frozenset(seen)


class TestRawIndex:
    def test_chain(self):
        edges = [(1, 2), (2, 3), (3, 4)]
        index = index_for(edges)
        assert index.backward_closure([4]) == {1, 2, 3, 4}
        assert index.backward_closure([2]) == {1, 2}
        assert index.backward_closure([1]) == {1}

    def test_diamond(self):
        edges = [(1, 2), (1, 3), (2, 4), (3, 4)]
        index = index_for(edges)
        assert index.backward_closure([4]) == {1, 2, 3, 4}
        assert index.backward_closure([2, 3]) == {1, 2, 3}

    def test_cycle_collapses_to_one_component(self):
        # 1 <-> 2 form an SCC; 3 depends on the cycle.
        edges = [(1, 2), (2, 1), (2, 3)]
        index = index_for(edges)
        assert index.component_count == 2
        assert index.backward_closure([3]) == {1, 2, 3}
        assert index.backward_closure([1]) == {1, 2}

    def test_self_loop(self):
        edges = [(5, 5), (5, 6)]
        index = index_for(edges)
        assert index.component_count == 2
        assert index.backward_closure([6]) == {5, 6}

    def test_multiple_seeds_union(self):
        edges = [(1, 2), (3, 4)]
        index = index_for(edges)
        assert index.backward_closure([2, 4]) == {1, 2, 3, 4}

    def test_unknown_seeds_contribute_themselves(self):
        index = index_for([(1, 2)])
        assert index.backward_closure([99]) == {99}
        assert index.backward_closure([2, 99]) == {1, 2, 99}

    def test_empty_seeds(self):
        index = index_for([(1, 2)])
        assert index.backward_closure([]) == frozenset()

    def test_isolated_nodes(self):
        index = index_for([], nodes=[7, 8])
        assert index.component_count == 2
        assert index.backward_closure([7]) == {7}

    def test_matches_bfs_on_tangled_graph(self):
        # Two interlocking cycles plus DAG fan-in.
        edges = [
            (1, 2), (2, 3), (3, 1),        # cycle A
            (4, 5), (5, 4),                # cycle B
            (3, 5), (0, 1), (0, 4), (5, 6),
        ]
        index = index_for(edges)
        for seeds in ([6], [5], [3], [1, 4], [0], [2, 6]):
            assert index.backward_closure(seeds) == bfs_closure(
                edges, seeds
            ), seeds


class TestPdgWiring:
    def pdg_with_chain(self):
        pdg = ProgramDependenceGraph()
        pdg.add_edge(1, 2, "data")
        pdg.add_edge(2, 3, "control")
        return pdg

    def test_lazy_build_and_reuse(self):
        pdg = self.pdg_with_chain()
        assert pdg._closure_index is None
        first = pdg.ensure_closure_index()
        assert first is not None
        assert pdg.ensure_closure_index() is first

    def test_backward_closure_uses_index(self):
        pdg = self.pdg_with_chain()
        assert pdg.backward_closure([3]) == {1, 2, 3}
        assert pdg._closure_index is not None

    def test_add_edge_invalidates(self):
        pdg = self.pdg_with_chain()
        pdg.ensure_closure_index()
        pdg.add_edge(0, 1, "data")
        assert pdg._closure_index is None
        assert pdg.backward_closure([3]) == {0, 1, 2, 3}

    def test_duplicate_edge_keeps_index(self):
        pdg = self.pdg_with_chain()
        index = pdg.ensure_closure_index()
        pdg.add_edge(1, 2, "data")  # already present: no mutation
        assert pdg._closure_index is index

    def test_add_node_invalidates(self):
        pdg = self.pdg_with_chain()
        pdg.ensure_closure_index()
        pdg.add_node(42)
        assert pdg._closure_index is None
        assert pdg.backward_closure([42]) == {42}

    def test_disabled_knob_falls_back_to_bfs(self):
        pdg = self.pdg_with_chain()
        with closure_index(False):
            assert not closure_index_enabled()
            assert pdg.ensure_closure_index() is None
            assert pdg.backward_closure([3]) == {1, 2, 3}
            assert pdg._closure_index is None
        assert closure_index_enabled()

    def test_set_enabled_roundtrip(self):
        set_closure_index_enabled(False)
        try:
            assert not closure_index_enabled()
        finally:
            set_closure_index_enabled(True)
        assert closure_index_enabled()


class TestBudgetPressure:
    def test_allowed_without_budget(self):
        assert index_build_allowed()

    def test_allowed_with_roomy_deadline(self):
        with use_budget(Budget(deadline_seconds=60.0)):
            assert index_build_allowed()

    def test_allowed_with_no_deadline_dimension(self):
        with use_budget(Budget(max_nodes=10_000)):
            assert index_build_allowed()

    def test_skipped_near_the_deadline(self):
        tight = MIN_BUILD_HEADROOM_SECONDS / 10
        with use_budget(Budget(deadline_seconds=tight)):
            assert not index_build_allowed()

    def test_build_deferred_but_query_answered(self):
        pdg = ProgramDependenceGraph()
        pdg.add_edge(1, 2, "data")
        tight = MIN_BUILD_HEADROOM_SECONDS / 10
        with use_budget(Budget(deadline_seconds=tight)):
            assert pdg.ensure_closure_index() is None
            assert pdg.backward_closure([2]) == {1, 2}
        # Pressure gone: the next query builds the index.
        assert pdg.backward_closure([2]) == {1, 2}
        assert pdg._closure_index is not None


class TestLazyIndex:
    """The analysis cache builds no closure index: the first slice that
    reads main's PDG builds it, and interprocedural slicing (which
    walks the SDG's own copies of each unit's graph) never does."""

    def _slice(self, source, **criterion):
        with SlicingEngine(workers=1) as engine:
            analysis = engine.analysis_for(source)
            assert analysis.pdg._closure_index is None
            response = engine.handle_payload(
                {"version": 1, "op": "slice", "source": source, **criterion}
            )
            assert response["ok"], response
            assert engine.cache.peek(analysis_key(source)) is analysis
            return analysis

    def test_agrawal_slice_builds_the_index_on_first_use(self):
        line, var = PAPER_PROGRAMS["fig3a"].criterion
        analysis = self._slice(FIG3A, line=line, var=var)
        assert analysis.pdg._closure_index is not None

    def test_interprocedural_slice_leaves_main_index_unbuilt(self):
        analysis = self._slice(
            COMBINE, line=5, var="s", algorithm="interprocedural"
        )
        assert analysis.program.procs
        assert analysis.pdg._closure_index is None


class TestPrewarm:
    def test_index_agrees_with_bfs_on_real_pdg(self):
        analysis = analyze_program(FIG3A)
        pdg = analysis.pdg
        for node in sorted(pdg.nodes):
            with closure_index(False):
                reference = pdg.backward_closure([node])
            with closure_index(True):
                fast = pdg.backward_closure([node])
            assert reference == fast
