"""Unit tests for the whole-SDG closure index lifecycle: build
structure (edge partitions, binding triples, jump schedule), the
encode/decode mask layer, the enablement knob at both levels,
memoization and invalidation on SDG mutation, and budget-pressure
deferral."""

import pytest

from repro.lang.ast_nodes import MAIN_UNIT
from repro.pdg.builder import analyze_program
from repro.pdg.closure import (
    MIN_BUILD_HEADROOM_SECONDS,
    closure_index_enabled,
    closure_index,
)
from repro.sdg.builder import sdg_for_analysis
from repro.sdg.closure import (
    SDGClosureIndex,
    build_sdg_closure_index,
    ensure_sdg_index,
    sdg_closure_index,
    sdg_index_enabled,
)
from repro.service.resilience import Budget, use_budget

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


def _sdg(source=COMBINE):
    with sdg_closure_index(False):
        return sdg_for_analysis(analyze_program(source))


class TestBuildStructure:
    def test_layout_matches_the_sdg(self):
        sdg = _sdg()
        index = build_sdg_closure_index(sdg)
        assert set(index.unit_ranges) == set(sdg.procs)
        for unit, info in sdg.procs.items():
            assert index.unit_ranges[unit] == (info.offset, info.size)
        assert index.vertex_count == sum(
            info.size for info in sdg.procs.values()
        )
        assert index.signature and len(index.signature) == len(sdg.procs)

    def test_binding_triples_cover_every_bound_formal_in(self):
        sdg = _sdg()
        index = build_sdg_closure_index(sdg)
        expected = sum(
            sum(
                1
                for param_index in sdg.procs[site.callee].formal_in
                if param_index in site.actual_in
            )
            for unit in sdg.procs
            for site in sdg.procs[unit].sites
        )
        assert len(index.bindings) == expected > 0
        for f_in_bit, call_bit, ai_bit in index.bindings:
            # Single-bit masks, all distinct roles.
            for bit in (f_in_bit, call_bit, ai_bit):
                assert bit and bit & (bit - 1) == 0
            assert f_in_bit != ai_bit

    def test_jump_schedule_is_the_pdt_preorder_restriction(self):
        # The indexed jump round walks each unit analysis's jump
        # schedule (ProgramAnalysis.jump_preorder).
        sdg = _sdg()
        schedules = {}
        for unit, info in sdg.procs.items():
            analysis = info.analysis
            cfg = analysis.cfg
            expected = tuple(
                node_id
                for node_id in analysis.pdt.preorder()
                if node_id in cfg.nodes and cfg.nodes[node_id].is_jump
            )
            schedules[unit] = analysis.jump_preorder(analysis.pdt)
            assert schedules[unit] == expected
        # COMBINE's return is a jump; the schedule must not be empty
        # everywhere or the optimization would be untested.
        assert any(schedules.values())

    def test_encode_decode_roundtrip(self):
        sdg = _sdg()
        index = build_sdg_closure_index(sdg)
        per_unit = {
            MAIN_UNIT: {1, 3},
            "combine": {0, 2},
        }
        mask = index.encode(per_unit)
        decoded = index.decode(mask)
        assert decoded[MAIN_UNIT] == {1, 3}
        assert decoded["combine"] == {0, 2}
        # decode keys every unit, empty ones included.
        assert set(decoded) == set(sdg.procs)

    def test_closure_masks_are_reflexive_and_monotone(self):
        sdg = _sdg()
        index = build_sdg_closure_index(sdg)
        for side in (index.ascend, index.descend):
            for bit_index in range(index.vertex_count):
                seed = 1 << bit_index
                closed = side.closure_mask(seed)
                assert closed & seed == seed
                # Closing a closed mask is a fixed point.
                assert side.closure_mask(closed) == closed


class TestKnob:
    def test_defers_to_the_process_wide_knob(self):
        assert closure_index_enabled()
        assert sdg_index_enabled()
        with closure_index(False):
            assert not sdg_index_enabled()
        assert sdg_index_enabled()

    def test_sdg_override_beats_the_global_knob(self):
        with closure_index(False):
            with sdg_closure_index(True):
                assert sdg_index_enabled()
            assert not sdg_index_enabled()
        with sdg_closure_index(False):
            assert closure_index_enabled()
            assert not sdg_index_enabled()

    def test_none_restores_deference(self):
        with sdg_closure_index(False):
            with sdg_closure_index(None):
                assert sdg_index_enabled() == closure_index_enabled()
            assert not sdg_index_enabled()

    def test_override_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with sdg_closure_index(False):
                raise RuntimeError("boom")
        assert sdg_index_enabled() == closure_index_enabled()

    def test_disabled_knob_returns_no_index(self):
        sdg = _sdg()
        with sdg_closure_index(False):
            index, events = ensure_sdg_index(sdg)
        assert index is None
        assert events == {}
        assert getattr(sdg, "_closure_index", None) is None


class TestLifecycle:
    def test_build_memoizes_on_the_sdg(self):
        sdg = _sdg()
        with sdg_closure_index(True):
            first, events = ensure_sdg_index(sdg)
            assert events == {"sdg-index:builds": 1}
            second, events = ensure_sdg_index(sdg)
        assert second is first
        assert events == {}

    def test_mutation_invalidates(self):
        sdg = _sdg()
        with sdg_closure_index(True):
            first, _ = ensure_sdg_index(sdg)
            # Grow one stitched local graph: the signature snapshot no
            # longer matches, so the memoized index must be discarded.
            info = sdg.procs[MAIN_UNIT]
            fresh = max(info.local.nodes) + 1
            info.local.add_edge(fresh, min(info.local.nodes), "data")
            second, events = ensure_sdg_index(sdg)
        assert second is not first
        assert events == {"sdg-index:builds": 1}
        assert second.signature != first.signature

    def test_pressure_defers_the_build(self):
        sdg = _sdg()
        tight = MIN_BUILD_HEADROOM_SECONDS / 10
        with sdg_closure_index(True):
            with use_budget(Budget(deadline_seconds=tight)):
                index, events = ensure_sdg_index(sdg)
            assert index is None
            assert events == {"sdg-index:pressure-skips": 1}
            # Once the pressure clears the build proceeds.
            index, events = ensure_sdg_index(sdg)
        assert isinstance(index, SDGClosureIndex)
        assert events == {"sdg-index:builds": 1}

    def test_memoized_index_served_even_under_pressure(self):
        sdg = _sdg()
        tight = MIN_BUILD_HEADROOM_SECONDS / 10
        with sdg_closure_index(True):
            built, _ = ensure_sdg_index(sdg)
            with use_budget(Budget(deadline_seconds=tight)):
                index, events = ensure_sdg_index(sdg)
        assert index is built
        assert events == {}
