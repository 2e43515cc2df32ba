"""Unit tests for the incremental layer's building blocks: per-unit
fingerprints (what dirties what), the bounded :class:`UnitCache`, and
the global on/off knob.

The dirtiness rules under test are exactly the ones DESIGN.md §14
documents:

* formatting that preserves line numbers is invisible;
* a line shift is a real change (analyses carry absolute lines);
* a body edit that leaves a unit's signature alone dirties only that
  unit;
* an I/O flip anywhere dirties the whole caller chain, because callers
  hash their direct callees' signatures and the ``io`` bit propagates
  transitively through the call graph.
"""

import random

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.lang.parser import parse_program
from repro.pdg.builder import analyze_program
from repro.service.cache import AnalysisCache
from repro.service.incremental import (
    IncrementalStats,
    StitchedUnit,
    UnitCache,
    incremental,
    incremental_enabled,
    incremental_parse,
    split_source,
    unit_fingerprints,
)

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

#: ``examples/interprocedural/combine.sl``.
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


def fingerprints(source):
    return unit_fingerprints(parse_program(source))


class TestFingerprints:
    def test_same_line_comment_is_invisible(self):
        """Formatting that keeps every statement on its line changes no
        unit's fingerprint — the whole analysis is salvageable."""
        base = fingerprints(CHAIN)
        lines = CHAIN.splitlines()
        lines[0] += "  // reviewed"
        edited = fingerprints("\n".join(lines) + "\n")
        assert edited == base

    def test_line_shift_changes_every_shifted_unit(self):
        """A prepended comment *line* renumbers everything below it;
        absolute lines are part of the analyses, so every fingerprint
        must change."""
        base = fingerprints(CHAIN)
        edited = fingerprints("// header\n" + CHAIN)
        assert all(edited[unit] != base[unit] for unit in base)

    def test_body_edit_dirties_only_its_unit(self):
        """A constant tweak inside ``inner`` leaves its signature alone,
        so callers (and strangers) keep their fingerprints."""
        base = fingerprints(CHAIN)
        edited = fingerprints(CHAIN.replace("out = a + 1;", "out = a + 2;"))
        assert edited["inner"] != base["inner"]
        assert edited["outer"] == base["outer"]
        assert edited["main"] == base["main"]
        assert edited["orphan"] == base["orphan"]

    def test_io_flip_dirties_the_caller_chain(self):
        """Making ``inner`` perform I/O flips its signature's ``io``
        bit; the bit propagates transitively, so ``outer`` (direct
        caller) *and* ``main`` (caller of a now-I/O ``outer``) are
        dirtied — call sites thread the ``$in`` cursor differently.
        ``orphan`` never calls anyone and stays clean."""
        base = fingerprints(CHAIN)
        edited = fingerprints(CHAIN.replace("out = a + 1;", "read(out);"))
        assert edited["inner"] != base["inner"]
        assert edited["outer"] != base["outer"]
        assert edited["main"] != base["main"]
        assert edited["orphan"] == base["orphan"]

    def test_fingerprints_are_pinned(self):
        """Unit-cache entries are keyed by these digests; fig3a and
        ``examples/interprocedural/combine.sl`` keep their bytes."""
        fig3a = PAPER_PROGRAMS["fig3a"].source
        assert fingerprints(fig3a) == {
            "main": "6685c47ec1ae0c2a3b32a102c4f9864a95077baf8690455224368ef11117be39",
        }
        assert fingerprints(COMBINE) == {
            "main": "a9fc186a0daba66349af48f46babdfc98408ddf4b065e044245c7c4ad61a186c",
            "combine": "2cd8138af091938dd9e3f12e488db6e6937d60aaea3c89450768b15ee589eb4b",
        }


def lines_of(program):
    return [
        stmt.line
        for _, body in program.units()
        for top in body
        for stmt in __import__(
            "repro.lang.ast_nodes", fromlist=["walk_statements"]
        ).walk_statements(top)
    ]


def assert_same_program(left, right):
    """Structural equality through the canonical renderer plus the
    absolute line vector (pretty drops line numbers)."""
    from repro.lang.pretty import pretty

    assert pretty(left) == pretty(right)
    assert lines_of(left) == lines_of(right)


class TestSelectiveParse:
    def test_split_matches_whole_parse(self):
        spans = split_source(CHAIN)
        assert [s.kind for s in spans] == ["main", "proc", "proc", "proc"]
        assert [s.start_line for s in spans] == [1, 5, 9, 13]
        cache = UnitCache()
        assert_same_program(
            incremental_parse(CHAIN, cache), parse_program(CHAIN)
        )

    def test_block_comments_and_braces_in_comments(self):
        source = (
            "x = 1; /* { not a brace } */\n"
            "write(x);\n"
            "/* proc fake(a) { */\n"
            "proc f(a) {\n"
            "    a = a + 1; // } also not\n"
            "}\n"
        )
        cache = UnitCache()
        assert_same_program(
            incremental_parse(source, cache), parse_program(source)
        )
        assert [s.kind for s in split_source(source)] == ["main", "proc"]

    def test_edit_reparses_only_its_span(self):
        cache = UnitCache()
        incremental_parse(CHAIN, cache)
        parsed_before = cache.stats.snapshot()["spans_parsed"]
        edited = CHAIN.replace("out = a + 1;", "out = a + 2;")
        assert_same_program(
            incremental_parse(edited, cache), parse_program(edited)
        )
        stats = cache.stats.snapshot()
        assert stats["spans_parsed"] == parsed_before + 1  # inner only
        assert stats["spans_reused"] == 3  # main, outer, orphan

    def test_unsupported_layout_falls_back(self):
        # A statement after the procs: valid SL, but not the canonical
        # layout — the splitter declines and the whole source parses.
        source = "x = 1;\nproc f(a) {\n    a = 1;\n}\ny = 2;\n"
        assert split_source(source) is None
        cache = UnitCache()
        assert_same_program(
            incremental_parse(source, cache), parse_program(source)
        )

    def test_malformed_source_raises_the_canonical_error(self):
        import pytest as _pytest

        from repro.lang.errors import SlangError

        bad = "x = ;\nproc f(a) {\n    a = 1;\n}\n"
        cache = UnitCache()
        with _pytest.raises(SlangError) as inc_err:
            incremental_parse(bad, cache)
        with _pytest.raises(SlangError) as ref_err:
            parse_program(bad)
        assert str(inc_err.value) == str(ref_err.value)


class TestUnitCache:
    def analysis(self):
        return analyze_program("x = 1;\nwrite(x);\n")

    def test_lru_capacity_evicts_oldest(self):
        cache = UnitCache(capacity=2)
        a = self.analysis()
        cache.put_unit("k1", a)
        cache.put_unit("k2", a)
        cache.put_unit("k3", a)
        assert len(cache) == 2
        assert cache.get_unit("k1") is None
        assert cache.get_unit("k3") is not None

    def test_get_refreshes_recency(self):
        cache = UnitCache(capacity=2)
        a = self.analysis()
        cache.put_unit("k1", a)
        cache.put_unit("k2", a)
        cache.get_unit("k1")  # k2 is now the eviction candidate
        cache.put_unit("k3", a)
        assert cache.get_unit("k1") is not None
        assert cache.get_unit("k2") is None

    def test_stitched_per_unit_is_bounded(self):
        cache = UnitCache(capacity=4, stitched_per_unit=2)
        record = cache.put_unit("k1", self.analysis())
        for index in range(3):
            cache.put_stitched(
                "k1",
                f"assume{index}",
                StitchedUnit(
                    local=record.analysis.pdg,
                    pairs=frozenset(),
                    summary_count=0,
                ),
            )
        assert len(record.stitched) == 2
        assert cache.get_stitched("k1", "assume0") is None
        assert cache.get_stitched("k1", "assume2") is not None

    def test_put_stitched_without_unit_is_a_noop(self):
        cache = UnitCache(capacity=4)
        stitched = StitchedUnit(
            local=self.analysis().pdg, pairs=frozenset(), summary_count=0
        )
        assert cache.put_stitched("ghost", "a", stitched) is stitched
        assert cache.get_stitched("ghost", "a") is None

    def test_snapshot_carries_counters_and_sizes(self):
        cache = UnitCache(capacity=8)
        cache.stats.record("units_reused", 3)
        snapshot = cache.snapshot()
        assert snapshot["capacity"] == 8
        assert snapshot["entries"] == 0
        assert snapshot["stitched_entries"] == 0
        assert snapshot["units_reused"] == 3
        for field in IncrementalStats.FIELDS:
            assert field in snapshot

    def test_clear_drops_every_tier(self):
        cache = UnitCache(capacity=4)
        cache.put_unit("u", self.analysis())
        cache.put_span(("main", "digest", 1), object())
        cache.put_slice(("interprocedural", 3, "r", None), object())
        cache.clear()
        assert cache.get_unit("u") is None
        assert cache.get_span(("main", "digest", 1)) is None
        assert cache.get_slice(("interprocedural", 3, "r", None)) is None
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 0
        assert snapshot["span_entries"] == 0
        assert snapshot["slice_entries"] == 0


class TestKnob:
    def test_context_manager_restores_on_exit_and_error(self):
        assert incremental_enabled()
        with incremental(False):
            assert not incremental_enabled()
        assert incremental_enabled()
        with pytest.raises(RuntimeError):
            with incremental(False):
                raise RuntimeError("boom")
        assert incremental_enabled()

    def test_disabled_bypass_leaves_unit_cache_untouched(self):
        """With the knob off the analysis cache takes the monolithic
        path: no unit records, no counters — behaviour is exactly the
        pre-incremental engine's."""
        unit_cache = UnitCache()
        cache = AnalysisCache(capacity=4, unit_cache=unit_cache)
        with incremental(False):
            analysis = cache.get_or_build(CHAIN)
        assert analysis is not None
        assert len(unit_cache) == 0
        assert all(
            count == 0 for count in unit_cache.stats.snapshot().values()
        )

    def test_enabled_path_populates_unit_cache(self):
        unit_cache = UnitCache()
        cache = AnalysisCache(capacity=4, unit_cache=unit_cache)
        cache.get_or_build(CHAIN)
        assert len(unit_cache) >= 1
        stats = unit_cache.stats.snapshot()
        assert stats["programs"] == 1
        assert stats["units_built"] >= 1
