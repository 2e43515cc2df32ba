"""Unit tests for the content-addressed analysis cache."""

import threading

from repro.corpus import PAPER_PROGRAMS
from repro.service.cache import AnalysisCache, analysis_key

FIG3A = PAPER_PROGRAMS["fig3a"].source
FIG5A = PAPER_PROGRAMS["fig5a"].source
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


class TestContentAddressing:
    def test_same_source_same_key(self):
        assert analysis_key(FIG3A) == analysis_key(FIG3A)

    def test_different_source_different_key(self):
        assert analysis_key(FIG3A) != analysis_key(FIG5A)

    def test_keys_are_pinned(self):
        """Durable-store keys derive from these digests: a change to the
        key's bytes orphans every stored payload."""
        assert analysis_key(FIG3A) == (
            "b993a713882a9ef311500187992a16c39f0ed3f59793d5739b4d2d5471b6f2d0"
        )
        assert analysis_key(COMBINE) == (
            "9f921ae5b978b537a53e1091b61ce63b9eed60afaec43a5adc9d35e0f0fdfcb9"
        )


class TestHitsAndMisses:
    def test_second_build_is_a_hit_returning_the_same_object(self):
        cache = AnalysisCache(capacity=4)
        first = cache.get_or_build(FIG3A)
        second = cache.get_or_build(FIG3A)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_stats_shape(self):
        cache = AnalysisCache(capacity=4)
        cache.get_or_build(FIG3A)
        cache.get_or_build(FIG3A)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["hit_rate"] == 0.5

    def test_zero_capacity_disables_caching(self):
        cache = AnalysisCache(capacity=0)
        first = cache.get_or_build(FIG3A)
        second = cache.get_or_build(FIG3A)
        assert first is not second
        assert len(cache) == 0


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        cache = AnalysisCache(capacity=2)
        fig10a = PAPER_PROGRAMS["fig10a"].source
        cache.get_or_build(FIG3A)
        cache.get_or_build(FIG5A)
        cache.get_or_build(FIG3A)  # refresh fig3a; fig5a is now LRU
        cache.get_or_build(fig10a)  # evicts fig5a
        assert cache.evictions == 1
        assert cache.get(analysis_key(FIG5A)) is None
        assert cache.get(analysis_key(FIG3A)) is not None

    def test_clear(self):
        cache = AnalysisCache(capacity=2)
        cache.get_or_build(FIG3A)
        cache.clear()
        assert len(cache) == 0


class TestPrewarm:
    def test_prewarm_freezes_lazy_fields(self, monkeypatch):
        """The augmented graphs are not built with the analysis: only
        the Ball–Horwitz family reads them.  Threads racing on a shared
        analysis's first use build each of them exactly once."""
        import time

        import repro.pdg.builder as builder

        builds = {"cfg": 0, "pdg": 0}

        def counting(kind, build):
            def wrapper(*args, **kwargs):
                builds[kind] += 1
                time.sleep(0.02)  # widen the race window
                return build(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            builder, "build_augmented_cfg",
            counting("cfg", builder.build_augmented_cfg),
        )
        monkeypatch.setattr(
            builder, "build_augmented_pdg",
            counting("pdg", builder.build_augmented_pdg),
        )
        cache = AnalysisCache(capacity=2)
        analysis = cache.get_or_build(FIG3A)
        assert analysis._augmented_cfg is None
        assert analysis._augmented_pdg is None
        assert analysis.reaching is not None
        barrier = threading.Barrier(6)
        seen = []

        def first_use():
            barrier.wait()
            seen.append((analysis.augmented_cfg, analysis.augmented_pdg))

        threads = [threading.Thread(target=first_use) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(seen) == 6
        assert builds == {"cfg": 1, "pdg": 1}
        assert len({(id(cfg), id(pdg)) for cfg, pdg in seen}) == 1


class TestThreadSafety:
    def test_concurrent_get_or_build_yields_one_winner(self):
        cache = AnalysisCache(capacity=8)
        results = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            results.append(cache.get_or_build(FIG3A))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 1
        winner = cache.get(analysis_key(FIG3A))
        # Racing builders may each have built, but every *cached* lookup
        # from here on serves one object.
        assert winner is not None
        assert cache.get(analysis_key(FIG3A)) is winner


# ----------------------------------------------------------------------
# Slice-level memoization (SliceCacheStats / SliceMemo / engine wiring)
# ----------------------------------------------------------------------

from repro.service.cache import SliceCacheStats, SliceMemo  # noqa: E402


class TestSliceCacheStats:
    def test_counters_and_hit_rate(self):
        stats = SliceCacheStats()
        stats.record(hit=False)
        stats.record(hit=True)
        stats.record(hit=True)
        stats.record_eviction()
        snapshot = stats.stats()
        assert snapshot == {
            "hits": 2,
            "misses": 1,
            "evictions": 1,
            "hit_rate": round(2 / 3, 4),
        }

    def test_empty_hit_rate_is_zero(self):
        assert SliceCacheStats().stats()["hit_rate"] == 0.0

    def test_reset(self):
        stats = SliceCacheStats()
        stats.record(hit=True)
        stats.record_eviction()
        stats.reset()
        assert stats.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }


class TestSliceMemo:
    KEY = ("agrawal", 5, "x")

    def test_miss_then_hit_same_object(self):
        stats = SliceCacheStats()
        memo = SliceMemo(4, stats)
        assert memo.get(self.KEY) is None
        sentinel = object()
        memo.put(self.KEY, sentinel)
        assert memo.get(self.KEY) is sentinel
        assert stats.stats()["hits"] == 1
        assert stats.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        stats = SliceCacheStats()
        memo = SliceMemo(2, stats)
        a, b, c = ("a", 1, "x"), ("b", 2, "y"), ("c", 3, "z")
        memo.put(a, "A")
        memo.put(b, "B")
        memo.get(a)  # refresh a; b is now LRU
        memo.put(c, "C")  # evicts b
        assert memo.get(b) is None
        assert memo.get(a) == "A"
        assert memo.get(c) == "C"
        assert stats.stats()["evictions"] == 1
        assert len(memo) == 2

    def test_zero_capacity_stores_nothing(self):
        memo = SliceMemo(0)
        memo.put(self.KEY, "value")
        assert memo.get(self.KEY) is None
        assert len(memo) == 0

    def test_works_without_shared_stats(self):
        memo = SliceMemo(2)
        memo.put(self.KEY, "value")
        assert memo.get(self.KEY) == "value"


class TestEngineSliceMemoWiring:
    def test_repeat_slice_is_a_hit_returning_the_same_result(self):
        from repro.service.engine import SlicingEngine

        with SlicingEngine(workers=1) as engine:
            analysis = engine.analysis_for(FIG3A)
            criterion = analysis.cfg.statement_nodes()[-1]
            line = criterion.line
            var = sorted(criterion.uses | criterion.defs)[0]
            first = engine.slice_cached(analysis, line, var, "agrawal")
            second = engine.slice_cached(analysis, line, var, "agrawal")
            assert first is second
            snapshot = engine.slice_cache_stats.stats()
            assert snapshot["hits"] == 1
            assert snapshot["misses"] == 1
            payload = engine.stats_payload()
            assert payload["slice_cache"]["hits"] == 1

    def test_memo_is_per_analysis_and_per_algorithm(self):
        from repro.service.engine import SlicingEngine

        with SlicingEngine(workers=1) as engine:
            analysis = engine.analysis_for(FIG3A)
            node = analysis.cfg.statement_nodes()[-1]
            var = sorted(node.uses | node.defs)[0]
            a = engine.slice_cached(analysis, node.line, var, "agrawal")
            b = engine.slice_cached(analysis, node.line, var, "weiser")
            assert a is not b
            assert engine.slice_cache_stats.stats()["misses"] == 2

    def test_slice_cache_counters_reach_prometheus(self):
        from repro.obs.prom import parse_prometheus, render_prometheus
        from repro.service.engine import SlicingEngine

        with SlicingEngine(workers=1) as engine:
            analysis = engine.analysis_for(FIG3A)
            node = analysis.cfg.statement_nodes()[-1]
            var = sorted(node.uses | node.defs)[0]
            engine.slice_cached(analysis, node.line, var, "agrawal")
            engine.slice_cached(analysis, node.line, var, "agrawal")
            metrics = parse_prometheus(
                render_prometheus(engine.stats_payload())
            )
        assert metrics["slang_slice_cache_hits_total"][()] == 1.0
        assert metrics["slang_slice_cache_misses_total"][()] == 1.0
        assert metrics["slang_slice_cache_evictions_total"][()] == 0.0
