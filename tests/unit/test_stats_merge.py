"""Unit tests for :func:`repro.service.stats.merge_stats_payloads`, the
cluster ``/stats`` aggregation: one rule per kind of field."""

from __future__ import annotations

from repro.service.stats import (
    LatencyHistogram,
    ServiceStats,
    merge_stats_payloads,
)


def _worker(**tiers):
    payload = ServiceStats().snapshot()
    payload.update(tiers)
    return payload


def _store(bytes_, hits, misses, puts):
    return {
        "root": "slang-store",
        "max_bytes": 1 << 20,
        "bytes": bytes_,
        "hits": hits,
        "misses": misses,
        "puts": puts,
        "evictions": 0,
        "quarantined": 0,
        "errors": 0,
        "hit_rate": 0.0,
    }


class TestHitRates:
    def test_recomputed_from_merged_totals(self):
        # The worker rates 0.9 and 0.0333 average to ~0.47; the merged
        # rate must come from the merged totals, 10 / 40.
        first = _worker(
            cache={"capacity": 4, "entries": 1, "hits": 9, "misses": 1,
                   "evictions": 0, "hit_rate": 0.9},
            slice_cache={"hits": 1, "misses": 0, "evictions": 0,
                         "hit_rate": 1.0},
            store=_store(10, hits=3, misses=0, puts=1),
        )
        second = _worker(
            cache={"capacity": 4, "entries": 2, "hits": 1, "misses": 29,
                   "evictions": 1, "hit_rate": 0.0333},
            slice_cache={"hits": 0, "misses": 3, "evictions": 2,
                         "hit_rate": 0.0},
            store=_store(20, hits=1, misses=4, puts=2),
        )
        merged = merge_stats_payloads([first, second])
        assert merged["cache"]["hits"] == 10
        assert merged["cache"]["misses"] == 30
        assert merged["cache"]["hit_rate"] == 0.25
        assert merged["cache"]["capacity"] == 8
        assert merged["cache"]["evictions"] == 1
        assert merged["slice_cache"]["hit_rate"] == 0.25
        assert merged["store"]["hit_rate"] == 0.5

    def test_no_lookups_is_rate_zero(self):
        tier = {"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}
        merged = merge_stats_payloads([_worker(slice_cache=dict(tier))] * 2)
        assert merged["slice_cache"]["hit_rate"] == 0.0


class TestStore:
    def test_bytes_take_the_max_and_activity_adds(self):
        merged = merge_stats_payloads(
            [
                _worker(store=_store(4096, hits=1, misses=2, puts=3)),
                _worker(store=_store(1024, hits=4, misses=5, puts=6)),
            ]
        )
        store = merged["store"]
        # One shared directory: each worker's byte gauge sees it whole.
        assert store["bytes"] == 4096
        assert store["hits"] == 5
        assert store["misses"] == 7
        assert store["puts"] == 9
        assert store["root"] == "slang-store"
        assert store["max_bytes"] == 1 << 20


class TestAdmission:
    def test_limits_add(self):
        merged = merge_stats_payloads(
            [
                _worker(admission={"inflight": 1, "max_inflight": 4,
                                   "shed": 2}),
                _worker(admission={"inflight": 2, "max_inflight": 6,
                                   "shed": 0}),
            ]
        )
        assert merged["admission"] == {
            "inflight": 3, "max_inflight": 10, "shed": 2,
        }

    def test_any_unlimited_worker_makes_the_cluster_unlimited(self):
        merged = merge_stats_payloads(
            [
                _worker(admission={"inflight": 1, "max_inflight": 4,
                                   "shed": 0}),
                _worker(admission={"inflight": 0, "max_inflight": None,
                                   "shed": 1}),
            ]
        )
        assert merged["admission"]["max_inflight"] is None
        assert merged["admission"]["inflight"] == 1
        assert merged["admission"]["shed"] == 1


class TestScalarsAndMaps:
    def test_uptime_is_the_oldest_worker(self):
        first, second = _worker(), _worker()
        first["uptime_seconds"] = 12.5
        second["uptime_seconds"] = 300.25
        assert merge_stats_payloads([first, second])["uptime_seconds"] == 300.25
        assert merge_stats_payloads([second, first])["uptime_seconds"] == 300.25

    def test_counter_maps_add_and_sort(self):
        first, second = ServiceStats(), ServiceStats()
        first.record("slice", "agrawal", 0.001)
        first.record_event("shed", 2)
        second.record("slice", "agrawal", 0.001, error=True)
        second.record("compare", None, 0.001)
        second.record_event("degraded")
        second.record_diagnostics({"SL101": 3})
        merged = merge_stats_payloads([first.snapshot(), second.snapshot()])
        assert merged["requests"] == {"compare": 1, "slice:agrawal": 2}
        assert list(merged["requests"]) == ["compare", "slice:agrawal"]
        assert merged["errors"] == {"slice:agrawal": 1}
        assert merged["events"] == {"degraded": 1, "shed": 2}
        assert merged["diagnostics"] == {"SL101": 3}

    def test_absent_tiers_stay_absent(self):
        merged = merge_stats_payloads([_worker()])
        for tier in ("cache", "slice_cache", "admission", "store"):
            assert tier not in merged
        assert merge_stats_payloads([])["uptime_seconds"] == 0.0

    def test_non_dict_payloads_are_skipped(self):
        merged = merge_stats_payloads([None, "oops", _worker()])
        assert merged["requests"] == {}


class TestHistograms:
    def test_merge_bucket_by_bucket(self):
        samples = ([0.0004, 0.003, 7.0], [0.003, 0.2, 0.0009])
        payloads = []
        for chunk in samples:
            stats = ServiceStats()
            for seconds in chunk:
                stats.record("slice", "agrawal", seconds)
                stats.record_phase("parse", seconds / 2)
            payloads.append(stats.snapshot())
        merged = merge_stats_payloads(payloads)

        # The merged histogram is the one that saw every sample.
        whole = LatencyHistogram()
        for seconds in samples[0] + samples[1]:
            whole.observe(seconds)
        expected = whole.snapshot()
        latency = merged["latency"]["slice:agrawal"]
        assert latency["buckets"] == expected["buckets"]
        assert latency["count"] == expected["count"] == 6
        assert latency["sum_seconds"] == expected["sum_seconds"]
        assert latency["max_seconds"] == expected["max_seconds"] == 7.0
        assert latency["mean_seconds"] == expected["mean_seconds"]
        assert merged["phases"]["parse"]["count"] == 6
        assert sum(merged["phases"]["parse"]["buckets"].values()) == 6


class TestFaultsAndExemplars:
    """``faults`` and ``exemplars`` are lists, not table rows: each has a
    merge rule of its own."""

    @staticmethod
    def _engine_payload():
        from repro.corpus import PAPER_PROGRAMS
        from repro.service.engine import SlicingEngine
        from repro.service.faults import FaultPlan

        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        plan = FaultPlan.from_dict(
            {"rules": [{"kind": "exhaust-budget", "op": "slice", "every": 1}]}
        )
        with SlicingEngine(faults=plan, slow_trace_seconds=0) as engine:
            engine.handle_payload(
                {"version": 1, "op": "slice", "source": entry.source,
                 "line": line, "var": var}
            )
            return engine.stats_payload()

    def test_one_worker_keeps_both(self):
        payload = self._engine_payload()
        assert payload["faults"]["rules"][0]["fired"] == 1
        assert payload["exemplars"]
        merged = merge_stats_payloads([payload])
        assert merged["faults"] == payload["faults"]
        assert merged["exemplars"] == payload["exemplars"]

    def test_rule_counts_add(self):
        def plan(seen, fired):
            return {"seed": 7, "rules": [
                {"kind": "exhaust-budget", "op": "slice",
                 "algorithm": None, "seen": seen, "fired": fired},
                {"kind": "raise", "op": None, "algorithm": "weiser",
                 "seen": 2 * seen, "fired": 0},
            ]}

        merged = merge_stats_payloads(
            [_worker(faults=plan(3, 1)), _worker(), _worker(faults=plan(5, 2))]
        )
        assert merged["faults"] == {"seed": 7, "rules": [
            {"kind": "exhaust-budget", "op": "slice", "algorithm": None,
             "seen": 8, "fired": 3},
            {"kind": "raise", "op": None, "algorithm": "weiser",
             "seen": 16, "fired": 0},
        ]}

    def test_newest_exemplars_win(self):
        from repro.service.stats import MAX_EXEMPLARS

        def ring(times):
            return [{"op": "slice", "finished_at": at} for at in times]

        first = _worker(exemplars=ring(range(0, 2 * MAX_EXEMPLARS, 2)))
        second = _worker(exemplars=ring(range(1, 2 * MAX_EXEMPLARS, 2)))
        merged = merge_stats_payloads([first, second])
        assert [e["finished_at"] for e in merged["exemplars"]] == list(
            range(MAX_EXEMPLARS, 2 * MAX_EXEMPLARS)
        )

    def test_absent_when_no_worker_reports_them(self):
        merged = merge_stats_payloads([_worker(), _worker()])
        assert "faults" not in merged
        assert "exemplars" not in merged
