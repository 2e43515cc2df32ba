"""The invariant the heap freeze rests on, and the collector's metrics.

:meth:`repro.service.cache.AnalysisCache.put` freezes the heap
(``gc.freeze``) whenever a new analysis is cached.  That is sound only if
the service creates no cyclic garbage: a frozen cycle is never examined
again, so it would leak.  These tests check that

* no steady-state cold request of the benchmark's ``http-mix`` size
  leaves a single object that only the collector could free, through
  ``SlicingEngine.handle_payload`` and through the HTTP server with
  scrapes (``gc.collect()`` under ``DEBUG_SAVEALL`` returns 0);
* with the freeze on, the tracked heap (``gc.get_objects()`` plus the
  permanent generation) plateaus instead of growing with traffic;
* a whole cache that goes out of scope is freed by reference counting;
* ``/stats`` and ``/metrics.prom`` report the collector's passes,
  pauses and frozen objects, and agree.

The served scenarios run side by side, each in a fresh interpreter
(:mod:`tests.integration.collector_probe`): they switch the collector
off and freeze the heap, which must not reach the test process.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import subprocess
import sys

import pytest

from repro.obs.prom import parse_prometheus, render_prometheus
from repro.service.cache import AnalysisCache
from repro.service.engine import SlicingEngine
from repro.service.incremental import UnitCache
from tests.integration import collector_probe

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture(scope="module")
def probes():
    """All three scenarios, started at once (each a fresh interpreter, so
    they run side by side); each test waits for its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    running = {
        scenario: subprocess.Popen(
            [sys.executable, "-m", "tests.integration.collector_probe",
             scenario],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for scenario in collector_probe.SCENARIOS
    }

    def result(scenario: str) -> dict:
        out, err = running[scenario].communicate(timeout=300)
        assert running[scenario].returncode == 0, err[-2000:]
        return json.loads(out.strip().splitlines()[-1])

    yield result
    for process in running.values():
        if process.poll() is None:
            process.kill()
            process.communicate()


@pytest.mark.parametrize("scenario", ["engine", "http"])
def test_no_cyclic_garbage(probes, scenario):
    result = probes(scenario)
    assert result["found"] == 0, result["kinds"]


def test_frozen_heap_plateaus(probes):
    """With the freeze on, the tracked heap after 3K steady-state cold
    requests is within 10% of the heap after K: evicted entries are
    freed by reference counting even though they were frozen."""
    result = probes("plateau")
    after_k, after_3k = result["after_k"], result["after_3k"]
    assert abs(after_3k - after_k) <= 0.1 * after_k, result


@pytest.fixture(scope="module")
def cold_requests():
    return collector_probe.cold_requests(9)


def test_dropped_cache_is_freed_by_refcount(cold_requests, monkeypatch):
    """A whole cache, unit cache included, that goes out of scope leaves
    nothing for the collector: the served analysis points at its unit
    cache, so the unit cache must hold shells, not the analysis."""
    cache = AnalysisCache(
        capacity=4, unit_cache=UnitCache(capacity=8, slice_capacity=4)
    )
    monkeypatch.setattr(gc, "freeze", lambda: None)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for request in cold_requests[::2]:
            analysis = cache.get_or_build(request["source"])
            analysis.pdg.backward_closure([analysis.cfg.exit_id])
        del cache, analysis
        found = gc.collect()
        kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, kinds.most_common(12)


class TestCollectorMetrics:
    def test_passes_and_frozen_objects_reach_stats_and_prometheus(
        self, cold_requests
    ):
        with collector_probe.engine() as engine:
            before = engine.stats_payload()["gc"]
            collector_probe.check_served(
                engine.handle_payload(cold_requests[0])
            )
            gc.collect(0)
            after = engine.stats_payload()
            analysis = engine.cache.get_or_build(cold_requests[0]["source"])
        tier = after["gc"]
        assert set(tier) == {"collections", "pause_seconds", "frozen_objects"}
        assert list(tier["collections"]) == ["0", "1", "2"]
        assert tier["collections"]["0"] > before["collections"]["0"]
        assert tier["pause_seconds"]["0"] >= before["pause_seconds"]["0"]
        # The new cache entry froze at least its own CFG nodes.
        assert (
            tier["frozen_objects"] - before["frozen_objects"]
            >= len(analysis.cfg.nodes)
        )
        metrics = parse_prometheus(render_prometheus(after))
        for generation, count in tier["collections"].items():
            labels = (("generation", generation),)
            assert metrics["slang_gc_collections_total"][labels] == count
            assert (
                metrics["slang_gc_pause_seconds_total"][labels]
                == tier["pause_seconds"][generation]
            )
        assert metrics["slang_gc_frozen_objects_total"][()] == tier[
            "frozen_objects"
        ]

    def test_one_hook_per_process(self):
        from repro.obs import collector

        with SlicingEngine(workers=1), SlicingEngine(workers=1):
            assert gc.callbacks.count(collector._on_collect) == 1
