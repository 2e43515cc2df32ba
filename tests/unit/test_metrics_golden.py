"""Golden exposition and cluster merge (``tests/golden/metrics/``).

The fixture payloads in :mod:`tools.metrics_golden` populate every
metric family; the goldens pin the engine exposition, the merged
cluster ``/stats`` JSON and its exposition byte for byte (regenerate
with ``python tools/metrics_golden.py --update``).  A live engine
payload then checks that the cluster merge keeps every family.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs.prom import render_prometheus
from repro.service.stats import merge_stats_payloads
from tools.metrics_golden import golden_path, renderings

CURRENT = renderings()


@pytest.mark.parametrize("name", sorted(CURRENT))
def test_rendering_matches_golden(name):
    with open(golden_path(name), encoding="utf-8") as handle:
        golden = handle.read()
    assert CURRENT[name] == golden, (
        f"{name} drifted; run `python tools/metrics_golden.py --update` "
        "and review the diff"
    )


def _live_payload(tmp_path):
    """A full engine ``stats_payload()``: every tier plus the store, a
    fault plan and exemplars, interprocedural slices, a lint check and
    a traced request."""
    from repro.corpus import PAPER_PROGRAMS
    from repro.service.engine import SlicingEngine
    from repro.service.store import DurableStore

    combine = (
        Path(__file__).resolve().parents[2]
        / "examples"
        / "interprocedural"
        / "combine.sl"
    ).read_text()
    entry = PAPER_PROGRAMS["fig3a"]
    line, var = entry.criterion
    requests = [
        {"op": "slice", "source": entry.source, "line": line, "var": var,
         "trace": True},
        {"op": "slice", "source": entry.source, "line": line, "var": var},
        {"op": "slice", "source": combine, "line": 5, "var": "s",
         "algorithm": "interprocedural"},
        {"op": "check", "source": entry.source},
        {"op": "slice", "source": entry.source, "line": 999, "var": var},
    ]
    from repro.service.faults import FaultPlan

    plan = FaultPlan.from_dict(
        {"rules": [{"kind": "exhaust-budget", "op": "compare", "every": 1}]}
    )
    with SlicingEngine(
        store=DurableStore(str(tmp_path), fsync=False),
        faults=plan,
        slow_trace_seconds=0,
    ) as engine:
        for request in requests:
            engine.handle_payload({"version": 1, **request})
        return engine.stats_payload()


def _families(text):
    return {
        line.split()[2] for line in text.splitlines()
        if line.startswith("# TYPE ")
    }


def test_single_worker_merge_keeps_every_family(tmp_path):
    payload = _live_payload(tmp_path)
    assert {"cache", "slice_cache", "incremental", "admission",
            "store"} <= set(payload)
    engine = _families(render_prometheus(payload))
    cluster = _families(render_prometheus(merge_stats_payloads([payload])))
    assert any(name.startswith("slang_incremental_") for name in engine)
    assert any(event.startswith("sdg-index:") for event in payload["events"])
    assert engine - cluster == set()


def test_single_worker_merge_is_the_identity_on_tiers(tmp_path):
    """Every field of every tier has a merge rule, so merging one
    worker's payload loses nothing and changes no number."""
    payload = _live_payload(tmp_path)
    merged = merge_stats_payloads([payload])
    for tier in ("uptime_seconds", "requests", "errors", "events",
                 "diagnostics", "cache", "slice_cache", "incremental",
                 "admission", "store", "faults", "exemplars"):
        assert merged[tier] == payload[tier], tier
    # The collector tier moves between two reads; its shape must not.
    assert merged["gc"].keys() == payload["gc"].keys()
    for tier in ("latency", "phases"):
        assert merged[tier].keys() == payload[tier].keys(), tier
        for key, histogram in payload[tier].items():
            assert merged[tier][key]["buckets"] == histogram["buckets"]
            assert merged[tier][key]["count"] == histogram["count"]
