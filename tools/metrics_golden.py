"""Golden-file driver for the metrics exposition and the cluster merge.

Builds fixed ``/stats`` payloads that populate every metric family —
labelled requests and errors, every ``sdg:*`` and ``sdg-index:*``
event, latency and phase histograms, all five engine tiers plus the
durable store and the collector — and pins three renderings in
``tests/golden/metrics/``:

* ``engine.prom``: :func:`render_prometheus` of one worker payload;
* ``cluster.json``: :func:`merge_stats_payloads` of two worker
  payloads plus a fixed cluster snapshot;
* ``cluster.prom``: the exposition of that merged payload.

Uptimes are pinned, so the renderings are byte-stable.  Two modes:

* ``--check`` (the default): exit 1 if any rendering drifted.
* ``--update``: rewrite the goldens from the current code.

Run from the repository root::

    PYTHONPATH=src python tools/metrics_golden.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.obs.prom import render_prometheus  # noqa: E402
from repro.service.stats import ServiceStats, merge_stats_payloads  # noqa: E402

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "golden",
    "metrics",
)


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return round(hits / total, 4) if total else 0.0


def worker_payload(shard: int) -> Dict[str, Any]:
    """One worker's ``stats_payload()``; *shard* 0 and 1 differ in
    every number and in some keys, so merges are visible."""
    scale = shard + 1
    stats = ServiceStats()
    stats.record("slice", "agrawal", 0.0004)
    stats.record("slice", "agrawal", 0.003 * scale)
    stats.record("slice", "agrawal", 0.2, error=True)
    stats.record("compare", None, 0.012)
    stats.record("slice", "interprocedural", 0.03 * scale)
    if shard == 0:
        stats.record("check", None, 7.0)
        stats.record_event("shed", 2)
    else:
        stats.record("slice", "weiser", 0.0009, error=True)
        stats.record_event("retry", 3)
    for name in (
        "sdg:procedures",
        "sdg:summary-edges",
        "sdg:pass1-visits",
        "sdg:pass2-visits",
        "sdg-index:builds",
        "sdg-index:mask-hits",
        "degraded",
        "store-hit",
    ):
        stats.record_event(name, scale * (3 + len(name) % 5))
    stats.record_diagnostics({"SL101": 2 * scale, f"SL20{shard + 3}": 1})
    stats.record_phases({"parse": 0.0007 * scale, "fig7-traversal": 0.004})
    stats.record_phase("sdg-build", 0.02 * scale)
    payload = stats.snapshot()
    payload["uptime_seconds"] = 120.5 + 60 * shard
    payload["cache"] = {
        "capacity": 64,
        "entries": 5 + shard,
        "hits": 40 * scale,
        "misses": 5 + shard,
        "evictions": shard,
        "hit_rate": _rate(40 * scale, 5 + shard),
    }
    payload["slice_cache"] = {
        "hits": 30 + shard,
        "misses": 12 * scale,
        "evictions": 2 * shard,
        "hit_rate": _rate(30 + shard, 12 * scale),
    }
    payload["start_set_cache"] = {
        "hits": 9 + shard,
        "misses": 3 * scale,
        "evictions": shard,
        "hit_rate": _rate(9 + shard, 3 * scale),
    }
    payload["incremental"] = {
        "capacity": 256,
        "entries": 7 * scale,
        "stitched_entries": 3 + shard,
        "span_entries": 9 * scale,
        "slice_entries": 2 + shard,
        "programs": 11 * scale,
        "spans_reused": 20 + shard,
        "spans_parsed": 6 * scale,
        "units_reused": 14 + shard,
        "units_built": 8 * scale,
        "stitched_reused": 5 + shard,
        "stitched_built": 4 * scale,
        "recursive_rebuilt": shard,
        "slices_salvaged": 3 * scale,
    }
    payload["admission"] = {
        "inflight": shard,
        "max_inflight": 8,
        "shed": 2 * (1 - shard),
    }
    payload["store"] = {
        "root": "slang-store",
        "max_bytes": 1048576,
        "bytes": 4096 * scale,
        "hits": 3 + shard,
        "misses": 4 * scale,
        "puts": 4 + shard,
        "evictions": shard,
        "quarantined": 1 - shard,
        "errors": shard,
        "hit_rate": _rate(3 + shard, 4 * scale),
    }
    payload["gc"] = {
        "collections": {"0": 120 * scale, "1": 11 * scale, "2": shard},
        "pause_seconds": {"0": 0.0625 * scale, "1": 0.015625, "2": 0.25 * shard},
        "frozen_objects": 50000 + 1000 * shard,
    }
    return payload


def cluster_snapshot() -> Dict[str, Any]:
    """A fixed ``ClusterSupervisor.cluster_snapshot()``."""
    workers = [
        {
            "shard": shard,
            "pid": 4100 + shard,
            "port": 9100 + shard,
            "alive": True,
            "restarts": 1 - shard,
            "requests": 7 + 5 * shard,
            "proxy_errors": 2 * shard,
            "breaker_open": False,
        }
        for shard in range(2)
    ]
    return {
        "workers": 2,
        "alive": 2,
        "restarts": 1,
        "proxy_errors": 2,
        "draining": False,
        "worker_stats": workers,
    }


def cluster_payload() -> Dict[str, Any]:
    merged = merge_stats_payloads([worker_payload(0), worker_payload(1)])
    merged["cluster"] = cluster_snapshot()
    return merged


def renderings() -> Dict[str, str]:
    """golden file name -> current rendering."""
    merged = cluster_payload()
    return {
        "engine.prom": render_prometheus(worker_payload(0)),
        "cluster.json": json.dumps(merged, indent=2, sort_keys=True) + "\n",
        "cluster.prom": render_prometheus(merged),
    }


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def update() -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in renderings().items():
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {golden_path(name)}")
    return 0


def check() -> int:
    failures = 0
    for name, text in renderings().items():
        try:
            with open(golden_path(name), encoding="utf-8") as handle:
                golden = handle.read()
        except FileNotFoundError:
            golden = None
        if golden != text:
            failures += 1
            print(f"DRIFT {name}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    args = parser.parse_args(argv)
    return update() if args.update else check()


if __name__ == "__main__":
    sys.exit(main())
