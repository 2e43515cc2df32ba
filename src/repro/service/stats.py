"""Observability counters for the slicing service.

Everything here is stdlib-only and cheap enough to sit on the hot path:
per-(op, algorithm) request/error counts, a fixed-bucket latency
histogram, and per-phase histograms fed by traced requests.  A snapshot
is a plain JSON-ready dict, exposed at ``GET /stats``, rendered as
Prometheus text at ``GET /metrics.prom``, and printed by ``slang batch
--stats``.

Consistency contract (audited by ``tests/unit/test_service_stats.py``):
:meth:`ServiceStats.snapshot` holds the one internal lock across the
*entire* snapshot, and :meth:`ServiceStats.record` performs its
counter increment and histogram observation under one acquisition of
the same lock — so a snapshot taken while writers spin can never tear
(``requests[key]`` always equals ``latency[key].count``, and a
histogram's bucket counts always sum to its ``count``).  The
``/metrics.prom`` exposition is rendered from one such snapshot, which
is what makes it reconcile exactly with ``/stats``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.prom import FAMILIES, HISTOGRAMS, MAX, RATE, SCALAR, SUM

#: How many slow-request exemplar traces an engine retains, and a
#: cluster merge keeps (newest win).
MAX_EXEMPLARS = 8

#: Upper bucket bounds in seconds (the last bucket is +inf).
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


class LatencyHistogram:
    """A fixed-boundary latency histogram (Prometheus-style, no deps).

    Not locked on its own — the owning :class:`ServiceStats` serialises
    access; standalone users in a single thread need no lock either.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += 1
        self.sum += seconds
        if seconds > self.max:
            self.max = seconds

    def snapshot(self) -> Dict[str, Any]:
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(self.bounds, self.counts)
        }
        buckets["le_inf"] = self.counts[-1]
        mean = self.sum / self.total if self.total else 0.0
        return {
            "count": self.total,
            "sum_seconds": round(self.sum, 6),
            "mean_seconds": round(mean, 6),
            "max_seconds": round(self.max, 6),
            "buckets": buckets,
        }


class ServiceStats:
    """Thread-safe request accounting for the engine and server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._latency: Dict[str, LatencyHistogram] = {}
        self._diagnostics: Dict[str, int] = {}
        self._events: Dict[str, int] = {}
        self._phases: Dict[str, LatencyHistogram] = {}

    @staticmethod
    def _key(op: str, algorithm: Optional[str]) -> str:
        return f"{op}:{algorithm}" if algorithm else op

    def record(
        self,
        op: str,
        algorithm: Optional[str],
        seconds: float,
        error: bool = False,
    ) -> None:
        key = self._key(op, algorithm)
        with self._lock:
            self._requests[key] = self._requests.get(key, 0) + 1
            if error:
                self._errors[key] = self._errors.get(key, 0) + 1
            histogram = self._latency.get(key)
            if histogram is None:
                histogram = self._latency[key] = LatencyHistogram()
            histogram.observe(seconds)

    def record_diagnostics(self, counts: Dict[str, int]) -> None:
        """Accumulate per-rule diagnostic counts from one ``check``
        (keyed by stable code, e.g. ``SL101``); surfaced under the
        ``diagnostics`` key of :meth:`snapshot`."""
        with self._lock:
            for code, count in counts.items():
                self._diagnostics[code] = (
                    self._diagnostics.get(code, 0) + count
                )

    def record_phase(self, phase: str, seconds: float) -> None:
        """Observe one pipeline-phase duration (``parse``,
        ``postdominance``, ``fig7-traversal``, …), harvested from a
        traced request's span tree; surfaced under the ``phases`` key of
        :meth:`snapshot` and as ``slang_phase_duration_seconds`` in the
        Prometheus exposition."""
        with self._lock:
            histogram = self._phases.get(phase)
            if histogram is None:
                histogram = self._phases[phase] = LatencyHistogram()
            histogram.observe(seconds)

    def record_phases(self, totals: Dict[str, float]) -> None:
        """Observe a whole request's phase totals under one lock
        acquisition (one observation per phase)."""
        with self._lock:
            for phase, seconds in totals.items():
                histogram = self._phases.get(phase)
                if histogram is None:
                    histogram = self._phases[phase] = LatencyHistogram()
                histogram.observe(seconds)

    def record_event(self, name: str, count: int = 1) -> None:
        """Count one resilience outcome (``shed``, ``budget-exceeded``,
        ``degraded``, ``retry``, ``retry:recovered``, …) — the counters
        the fault-injection suite reconciles against responses."""
        with self._lock:
            self._events[name] = self._events.get(name, 0) + count

    def event_count(self, name: str) -> int:
        with self._lock:
            return self._events.get(name, 0)

    def time(self, op: str, algorithm: Optional[str] = None):
        """Context manager that records one request's latency."""
        return _Timer(self, op, algorithm)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "uptime_seconds": round(time.time() - self._started, 3),
                "requests": dict(sorted(self._requests.items())),
                "errors": dict(sorted(self._errors.items())),
                "events": dict(sorted(self._events.items())),
                "diagnostics": dict(sorted(self._diagnostics.items())),
                "latency": {
                    key: histogram.snapshot()
                    for key, histogram in sorted(self._latency.items())
                },
                "phases": {
                    phase: histogram.snapshot()
                    for phase, histogram in sorted(self._phases.items())
                },
            }


def _merge_histogram_snapshots(
    into: Dict[str, Any], snapshot: Dict[str, Any]
) -> None:
    """Fold one :meth:`LatencyHistogram.snapshot` dict into *into*.

    Counts, sums, and per-bucket counts add; ``max_seconds`` maxes; the
    mean is recomputed — so the merged histogram is exactly what one
    histogram observing every sample would have produced (bucket
    boundaries are identical across workers by construction).
    """
    into["count"] = into.get("count", 0) + snapshot.get("count", 0)
    into["sum_seconds"] = round(
        into.get("sum_seconds", 0.0) + snapshot.get("sum_seconds", 0.0), 6
    )
    into["max_seconds"] = round(
        max(into.get("max_seconds", 0.0), snapshot.get("max_seconds", 0.0)),
        6,
    )
    buckets = into.setdefault("buckets", {})
    for bound, count in (snapshot.get("buckets") or {}).items():
        buckets[bound] = buckets.get(bound, 0) + count
    count = into["count"]
    into["mean_seconds"] = (
        round(into["sum_seconds"] / count, 6) if count else 0.0
    )


def _merge_maps(shape: str, maps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Add ``{key: count}`` maps (or histogram snapshots) key by key."""
    combined: Dict[str, Any] = {}
    for source in maps:
        for key, value in source.items():
            if shape == HISTOGRAMS:
                _merge_histogram_snapshots(combined.setdefault(key, {}), value)
            else:
                total = combined.get(key, 0) + value
                combined[key] = (
                    round(total, 6) if isinstance(total, float) else total
                )
    return dict(sorted(combined.items()))


def _merge_faults(snapshots: List[Any]) -> Optional[Dict[str, Any]]:
    """Fold the workers' fault-plan snapshots: every worker runs the
    same plan, so rules match by position and their ``seen``/``fired``
    counts add.  ``None`` when no worker reports a plan."""
    snapshots = [snapshot for snapshot in snapshots if isinstance(snapshot, dict)]
    if not snapshots:
        return None
    rules: Dict[Any, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for position, rule in enumerate(snapshot.get("rules") or []):
            key = (position, rule["kind"], rule["op"], rule["algorithm"])
            into = rules.get(key)
            if into is None:
                rules[key] = dict(rule)
            else:
                into["seen"] += rule["seen"]
                into["fired"] += rule["fired"]
    return {"seed": snapshots[0].get("seed"), "rules": list(rules.values())}


def _combine(rule: str, values: List[Any]) -> Any:
    if rule == SUM:
        # None is an unlimited bound (``max_inflight``): it absorbs.
        return None if None in values else sum(values)
    if rule == MAX:
        return max(values, default=0.0)
    return values[0]  # FIRST


def merge_stats_payloads(
    payloads: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Aggregate per-worker ``/stats`` payloads into one cluster view.

    Every field merges by its :data:`repro.obs.prom.FAMILIES` rule:
    counter maps and histogram snapshots add key by key; tier fields
    sum, max (``uptime_seconds``, the shared store's ``bytes``) or take
    the first worker's value; hit rates are recomputed from the merged
    totals.  A tier no worker reports stays absent.  Two keys have rules
    of their own: ``faults`` adds per-rule counts, and ``exemplars``
    keeps the newest :data:`MAX_EXEMPLARS` span trees of all workers.
    """
    payloads = [payload for payload in payloads if isinstance(payload, dict)]
    merged: Dict[str, Any] = {}
    for family in FAMILIES:
        rule, tier, field = family.merge, family.tier, family.field
        if rule is None:
            continue
        if tier is None:
            values = [payload[field] for payload in payloads if field in payload]
            merged[field] = _combine(rule, values)
        elif field is None:
            merged[tier] = _merge_maps(
                family.shape, [payload.get(tier) or {} for payload in payloads]
            )
        else:
            tiers = [
                payload[tier]
                for payload in payloads
                if isinstance(payload.get(tier), dict)
            ]
            if not tiers:
                continue
            out = merged.setdefault(tier, {})
            if rule == RATE:
                hits, misses = out.get("hits", 0), out.get("misses", 0)
                total = hits + misses
                out[field] = round(hits / total, 4) if total else 0.0
                continue
            if family.shape != SCALAR:
                out[field] = _merge_maps(
                    family.shape, [stats.get(field) or {} for stats in tiers]
                )
                continue
            values = [stats[field] for stats in tiers if field in stats]
            if values:
                out[field] = _combine(rule, values)
    faults = _merge_faults([payload.get("faults") for payload in payloads])
    if faults is not None:
        merged["faults"] = faults
    if any("exemplars" in payload for payload in payloads):
        exemplars = [
            exemplar
            for payload in payloads
            for exemplar in payload.get("exemplars") or []
        ]
        exemplars.sort(key=lambda exemplar: exemplar.get("finished_at", 0.0))
        merged["exemplars"] = exemplars[-MAX_EXEMPLARS:]
    return merged


class _Timer:
    def __init__(
        self, stats: ServiceStats, op: str, algorithm: Optional[str]
    ) -> None:
        self._stats = stats
        self._op = op
        self._algorithm = algorithm

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self._stats.record(
            self._op, self._algorithm, elapsed, error=exc_type is not None
        )
