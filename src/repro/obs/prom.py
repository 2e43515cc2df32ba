"""Prometheus text exposition (version 0.0.4), derived from one stats
snapshot.

:func:`render_prometheus` turns the JSON payload of ``GET /stats``
(:meth:`repro.service.engine.SlicingEngine.stats_payload`) into the
plain-text format Prometheus scrapes at ``GET /metrics.prom``.  Because
both endpoints render the *same* snapshot structure — and a snapshot is
taken under one lock (see :mod:`repro.service.stats`) — every number in
the exposition reconciles exactly with the JSON counters; the
observability CI smoke and ``tests/integration/test_observability.py``
assert that.

:data:`FAMILIES` declares every family once: name, type, help, its
source in the snapshot, its shape, and its cluster merge rule.  The
renderer walks it, and so does
:func:`repro.service.stats.merge_stats_payloads`.

The request/latency keys of a snapshot are ``"op"`` or
``"op:algorithm"`` strings; they are split into ``op`` / ``algorithm``
labels here.  Snapshot histogram buckets are per-bucket counts;
Prometheus buckets are cumulative with an explicit ``+Inf`` bound, so
the renderer accumulates.

:func:`parse_prometheus` is the tiny inverse used by the tests and the
CI smoke to reconcile a scrape against ``/stats`` without external
dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "FAMILIES",
    "Family",
    "render_prometheus",
    "parse_prometheus",
    "PROM_CONTENT_TYPE",
]

#: The content type Prometheus expects for the text exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels(pairs: Dict[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in pairs.items()
    )
    return "{" + inner + "}"


def _split_key(key: str) -> Dict[str, str]:
    op, _, algorithm = key.partition(":")
    labels = {"op": op}
    if algorithm:
        labels["algorithm"] = algorithm
    return labels


def _format(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def head(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, labels: Dict[str, str], value: Any
    ) -> None:
        self.lines.append(f"{name}{_labels(labels)} {_format(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _histogram(
    writer: _Writer,
    name: str,
    labels: Dict[str, str],
    snapshot: Dict[str, Any],
) -> None:
    """One snapshot histogram as cumulative Prometheus buckets."""
    bounds: List[Tuple[float, str, int]] = []
    for key, count in snapshot["buckets"].items():
        bound = key[len("le_"):]
        if bound == "inf":
            bounds.append((float("inf"), "+Inf", count))
        else:
            bounds.append((float(bound), bound, count))
    bounds.sort(key=lambda item: item[0])
    cumulative = 0
    for _, text, count in bounds:
        cumulative += count
        writer.sample(
            f"{name}_bucket", {**labels, "le": text}, cumulative
        )
    writer.sample(f"{name}_sum", labels, snapshot["sum_seconds"])
    writer.sample(f"{name}_count", labels, snapshot["count"])


# Shapes: where a family's samples come from in its source.
SCALAR = "scalar"  # one value: ``source[field]``
LABELLED = "labelled"  # a ``{key: count}`` map, one series per key
HISTOGRAMS = "histograms"  # a ``{key: histogram snapshot}`` map
PER_SHARD = "per-shard"  # ``worker_stats[shard][field]`` of the cluster tier

# Cluster merge rules (see repro.service.stats.merge_stats_payloads).
SUM = "sum"  # add across workers; None (unlimited) anywhere stays None
MAX = "max"
FIRST = "first"  # configuration every worker shares
RATE = "rate"  # hits / (hits + misses) of the merged tier; declared last


@dataclass(frozen=True)
class Family:
    """One metric family: its exposition, its source in a
    ``stats_payload()`` dict, and how a cluster merges it.

    ``tier`` is the payload's top-level key (``None``: the payload
    itself) and ``field`` the key within it (``None``: the whole tier is
    the map of a ``LABELLED`` or ``HISTOGRAMS`` family; otherwise such a
    map is the tier's ``field``).  ``label`` names
    the map key's label; ``"op"`` splits an ``op:algorithm`` key in two.
    A row without a ``name`` is a ``/stats`` field with no exposition.
    ``merge`` is ``None`` where the cluster merges nothing: a view of
    another row's map, or the supervisor's own ``cluster`` tier.
    """

    name: Optional[str]
    kind: str
    help: str
    tier: Optional[str]
    field: Optional[str]
    shape: str = SCALAR
    merge: Optional[str] = SUM
    label: str = ""


def _counter(name, help_text, tier, field, **rest) -> Family:
    return Family(name, "counter", help_text, tier, field, **rest)


def _gauge(name, help_text, tier, field, **rest) -> Family:
    return Family(name, "gauge", help_text, tier, field, **rest)


def _stats_only(tier, field, merge) -> Family:
    return Family(None, "", "", tier, field, merge=merge)


#: Every metric family, in exposition order.  Adding a counter to a
#: tier is one row here: the renderer, the cluster merge and
#: :class:`repro.service.incremental.IncrementalStats` all read it.
FAMILIES: Tuple[Family, ...] = (
    _gauge("slang_uptime_seconds", "Seconds since stats started.",
           None, "uptime_seconds", merge=MAX),
    _counter("slang_requests_total", "Requests handled, by op.",
             "requests", None, shape=LABELLED, label="op"),
    _counter("slang_errors_total", "Requests that errored, by op.",
             "errors", None, shape=LABELLED, label="op"),
    _counter("slang_events_total",
             "Resilience outcomes (shed, budget-exceeded, degraded, "
             "retry...).",
             "events", None, shape=LABELLED, label="event"),
    _counter("slang_diagnostics_total",
             "Lint diagnostics emitted, by stable code.",
             "diagnostics", None, shape=LABELLED, label="code"),
    Family("slang_request_duration_seconds", "histogram",
           "Request latency, by op.",
           "latency", None, shape=HISTOGRAMS, label="op"),
    Family("slang_phase_duration_seconds", "histogram",
           "Per-phase span durations from traced requests.",
           "phases", None, shape=HISTOGRAMS, label="phase"),
    _stats_only("cache", "capacity", SUM),
    _counter("slang_cache_hits_total", "Analysis cache lookups that hit.",
             "cache", "hits"),
    _counter("slang_cache_misses_total",
             "Analysis cache lookups that missed.", "cache", "misses"),
    _counter("slang_cache_evictions_total", "Analysis cache LRU evictions.",
             "cache", "evictions"),
    _gauge("slang_cache_entries", "Analyses currently cached.",
           "cache", "entries"),
    _stats_only("cache", "hit_rate", RATE),
    _counter("slang_slice_cache_hits_total", "Slice memo lookups that hit.",
             "slice_cache", "hits"),
    _counter("slang_slice_cache_misses_total",
             "Slice memo lookups that missed.", "slice_cache", "misses"),
    _counter("slang_slice_cache_evictions_total",
             "Slice memo LRU evictions.", "slice_cache", "evictions"),
    _stats_only("slice_cache", "hit_rate", RATE),
    _counter("slang_start_set_cache_hits_total",
             "Start-set memo lookups that hit: a jump fixpoint reused "
             "from a criterion with the same conventional slice.",
             "start_set_cache", "hits"),
    _counter("slang_start_set_cache_misses_total",
             "Start-set memo lookups that missed.",
             "start_set_cache", "misses"),
    _counter("slang_start_set_cache_evictions_total",
             "Start-set memo LRU evictions.",
             "start_set_cache", "evictions"),
    _stats_only("start_set_cache", "hit_rate", RATE),
    _stats_only("incremental", "capacity", SUM),
    _counter("slang_incremental_programs_total",
             "Programs fingerprinted by the incremental path.",
             "incremental", "programs"),
    _counter("slang_incremental_spans_reused_total",
             "Source spans whose parsed AST was reused verbatim.",
             "incremental", "spans_reused"),
    _counter("slang_incremental_spans_parsed_total",
             "Source spans re-parsed because text or start line changed.",
             "incremental", "spans_parsed"),
    _counter("slang_incremental_units_reused_total",
             "Unit analyses salvaged from the unit cache.",
             "incremental", "units_reused"),
    _counter("slang_incremental_units_built_total",
             "Unit analyses built because no fingerprint matched.",
             "incremental", "units_built"),
    _counter("slang_incremental_stitched_reused_total",
             "Stitched per-unit SDG graphs reused (summary edges and "
             "closure index included).",
             "incremental", "stitched_reused"),
    _counter("slang_incremental_stitched_built_total",
             "Stitched per-unit SDG graphs rebuilt.",
             "incremental", "stitched_built"),
    _counter("slang_incremental_recursive_rebuilt_total",
             "Units rebuilt because their call-graph SCC is recursive.",
             "incremental", "recursive_rebuilt"),
    _counter("slang_incremental_slices_salvaged_total",
             "Interprocedural slice results replayed across edits.",
             "incremental", "slices_salvaged"),
    _gauge("slang_incremental_entries", "Unit analyses currently cached.",
           "incremental", "entries"),
    _gauge("slang_incremental_stitched_entries",
           "Stitched graphs currently cached.",
           "incremental", "stitched_entries"),
    _gauge("slang_incremental_span_entries",
           "Parsed source spans currently cached.",
           "incremental", "span_entries"),
    _gauge("slang_incremental_slice_entries",
           "Slice results currently held for salvage.",
           "incremental", "slice_entries"),
    # The durable store is one directory shared by every worker: its
    # byte gauge takes the max, its activity counters add.
    _stats_only("store", "root", FIRST),
    _stats_only("store", "max_bytes", FIRST),
    _counter("slang_store_hits_total", "Durable store reads that hit.",
             "store", "hits"),
    _counter("slang_store_misses_total", "Durable store reads that missed.",
             "store", "misses"),
    _counter("slang_store_puts_total", "Durable store entries written.",
             "store", "puts"),
    _counter("slang_store_evictions_total", "Durable store LRU evictions.",
             "store", "evictions"),
    _counter("slang_store_quarantined_total",
             "Corrupt durable-store entries quarantined (never served).",
             "store", "quarantined"),
    _counter("slang_store_errors_total", "Durable store filesystem errors.",
             "store", "errors"),
    _gauge("slang_store_bytes", "Approximate durable store footprint.",
           "store", "bytes", merge=MAX),
    _stats_only("store", "hit_rate", RATE),
    _gauge("slang_cluster_workers", "Configured worker count.",
           "cluster", "workers", merge=None),
    _gauge("slang_cluster_workers_alive", "Workers currently alive.",
           "cluster", "alive", merge=None),
    _counter("slang_cluster_restarts_total", "Worker restarts, by shard.",
             "cluster", "restarts", shape=PER_SHARD, merge=None),
    _counter("slang_cluster_requests_total", "Requests routed, by shard.",
             "cluster", "requests", shape=PER_SHARD, merge=None),
    _counter("slang_cluster_proxy_errors_total",
             "Requests that failed at the supervisor proxy "
             "(dead worker, connection reset).",
             "cluster", "proxy_errors", merge=None),
    _gauge("slang_inflight_requests", "Requests in flight.",
           "admission", "inflight"),
    _stats_only("admission", "max_inflight", SUM),
    _counter("slang_shed_total", "Requests shed at the admission gate.",
             "admission", "shed"),
    # Process-wide cycle-collector accounting (repro.obs.collector).
    _counter("slang_gc_collections_total",
             "Cycle-collector passes, by generation.",
             "gc", "collections", shape=LABELLED, label="generation"),
    _counter("slang_gc_pause_seconds_total",
             "Seconds spent in cycle-collector passes, by generation.",
             "gc", "pause_seconds", shape=LABELLED, label="generation"),
    _counter("slang_gc_frozen_objects_total",
             "Objects moved into the collector's permanent generation "
             "(gc.freeze).",
             "gc", "frozen_objects"),
)


def render_prometheus(payload: Dict[str, Any]) -> str:
    """Render one ``stats_payload()`` snapshot as exposition text: one
    family per :data:`FAMILIES` row whose source is present."""
    writer = _Writer()
    for family in FAMILIES:
        source = payload if family.tier is None else payload.get(family.tier)
        if family.name is None or source is None:
            continue
        name = family.name
        if family.shape in (LABELLED, HISTOGRAMS) and family.field:
            source = source.get(family.field)
            if source is None:
                continue
        if family.shape == SCALAR:
            if family.field not in source:
                continue
            writer.head(name, family.kind, family.help)
            writer.sample(name, {}, source[family.field])
            continue
        writer.head(name, family.kind, family.help)
        if family.shape == PER_SHARD:
            for shard, worker in enumerate(source.get("worker_stats", [])):
                writer.sample(
                    name, {"shard": str(shard)}, worker.get(family.field, 0)
                )
            continue
        for key, value in source.items():
            if family.label == "op":
                labels = _split_key(key)
            else:
                labels = {family.label: key}
            if family.shape == HISTOGRAMS:
                _histogram(writer, name, labels, value)
            else:
                writer.sample(name, labels, value)
    return writer.text()


def parse_prometheus(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse exposition text back into
    ``metric name -> {sorted label tuple -> value}``.

    Supports exactly what :func:`render_prometheus` emits (no exotic
    escapes beyond the three it writes); used by the tests and CI smoke
    to reconcile ``/metrics.prom`` against ``/stats``.
    """
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, rest = name_part.partition("{")
            body = rest.rstrip("}")
            labels: List[Tuple[str, str]] = []
            # Split on '","' boundaries safely: every label value is
            # quoted, and our escapes never produce a bare '",'.
            for piece in _split_labels(body):
                key, _, raw = piece.partition("=")
                value = raw[1:-1]
                value = (
                    value.replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                labels.append((key, value))
        else:
            name, labels = name_part, []
        out.setdefault(name, {})[tuple(sorted(labels))] = float(value_part)
    return out


def _split_labels(body: str) -> List[str]:
    pieces: List[str] = []
    current: List[str] = []
    in_quote = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quote = not in_quote
            current.append(char)
            continue
        if char == "," and not in_quote:
            pieces.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pieces.append("".join(current))
    return pieces
