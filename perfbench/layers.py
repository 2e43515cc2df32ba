"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: :func:`install` wraps the public
functions of each layer at run time, in every loaded ``repro`` module
that holds a reference to them, so calls made through ``from x import
f`` names are timed too.  Each wrapper records its span's inclusive
time and its *self* time (inclusive minus the time of wrapped calls made
inside it), so the layers' self times add up to the time the spans
cover without counting nested work twice.  Spans are kept per thread
(the HTTP server runs each request on its own thread).

:func:`layer_metrics` turns the totals, plus the engine's own counters,
into the ``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span key, defining module, function name) for module-level functions.
FUNCTIONS = (
    ("lang.parse", "repro.lang.parser", "parse_program"),
    ("cfg.build", "repro.cfg.builder", "build_cfg"),
    (
        "analysis.postdominance",
        "repro.analysis.postdominance",
        "build_postdominator_tree",
    ),
    ("analysis.lst", "repro.analysis.lexical", "build_lst"),
    (
        "analysis.control_dependence",
        "repro.analysis.control_dependence",
        "compute_control_dependence",
    ),
    (
        "analysis.reaching_defs",
        "repro.analysis.reaching_defs",
        "compute_reaching_definitions",
    ),
    (
        "analysis.data_dependence",
        "repro.analysis.defuse",
        "compute_data_dependence",
    ),
    ("pdg.build", "repro.pdg.builder", "build_pdg"),
    ("pdg.augmented", "repro.cfg.augmented", "build_augmented_cfg"),
    ("pdg.augmented", "repro.pdg.builder", "build_augmented_pdg"),
    ("sdg.build", "repro.sdg.builder", "sdg_for_analysis"),
    ("sdg.index_build", "repro.sdg.closure", "ensure_sdg_index"),
    (
        "service.incremental.parse",
        "repro.service.incremental",
        "incremental_parse",
    ),
    (
        "service.incremental.fingerprint",
        "repro.service.incremental",
        "unit_fingerprints",
    ),
    (
        "service.incremental.analyze",
        "repro.service.incremental",
        "incremental_analyze",
    ),
    (
        "service.incremental.analyze",
        "repro.service.incremental",
        "build_sdg_incremental",
    ),
    ("service.protocol.decode", "repro.service.protocol", "request_from_dict"),
    (
        "service.protocol.encode",
        "repro.service.protocol",
        "slice_result_payload",
    ),
    ("service.protocol.encode", "repro.service.protocol", "dump_json"),
    ("obs.prom.render", "repro.obs.prom", "render_prometheus"),
)

#: (span key, module, class, method) for methods.
METHODS = (
    (
        "pdg.closure_index",
        "repro.pdg.graph",
        "ProgramDependenceGraph",
        "ensure_closure_index",
    ),
    ("service.cache.lookup", "repro.service.cache", "AnalysisCache", "get_or_build"),
    ("service.engine.handle", "repro.service.engine", "SlicingEngine", "handle"),
    ("service.client.round_trip", "repro.service.client", "ServiceClient", "post"),
    ("service.client.round_trip", "repro.service.client", "ServiceClient", "get"),
)

#: Spans whose self time is reported as ``<key>_ms`` per operation.
TIMED = (
    ("lang.parse_ms", ("lang.parse",)),
    ("cfg.build_ms", ("cfg.build",)),
    ("analysis.postdominance_ms", ("analysis.postdominance",)),
    ("analysis.lst_ms", ("analysis.lst",)),
    ("analysis.control_dependence_ms", ("analysis.control_dependence",)),
    ("analysis.reaching_defs_ms", ("analysis.reaching_defs",)),
    ("analysis.data_dependence_ms", ("analysis.data_dependence",)),
    ("pdg.build_ms", ("pdg.build",)),
    ("pdg.augmented_ms", ("pdg.augmented",)),
    ("pdg.closure_index_ms", ("pdg.closure_index",)),
    ("slicing.slice_ms", ("slicing.slice",)),
    ("sdg.build_ms", ("sdg.build",)),
    ("sdg.index_build_ms", ("sdg.index_build",)),
    ("sdg.slice_ms", ("sdg.slice",)),
    ("service.cache.lookup_ms", ("service.cache.lookup",)),
    ("service.incremental.parse_ms", ("service.incremental.parse",)),
    ("service.incremental.fingerprint_ms", ("service.incremental.fingerprint",)),
    ("service.incremental.analyze_ms", ("service.incremental.analyze",)),
    ("service.protocol.decode_ms", ("service.protocol.decode",)),
    ("service.protocol.encode_ms", ("service.protocol.encode",)),
    ("service.engine.handle_ms", ("service.engine.handle",)),
    ("obs.prom.render_ms", ("obs.prom.render",)),
)


class Recorder:
    """Span totals for one process: self and inclusive seconds, call
    counts, and the work counters the wrappers observe."""

    def __init__(self) -> None:
        #: Spans are recorded only while this is true; the benchmark
        #: clears it around input generation and checking.
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        #: id -> weakref of every SDG already counted (SDGs are
        #: unhashable dataclasses, so no WeakSet).
        self._seen_sdgs: Dict[int, Any] = {}
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.incl_s: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, float] = defaultdict(float)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        key: str,
        fn: Callable,
        observe: Optional[Callable[["Recorder", Any, tuple], None]] = None,
    ) -> Callable:
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_s[key] += elapsed - children
                    self.incl_s[key] += elapsed
                    self.calls[key] += 1
            if observe is not None:
                observe(self, result, args)
            return result

        return wrapper

    def totals(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def _observe_parse(recorder: Recorder, result, args) -> None:
    if args and isinstance(args[0], str):
        recorder.count("parse_bytes", len(args[0]))


def _observe_cfg(recorder: Recorder, result, args) -> None:
    recorder.count("cfg_nodes", len(result.nodes))


def _observe_sdg(recorder: Recorder, sdg, args) -> None:
    # sdg_for_analysis memoizes: count each SDG's summary edges once.
    seen = recorder._seen_sdgs
    known = seen.get(id(sdg))
    if known is not None and known() is sdg:
        return
    seen[id(sdg)] = weakref.ref(sdg)
    recorder.count("summary_edges", sdg.summary_edges)


def _observe_slice(recorder: Recorder, result, args) -> None:
    recorder.count("slices")
    recorder.count("traversals", result.traversals)
    sdg_result = getattr(result, "sdg_result", None)
    if sdg_result is not None and sdg_result.sdg.program.procs:
        recorder.count("sdg_slices")
        recorder.count("sdg_index_served", bool(sdg_result.index_used))


def _observe_response(recorder: Recorder, text, args) -> None:
    recorder.count("response_bytes", len(text))


#: Function name -> work counter read off each call's result.
OBSERVERS = {
    "parse_program": _observe_parse,
    "build_cfg": _observe_cfg,
    "sdg_for_analysis": _observe_sdg,
    "dump_json": _observe_response,
}


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(
    recorder: Recorder, prefixes: Tuple[str, ...] = ("",)
) -> Callable[[], None]:
    """Wrap the public functions of every layer whose span key starts
    with one of *prefixes*; returns a function that unwraps them all."""
    # Import everything first so each module's imported names exist to
    # be rebound; lazy in-function imports then resolve to the defining
    # module's (wrapped) attribute.
    for module in (
        "repro.cli",
        "repro.service.server",
        "repro.service.client",
        "repro.service.engine",
        "repro.slicing.registry",
    ):
        importlib.import_module(module)
    undo: List[Callable[[], None]] = []
    for key, module_name, name in FUNCTIONS:
        if not key.startswith(prefixes):
            continue
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        wrapped = recorder.wrap(key, original, OBSERVERS.get(name))
        _replace_everywhere(original, wrapped)
        undo.append(functools.partial(_replace_everywhere, wrapped, original))
    for key, module_name, class_name, name in METHODS:
        if not key.startswith(prefixes):
            continue
        klass = getattr(importlib.import_module(module_name), class_name)
        original = klass.__dict__[name]
        setattr(klass, name, recorder.wrap(key, original))
        undo.append(functools.partial(setattr, klass, name, original))
    # get_algorithm(...) hands out the registry's table entries.
    registry = importlib.import_module("repro.slicing.registry")
    for name, slicer in list(registry.ALGORITHMS.items()):
        key = "sdg.slice" if name == "interprocedural" else "slicing.slice"
        if not key.startswith(prefixes):
            continue
        registry.ALGORITHMS[name] = recorder.wrap(key, slicer, _observe_slice)
        undo.append(
            functools.partial(registry.ALGORITHMS.__setitem__, name, slicer)
        )

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    ops: int,
    op_seconds: float,
    caller_span_seconds: float,
    stats_delta: Dict[str, float],
    trace_overhead_pct: float,
    server_handle_seconds: Optional[float] = None,
) -> Dict[str, float]:
    """The per-layer metric values for one traced run.

    ``totals`` are the (merged) span totals of every process doing the
    work; ``caller_span_seconds`` is the span time recorded in the
    process that times operations, so ``unattributed_ms`` is the share
    of operation time no span there covers.  ``stats_delta`` holds the
    engine counters accumulated over the timed operations.
    """
    self_s = totals["self_s"]
    incl_s = totals["incl_s"]
    calls = totals["calls"]
    counts = totals["counts"]
    per_op = 1000.0 / ops
    out: Dict[str, float] = {}
    for metric, keys in TIMED:
        out[metric] = sum(self_s.get(key, 0.0) for key in keys) * per_op
    out["lang.bytes_per_op"] = counts.get("parse_bytes", 0.0) / ops
    out["cfg.nodes_per_op"] = counts.get("cfg_nodes", 0.0) / ops
    out["slicing.traversals_per_slice"] = _ratio(
        counts.get("traversals", 0.0), counts.get("slices", 0.0)
    )
    out["sdg.summary_edges_per_op"] = counts.get("summary_edges", 0.0) / ops
    out["sdg.index_mask_hit_ratio"] = _ratio(
        counts.get("sdg_index_served", 0.0), counts.get("sdg_slices", 0.0)
    )
    out["service.cache.analysis_hit_ratio"] = _ratio(
        stats_delta.get("cache_hits", 0.0),
        stats_delta.get("cache_hits", 0.0) + stats_delta.get("cache_misses", 0.0),
    )
    out["service.cache.slice_memo_hit_ratio"] = _ratio(
        stats_delta.get("memo_hits", 0.0),
        stats_delta.get("memo_hits", 0.0) + stats_delta.get("memo_misses", 0.0),
    )
    out["service.incremental.unit_reuse_ratio"] = _ratio(
        stats_delta.get("units_reused", 0.0),
        stats_delta.get("units_reused", 0.0) + stats_delta.get("units_built", 0.0),
    )
    out["service.incremental.slice_salvage_ratio"] = _ratio(
        stats_delta.get("slices_salvaged", 0.0), calls.get("sdg.slice", 0)
    )
    out["service.protocol.response_bytes"] = (
        counts.get("response_bytes", 0.0) / ops
    )
    round_trip = incl_s.get("service.client.round_trip", 0.0)
    out["service.server.round_trip_ms"] = round_trip * per_op
    out["service.server.overhead_ms"] = (
        (round_trip - (server_handle_seconds or 0.0)) * per_op
        if round_trip
        else 0.0
    )
    out["service.client.retries"] = stats_delta.get("client_retries", 0.0)
    out["unattributed_ms"] = (op_seconds - caller_span_seconds) * per_op
    out["trace_overhead_pct"] = trace_overhead_pct
    return out


def engine_counters(stats_payload: Dict[str, Any]) -> Dict[str, float]:
    """The engine counters the ratios need, from ``stats_payload()``."""
    cache = stats_payload.get("cache", {})
    memo = stats_payload.get("slice_cache", {})
    incremental = stats_payload.get("incremental", {})
    return {
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "memo_hits": memo.get("hits", 0),
        "memo_misses": memo.get("misses", 0),
        "units_reused": incremental.get("units_reused", 0),
        "units_built": incremental.get("units_built", 0),
        "slices_salvaged": incremental.get("slices_salvaged", 0),
    }


def counter_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}
