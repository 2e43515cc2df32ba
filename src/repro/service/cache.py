"""Content-addressed, LRU-bounded cache of :class:`ProgramAnalysis`.

Every slicing request needs the same criterion-independent artefacts —
CFG, postdominator tree, lexical successor tree, control and data
dependence, PDG — and building them dwarfs the cost of one slice query.
The cache keys a program by the SHA-256 of its source text, so identical
programs submitted by different clients share one
:class:`ProgramAnalysis`.  The service always analyses with the default
front-end options; :func:`repro.pdg.builder.analyze_program` remains the
entry point for the others.

Whole-program misses go through the incremental front end
(:mod:`repro.service.incremental`).  ``incremental(False)`` makes them
build cold instead; the differential tests and the benchmarks use it to
reach the reference, and :meth:`AnalysisCache.get_or_build` is the only
place that reads it.

Thread safety: all bookkeeping happens under one lock; the analysis
build itself runs *outside* the lock so a slow build never blocks cache
hits for other programs.  Two threads racing to build the same program
may both build it — the first to finish wins, the loser's artefact is
dropped — which keeps the fast path lock-light without double-counting
evictions.  The cached artefacts themselves are safe to share because
``ProgramAnalysis`` is immutable after construction (see DESIGN.md §7);
its lazy fields are built on first use: the Ball–Horwitz augmented
graphs under a per-analysis lock, and the PDG's closure index by the
first slice that reads it (interprocedural slicing never does), with a
single assignment so a racing reader sees nothing or the whole index.

Each entry holds an analysis and that analysis's two memos — slice
results by criterion, and jump-fixpoint bodies by start set — and no
part of an entry points back at it, so an evicted entry is freed by
reference counting alone.  That is what lets :meth:`AnalysisCache.put`
move the whole heap into the collector's permanent generation
(``gc.freeze``) when a new entry arrives: the served heap is never
walked again by a collection pass, and nothing frozen can leak
(DESIGN.md §17).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import collector
from repro.obs.tracer import trace_event, trace_span
from repro.pdg.builder import ProgramAnalysis, analyze_program
from repro.service.incremental import (
    UnitCache,
    incremental_analyze,
    incremental_enabled,
)


#: Every content address starts with these bytes.  ``1|1|iterative``
#: records the analysis options the service always uses (fused
#: conditional gotos, chained IO, iterative dominators); it stays so that
#: durable-store keys keep their bytes.
_KEY_HEADER = b"v1|1|1|iterative|"


def analysis_key(source: str) -> str:
    """The content address of one analysis: a hash of the source."""
    digest = hashlib.sha256(_KEY_HEADER)
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


class _Entry:
    """One cached analysis, its slice memo and its start-set memo (each
    created on first use)."""

    __slots__ = ("analysis", "memo", "bodies")

    def __init__(self, analysis: ProgramAnalysis) -> None:
        self.analysis = analysis
        self.memo: Optional["SliceMemo"] = None
        self.bodies: Optional["SliceMemo"] = None


class AnalysisCache:
    """An LRU map ``content address -> ProgramAnalysis``.

    Parameters
    ----------
    capacity:
        Maximum number of cached analyses; the least recently used entry
        is evicted when a new program would exceed it.  ``capacity <= 0``
        disables caching (every request rebuilds).
    unit_cache:
        The per-procedure :class:`~repro.service.incremental.UnitCache`
        behind the whole-program entries; a default-sized one is
        created when omitted.  On a whole-program miss (the source hash
        changed), the build path salvages every unit whose content
        fingerprint still matches — so an edit to one procedure reuses
        the other units' CFG/PDT/LST/PDG/closure-index wholesale.
        Consulted only while :func:`incremental_enabled` is true.
    """

    def __init__(
        self,
        capacity: int = 128,
        unit_cache: Optional[UnitCache] = None,
    ) -> None:
        self.capacity = capacity
        self.unit_cache = unit_cache if unit_cache is not None else UnitCache()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[ProgramAnalysis]:
        """Look up a content address, updating recency and counters."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.analysis

    def peek(self, key: str) -> Optional[ProgramAnalysis]:
        """Like :meth:`get` but silent: no recency bump, no counters.

        The engine's two-tier read path uses this to decide whether the
        memory tier *would* hit before paying for a disk probe, without
        double-counting the lookup that follows.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry.analysis if entry is not None else None

    def put(self, key: str, analysis: ProgramAnalysis) -> ProgramAnalysis:
        """Insert (or adopt the existing winner of a build race).

        A new entry freezes the heap (``gc.freeze`` through
        :func:`repro.obs.collector.freeze`): the analysis just built, and
        everything older, leaves the collector's view.
        Sound only because entries are acyclic — a frozen object that
        becomes unreachable is still freed by its reference count."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing.analysis
            if self.capacity <= 0:
                return analysis
            self._entries[key] = _Entry(analysis)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        collector.freeze()
        return analysis

    def slice_memo(
        self, analysis: ProgramAnalysis, make: Callable[[], "SliceMemo"]
    ) -> "SliceMemo":
        """The slice memo of *analysis*'s entry, made by *make* on first
        use.  An analysis that is not (or no longer) the cached one for
        its key gets a fresh memo that nothing keeps."""
        return self._entry_memo(analysis, "memo", make)

    def start_set_memo(
        self, analysis: ProgramAnalysis, make: Callable[[], "SliceMemo"]
    ) -> "SliceMemo":
        """The start-set memo of *analysis*'s entry: jump-fixpoint
        bodies keyed ``(algorithm, conventional base)``, under the same
        rules as :meth:`slice_memo` (DESIGN.md §11)."""
        return self._entry_memo(analysis, "bodies", make)

    def _entry_memo(
        self, analysis: ProgramAnalysis, slot: str,
        make: Callable[[], "SliceMemo"],
    ) -> "SliceMemo":
        with self._lock:
            entry = self._entries.get(analysis._content_key)
            if entry is None or entry.analysis is not analysis:
                return make()
            memo = getattr(entry, slot)
            if memo is None:
                memo = make()
                setattr(entry, slot, memo)
            return memo

    def get_or_build(
        self, source: str, max_nodes: Optional[int] = None
    ) -> ProgramAnalysis:
        """The main entry point: return the cached analysis of *source*,
        building (and caching) it on a miss.

        ``max_nodes`` enforces a per-request CFG-node cap: an analysis
        over the cap raises
        :class:`~repro.service.resilience.BudgetExceededError` *after*
        being cached (the artefact is valid — a later request with a
        looser budget may use it; only this request refuses to slice
        it).  Cache hits are re-checked too: caps are per request, not
        per program.
        """
        key = analysis_key(source)
        with trace_span("cache-lookup") as span:
            analysis = self.get(key)
            span.set(hit=analysis is not None)
        if analysis is None:
            if incremental_enabled():
                analysis = incremental_analyze(source, self.unit_cache)
            else:
                analysis = analyze_program(source)
            analysis._content_key = key
            analysis = self.put(key, analysis)
        if max_nodes is not None and len(analysis.cfg.nodes) > max_nodes:
            from repro.service.resilience import BudgetExceededError

            trace_event(
                "budget-exceeded",
                reason="nodes",
                phase="analysis-cache",
                nodes=len(analysis.cfg.nodes),
            )
            raise BudgetExceededError(
                f"program has {len(analysis.cfg.nodes)} CFG nodes, over "
                f"the {max_nodes}-node cap",
                reason="nodes",
                phase="analysis-cache",
            )
        return analysis

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> Dict[str, int]:
        """Counters snapshot for ``/stats`` and ``slang batch --stats``."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }


class SliceCacheStats:
    """Engine-wide counters aggregated over every per-analysis
    :class:`SliceMemo` of one tier (one engine, many programs, one hit
    rate).  The engine keeps one for the slice memo and one for the
    start-set memo."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def record(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def record_eviction(self) -> None:
        with self._lock:
            self.evictions += 1

    def reset(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }


class SliceMemo:
    """A bounded LRU of slice results for **one** ``ProgramAnalysis``.

    Keyed by ``(algorithm, line, var, proc)``: the analysis itself pins
    the program source (it is content-addressed by :func:`analysis_key`),
    and criterion resolution is deterministic, so those four values
    determine the slice completely.  Soundness rests
    on ``ProgramAnalysis`` being immutable after construction (DESIGN.md
    §7) — a memoized :class:`~repro.slicing.common.SliceResult` is the
    byte-identical answer a recomputation would produce.

    Stored values are the ``SliceResult`` objects, not encoded payloads:
    results are never mutated by callers, while payload dicts could be.
    Degraded (budget-downgraded) results must never be stored — the
    engine only calls :meth:`put` on the successful exact path.

    The start-set memo is the same class one level down: keyed
    ``(algorithm, conventional base)``, it stores the criterion-free
    :class:`~repro.slicing.common.SliceBody` of a
    :class:`~repro.slicing.common.StartSetSlicer`, under the same rules.

    Lifetime: the memo hangs off the analysis's :class:`AnalysisCache`
    entry (:meth:`AnalysisCache.slice_memo`), so evicting the analysis
    drops its memo with it, and an entry serves its memo only to the
    very analysis object it holds, so a rebuilt or recycled analysis
    can never alias another's slices.  The memo's results point at the
    analysis, but nothing points from the analysis back at the memo, so
    the entry stays acyclic.  Counters live in a shared
    :class:`SliceCacheStats`.
    """

    def __init__(
        self, capacity: int, stats: Optional[SliceCacheStats] = None
    ) -> None:
        self.capacity = capacity
        self._stats = stats
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Tuple[Any, ...]) -> Optional[Any]:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
        if self._stats is not None:
            self._stats.record(hit=result is not None)
        return result

    def put(self, key: Tuple[Any, ...], result: Any) -> None:
        if self.capacity <= 0:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if self._stats is not None:
            for _ in range(evicted):
                self._stats.record_eviction()
