"""The worker-pool slicing engine.

The engine is the service's single entry point: every surface (HTTP
handler, ``slang batch``, library callers) hands it protocol requests
and gets protocol envelopes back.  It owns the content-addressed
:class:`AnalysisCache` — so the expensive, criterion-independent
analyses are built once per program — and a ``ThreadPoolExecutor`` that
fans batches of criteria out over those shared analyses.

Every algorithm reachable through :mod:`repro.slicing.registry` is
servable.  Structured-only algorithms (Figs. 12/13) are rejected up
front on programs with unstructured jumps, with a structured
``slice-error`` payload pointing the client at ``GET /algorithms`` for
capability discovery.

The module-level ``perform_*`` builders are the single-threaded cores;
the CLI's ``--json`` mode calls them directly so its output is
byte-identical to the server's.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.lexical import is_structured_program
from repro.lang.errors import SlangError, SliceError
from repro.metrics import output_criteria, slice_based_metrics
from repro.obs import collector
from repro.obs.tracer import (
    Tracer,
    phase_totals,
    span_tree,
    trace_event,
    trace_span,
    use_tracer,
)
from repro.pdg.builder import ProgramAnalysis
from repro.service.cache import (
    AnalysisCache,
    SliceCacheStats,
    SliceMemo,
    analysis_key,
)
from repro.service.store import DurableStore, payload_store_key
from repro.lint.rules import run_lint
from repro.service.faults import FaultPlan, InjectedFaultError
from repro.service.protocol import (
    CheckRequest,
    CompareRequest,
    GraphRequest,
    MetricsRequest,
    ProtocolError,
    ServiceRequest,
    SliceRequest,
    error_envelope,
    error_payload,
    ok_envelope,
    request_from_dict,
    slice_result_payload,
)
from repro.service.resilience import (
    AdmissionGate,
    Budget,
    BudgetExceededError,
    EngineLimits,
    OverloadedError,
    RetryPolicy,
    current_budget,
    use_budget,
)
from repro.service.stats import MAX_EXEMPLARS, ServiceStats
from repro.slicing.common import SliceResult, StartSetSlicer
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import (
    CORRECT_STRUCTURED,
    algorithm_names,
    get_algorithm,
)
from repro.viz.dot import render_all

#: ``graph`` request ``kind`` → :func:`render_all` key.
GRAPH_KINDS = {
    "cfg": "flowgraph",
    "pdt": "postdominator-tree",
    "cdg": "control-dependence",
    "lst": "lexical-successor-tree",
    "ddg": "data-dependence",
    "pdg": "pdg",
}


def check_algorithm_capability(
    analysis: ProgramAnalysis, algorithm: str
) -> None:
    """Reject structured-only algorithms on unstructured programs.

    Raises :class:`SliceError` (mapped to a structured ``slice-error``
    payload) instead of letting Fig. 12/13 preconditions surface as a
    mid-slice traceback; clients can avoid the round trip by checking
    ``GET /algorithms`` first.
    """
    get_algorithm(algorithm)  # raises ValueError for unknown names
    if analysis.program.procs and algorithm != "interprocedural":
        raise SliceError(
            f"algorithm {algorithm!r} sees one procedure at a time and "
            "this program declares procedures; only 'interprocedural' "
            "slices across calls (see /algorithms for capabilities)"
        )
    if algorithm in CORRECT_STRUCTURED and not is_structured_program(
        analysis.cfg, analysis.lst
    ):
        raise SliceError(
            f"algorithm {algorithm!r} is structured-only and this "
            "program contains unstructured jumps; use a correct-general "
            "algorithm (see /algorithms for capabilities)"
        )


def perform_slice(
    analysis: ProgramAnalysis,
    line: int,
    var: str,
    algorithm: str,
    proc: Optional[str] = None,
) -> Dict[str, Any]:
    """One slice as a protocol result payload (shared by CLI and server)."""
    check_algorithm_capability(analysis, algorithm)
    slicer = get_algorithm(algorithm)
    result = slicer(analysis, SlicingCriterion(line=line, var=var, proc=proc))
    return slice_result_payload(result)


def perform_compare(
    analysis: ProgramAnalysis, line: int, var: str
) -> Dict[str, Any]:
    """Every algorithm on one criterion; refusals become inline error
    rows rather than failing the whole request."""
    criterion = SlicingCriterion(line=line, var=var)
    rows: List[Dict[str, Any]] = []
    for name in algorithm_names():
        try:
            check_algorithm_capability(analysis, name)
            result = get_algorithm(name)(analysis, criterion)
        except SlangError as error:
            rows.append(
                {"name": name, "ok": False, "error": error_payload(error)}
            )
            continue
        rows.append(
            {"name": name, "ok": True, "slice": slice_result_payload(result)}
        )
    return {
        "criterion": {"line": line, "var": var},
        "algorithms": rows,
    }


def perform_check(
    source: str,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Lint one program as a protocol result payload.

    Shared verbatim by ``slang check --format json`` and ``POST
    /check`` so the two are byte-identical.  Takes raw *source* (not an
    analysis): the linter must report on programs the analysis cache
    refuses — syntax errors become SL001 diagnostics, and SL107
    programs have no postdominator tree.
    """
    return run_lint(source, select=select, ignore=ignore).payload()


def perform_graph(analysis: ProgramAnalysis, kind: str) -> Dict[str, Any]:
    if kind not in GRAPH_KINDS:
        raise ProtocolError(
            f"unknown graph kind {kind!r}; known: "
            f"{', '.join(sorted(GRAPH_KINDS))}"
        )
    graphs = render_all(analysis)
    return {"kind": kind, "dot": graphs[GRAPH_KINDS[kind]]}


def enumerate_criteria(
    analysis: ProgramAnalysis, mode: str = "outputs"
) -> List[SlicingCriterion]:
    """The criterion families bulk jobs iterate over.

    ``outputs`` — one criterion per ``write(<var>)`` statement (the
    Ott–Thuss family used by :mod:`repro.metrics`); ``all`` — every
    (line, var) pair where the statement at that line uses or defines
    the variable.
    """
    if mode == "outputs":
        return output_criteria(analysis)
    if mode == "all":
        seen = set()
        criteria = []
        for node in analysis.cfg.statement_nodes():
            for var in sorted(node.uses | node.defs):
                key = (node.line, var)
                if key not in seen:
                    seen.add(key)
                    criteria.append(SlicingCriterion(line=node.line, var=var))
        return criteria
    raise ValueError(f"unknown criterion mode {mode!r}; use outputs|all")


class SlicingEngine:
    """Cache + worker pool + stats, behind one ``handle`` method.

    Parameters
    ----------
    cache:
        The shared :class:`AnalysisCache`; a 128-entry cache is created
        when omitted.
    workers:
        Thread-pool width for batch fan-out (default: executor default).
    stats:
        A :class:`ServiceStats` sink; created when omitted.
    limits:
        The :class:`EngineLimits` resilience policy (budgets, admission,
        degradation); defaults to unlimited-everything, which behaves
        exactly like the pre-resilience engine.
    faults:
        An optional :class:`FaultPlan`, consulted once per admitted
        request (deterministic fault injection for the test suite).
    store:
        An optional :class:`~repro.service.store.DurableStore` — the
        disk tier behind the in-memory caches.  Slice requests whose
        program is *not* in the analysis cache consult it before paying
        for an analysis build; every freshly computed exact slice is
        written back, so a restarted engine (or a sibling worker
        sharing the root) answers its warm set without re-analysing.
    slow_trace_seconds:
        When set, *every* request runs under a tracer and requests whose
        wall time reaches the threshold leave an exemplar span tree
        behind (:meth:`exemplars`, bounded ring) — so the one slow
        request in a thousand can be explained after the fact.  ``None``
        (the default) traces only requests that ask (``trace: true``).
    """

    #: How many slow-request exemplar traces are retained (newest win).
    MAX_EXEMPLARS = MAX_EXEMPLARS

    #: Bound of each per-analysis slice memo (entries, LRU).  ``all``-
    #: mode criterion families on big generated programs run a few
    #: hundred criteria, so this holds a whole family per algorithm
    #: pair without letting a hostile client grow memory unboundedly.
    SLICE_MEMO_CAPACITY = 512

    def __init__(
        self,
        cache: Optional[AnalysisCache] = None,
        workers: Optional[int] = None,
        stats: Optional[ServiceStats] = None,
        limits: Optional[EngineLimits] = None,
        faults: Optional[FaultPlan] = None,
        store: Optional[DurableStore] = None,
        slow_trace_seconds: Optional[float] = None,
    ) -> None:
        self.cache = cache if cache is not None else AnalysisCache()
        self.stats = stats if stats is not None else ServiceStats()
        self.limits = limits if limits is not None else EngineLimits()
        self.faults = faults
        self.store = store
        self._draining = threading.Event()
        self.gate = AdmissionGate(
            max_inflight=self.limits.max_inflight,
            retry_after=self.limits.retry_after_seconds,
        )
        self.slow_trace_seconds = slow_trace_seconds
        self._exemplars: List[Dict[str, Any]] = []
        self._exemplar_lock = threading.Lock()
        self.slice_cache_stats = SliceCacheStats()
        self.start_set_stats = SliceCacheStats()
        collector.install()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="slang-worker"
        )

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def begin_drain(self) -> None:
        """Enter graceful drain: ``/readyz`` flips to 503 and the HTTP
        surface refuses new work, while requests already admitted run to
        completion.  Idempotent; there is no way back — a draining
        process exits."""
        if not self._draining.is_set():
            self._draining.set()
            self.stats.record_event("drain-begin")
            trace_event("drain-begin")

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def __enter__(self) -> "SlicingEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request handling ---------------------------------------------

    def analysis_for(self, source: str) -> ProgramAnalysis:
        """Cached analysis of *source*, enforcing the current budget's
        CFG-node cap when one is installed."""
        budget = current_budget()
        return self.cache.get_or_build(
            source,
            max_nodes=budget.max_nodes if budget is not None else None,
        )

    def _new_memo(self) -> SliceMemo:
        return SliceMemo(self.SLICE_MEMO_CAPACITY, self.slice_cache_stats)

    def _new_start_set_memo(self) -> SliceMemo:
        return SliceMemo(self.SLICE_MEMO_CAPACITY, self.start_set_stats)

    def _memo_for(self, analysis: ProgramAnalysis) -> SliceMemo:
        """The per-analysis slice memo, kept on the analysis's cache
        entry (see :class:`SliceMemo` for the lifetime/soundness
        argument); the engine only supplies the capacity and the shared
        counters."""
        return self.cache.slice_memo(analysis, self._new_memo)

    def slice_cached(
        self,
        analysis: ProgramAnalysis,
        line: int,
        var: str,
        algorithm: str,
        proc: Optional[str] = None,
    ):
        """One slice through the per-analysis memos.

        Only successful exact slices are stored: an algorithm that
        raises (refusal, budget exhaustion) caches nothing, and the
        degraded path in :meth:`_degrade` never comes through here — a
        budget-shaped answer must not be replayed to a request with a
        different budget.
        """
        key = (algorithm, line, var, proc)
        memo = self._memo_for(analysis)
        with trace_span("slice-cache-lookup") as span:
            result = memo.get(key)
            span.set(hit=result is not None)
        if result is None:
            result = self._slice_exact(
                analysis, algorithm,
                SlicingCriterion(line=line, var=var, proc=proc),
            )
            memo.put(key, result)
            self._record_sdg_stats(result)
            self._store_result(analysis, line, var, algorithm, proc, result)
        return result

    def _slice_exact(
        self,
        analysis: ProgramAnalysis,
        algorithm: str,
        criterion: SlicingCriterion,
    ) -> SliceResult:
        """Run one registry algorithm.  A start-set slicer runs its
        prepare step, then takes its finish step's body from the
        per-analysis start-set memo, keyed by the conventional base:
        criteria with one base share one jump fixpoint (DESIGN.md §11).
        """
        slicer = get_algorithm(algorithm)
        if not isinstance(slicer, StartSetSlicer):
            return slicer(analysis, criterion)
        resolved, base = slicer.prepare(analysis, criterion)
        bodies = self.cache.start_set_memo(
            analysis, self._new_start_set_memo
        )
        key = (algorithm, base)
        body = bodies.get(key)
        if body is None:
            body = slicer.finish(analysis, base)
            bodies.put(key, body)
        else:
            trace_event("start-set-hit", algorithm=algorithm)
        return SliceResult.of_body(slicer.algorithm, resolved, analysis, body)

    def _store_result(
        self,
        analysis: ProgramAnalysis,
        line: int,
        var: str,
        algorithm: str,
        proc: Optional[str],
        result: Any,
    ) -> None:
        """Write one freshly computed exact slice to the disk tier.

        Only this path stores: memo hits would be redundant, refusals
        and budget errors raise before reaching it, and degraded results
        never come through :meth:`slice_cached` at all — so the store
        holds exact answers only.  The wrapper records the program's CFG
        size so a later disk hit can honor a ``max_nodes`` cap without
        rebuilding the analysis it exists to skip.
        """
        if self.store is None or analysis._content_key is None:
            return
        self.store.put_json(
            payload_store_key(
                analysis._content_key, algorithm, line, var, proc
            ),
            {
                "cfg_nodes": len(analysis.cfg.nodes),
                "payload": slice_result_payload(result),
            },
        )

    def _slice_from_store(
        self, request: SliceRequest
    ) -> Optional[Dict[str, Any]]:
        """The disk tier of the two-tier read path, or ``None``.

        Consulted only when the memory tier would miss (so a warm
        in-process memo stays the fast path) and only when the stored
        wrapper proves the program fits the current budget's node cap —
        otherwise the caller falls through to the analysis path, which
        enforces the cap the usual way.
        """
        if self.store is None:
            return None
        akey = analysis_key(request.source)
        if self.cache.peek(akey) is not None:
            return None
        skey = payload_store_key(
            akey, request.algorithm, request.line, request.var, request.proc
        )
        wrapper = self.store.get_json(skey)
        if not isinstance(wrapper, dict):
            return None
        payload = wrapper.get("payload")
        nodes = wrapper.get("cfg_nodes")
        if not isinstance(payload, dict) or not isinstance(nodes, int):
            return None
        budget = current_budget()
        if (
            budget is not None
            and budget.max_nodes is not None
            and nodes > budget.max_nodes
        ):
            return None
        self.stats.record_event("store-hit")
        return payload

    def _record_sdg_stats(self, result) -> None:
        """Accumulate the ``sdg:*`` work counters from one freshly
        computed interprocedural slice (memo hits repeat no work, so
        they count nothing)."""
        sdg_result = getattr(result, "sdg_result", None)
        if sdg_result is None:
            return
        self.stats.record_event("sdg:procedures", len(sdg_result.sdg.procs))
        self.stats.record_event(
            "sdg:summary-edges", sdg_result.sdg.summary_edges
        )
        self.stats.record_event("sdg:pass1-visits", sdg_result.pass1_visits)
        self.stats.record_event("sdg:pass2-visits", sdg_result.pass2_visits)
        # Whole-SDG closure-index lifecycle (repro.sdg.closure).  Slice
        # replays carry no index events, and the prewarm path reports
        # its own, so each build/skip/lookup is counted once.
        for name, count in sdg_result.index_events.items():
            self.stats.record_event(name, count)

    def handle(self, request: ServiceRequest) -> Dict[str, Any]:
        """Execute one parsed request, returning a response envelope.

        Never raises: analysis and protocol failures become structured
        ``{"ok": false, "error": ...}`` envelopes.  The request runs
        under the full resilience pipeline — admission (shed with
        ``overloaded`` when over the in-flight limit), source-size
        limits, a per-request :class:`Budget` installed for every
        analysis loop, fault injection when configured, and sound
        degradation of over-budget exact slices to Fig. 13.
        """
        algorithm = getattr(request, "algorithm", None)
        try:
            with self.gate.admit():
                return self._handle_admitted(request, algorithm)
        except OverloadedError as error:
            self.stats.record_event("shed")
            return error_envelope(request.op, error, request.id)

    def _handle_admitted(
        self, request: ServiceRequest, algorithm: Optional[str]
    ) -> Dict[str, Any]:
        """Run one admitted request, under a tracer when asked.

        A tracer is created when the request carries ``trace: true`` or
        the engine has a slow-trace threshold; otherwise every
        ``trace_span`` below is a shared no-op and the request runs
        exactly as before the observability layer existed.  Tracers are
        request-scoped like budgets — worker threads start with an
        empty context, so one never leaks across requests.
        """
        traced = (
            getattr(request, "trace", False)
            or self.slow_trace_seconds is not None
        )
        if not traced:
            return self._execute(request, algorithm)
        tracer = Tracer()
        start = time.perf_counter()
        with use_tracer(tracer):
            with tracer.span(
                request.op, **({"algorithm": algorithm} if algorithm else {})
            ):
                envelope = self._execute(request, algorithm)
        elapsed = time.perf_counter() - start
        self.stats.record_phases(
            {
                phase: seconds
                for phase, (_, seconds) in phase_totals(tracer).items()
            }
        )
        tree = span_tree(tracer)
        if getattr(request, "trace", False):
            envelope["trace"] = tree
        if (
            self.slow_trace_seconds is not None
            and elapsed >= self.slow_trace_seconds
        ):
            exemplar = {
                "op": request.op,
                "id": request.id,
                "finished_at": round(time.time(), 6),
                "seconds": round(elapsed, 6),
                "ok": bool(envelope.get("ok")),
                "trace": tree,
            }
            with self._exemplar_lock:
                self._exemplars.append(exemplar)
                del self._exemplars[: -self.MAX_EXEMPLARS]
        return envelope

    def _execute(
        self, request: ServiceRequest, algorithm: Optional[str]
    ) -> Dict[str, Any]:
        try:
            with trace_span("admission"):
                source = getattr(request, "source", None)
                if source is not None:
                    self.limits.admit_source(source)
                budget = self.limits.budget_for(
                    getattr(request, "budget", None)
                )
            with use_budget(budget):
                with self.stats.time(request.op, algorithm):
                    try:
                        if self.faults is not None:
                            self.faults.apply(
                                request.op, algorithm, budget, engine=self
                            )
                        with trace_span("dispatch"):
                            result = self._dispatch(request)
                    except BudgetExceededError as error:
                        self.stats.record_event("budget-exceeded")
                        # Raises the original error when degradation is
                        # off, inapplicable, or itself over budget.
                        with trace_span(
                            "degrade", reason=error.reason, phase=error.phase
                        ):
                            result = self._degrade(request, error)
                        self.stats.record_event("degraded")
                        trace_event("degraded", reason=error.reason)
        except InjectedFaultError as error:
            self.stats.record_event("fault-injected")
            trace_event("fault-injected")
            with trace_span("response-encode"):
                return error_envelope(request.op, error, request.id)
        except (SlangError, ValueError) as error:
            with trace_span("response-encode"):
                return error_envelope(request.op, error, request.id)
        with trace_span("response-encode"):
            return ok_envelope(request.op, result, request.id)

    def _dispatch(self, request: ServiceRequest) -> Dict[str, Any]:
        if isinstance(request, SliceRequest):
            stored = self._slice_from_store(request)
            if stored is not None:
                return stored
            analysis = self.analysis_for(request.source)
            check_algorithm_capability(analysis, request.algorithm)
            result = self.slice_cached(
                analysis,
                request.line,
                request.var,
                request.algorithm,
                proc=request.proc,
            )
            return slice_result_payload(result)
        if isinstance(request, CompareRequest):
            return perform_compare(
                self.analysis_for(request.source),
                request.line,
                request.var,
            )
        if isinstance(request, GraphRequest):
            return perform_graph(
                self.analysis_for(request.source), request.kind
            )
        if isinstance(request, MetricsRequest):
            return self._perform_metrics(request)
        if isinstance(request, CheckRequest):
            result = perform_check(
                request.source, request.select, request.ignore
            )
            self.stats.record_diagnostics(result["counts"])
            return result
        # pragma: no cover — request_from_dict prevents this
        raise ValueError(f"unhandled request type {request!r}")

    def _degrade(
        self, request: ServiceRequest, error: BudgetExceededError
    ) -> Dict[str, Any]:
        """Soundly downgrade an over-budget exact slice to Fig. 13.

        The paper's conservative on-the-fly algorithm "may be larger
        but is never wrong" on structured programs, and it performs
        zero traversal rounds — so it completes under the very
        iteration cap that stopped Fig. 7, within the request's
        remaining wall clock.  The result is independently audited by
        the SL20x slice verifier before it is returned; any violation
        (or a Fig. 13 refusal — unstructured program, dead code) falls
        back to re-raising the original ``budget-exceeded`` error.
        """
        if self.limits.degrade != "conservative":
            raise error
        if not isinstance(request, SliceRequest):
            raise error
        if request.algorithm == "conservative":
            raise error
        if error.reason == "nodes":
            # The node cap binds Fig. 13 exactly as hard; don't retry.
            raise error
        from repro.lint.slice_check import verify_result
        from repro.slicing.conservative import conservative_slice

        try:
            analysis = self.analysis_for(request.source)
        except SlangError:
            raise error from None
        if analysis.program.procs:
            # Fig. 13 sees the main unit alone; a degraded answer for a
            # multi-procedure program would silently drop every callee
            # effect — unsound, so the budget error stands.
            raise error
        try:
            result = conservative_slice(
                analysis,
                SlicingCriterion(line=request.line, var=request.var),
            )
            violations = verify_result(result)
        except BudgetExceededError:
            raise error from None
        except SlangError:
            raise error from None
        if violations:  # pragma: no cover — Fig. 13 is sound by design
            raise error
        payload = slice_result_payload(result)
        payload["degraded"] = True
        payload["degraded_from"] = request.algorithm
        payload["degrade_reason"] = {
            "code": "budget-exceeded",
            "reason": error.reason,
            "phase": error.phase,
            "message": error.message,
        }
        return payload

    def handle_payload(self, payload: Any) -> Dict[str, Any]:
        """Parse a raw JSON object and execute it."""
        try:
            request = request_from_dict(payload)
        except SlangError as error:
            request_id = (
                payload.get("id") if isinstance(payload, dict) else None
            )
            op = payload.get("op") if isinstance(payload, dict) else None
            return error_envelope(
                op if isinstance(op, str) else "unknown", error, request_id
            )
        return self.handle(request)

    def run_batch(
        self,
        payloads: Sequence[Any],
        retry: Optional[RetryPolicy] = None,
    ) -> List[Dict[str, Any]]:
        """Fan a batch of raw request payloads over the worker pool,
        preserving input order in the response list.

        With a :class:`RetryPolicy`, responses whose error is marked
        ``retryable`` (``overloaded``, ``fault-injected``) are re-issued
        up to ``max_retries`` times with jittered exponential backoff;
        outcomes land in the stats events as ``retry`` (one per
        re-issue), ``retry:recovered``, and ``retry:exhausted``.
        """
        if retry is None or retry.max_retries <= 0:
            return list(self._pool.map(self.handle_payload, payloads))
        rng = retry.rng()
        rng_lock = threading.Lock()

        def _retryable(response: Dict[str, Any]) -> bool:
            return not response.get("ok") and bool(
                response.get("error", {}).get("retryable")
            )

        def one(payload: Any) -> Dict[str, Any]:
            response = self.handle_payload(payload)
            attempts = 0
            while _retryable(response) and attempts < retry.max_retries:
                floor = response.get("error", {}).get("retry_after")
                if not isinstance(floor, (int, float)) or isinstance(
                    floor, bool
                ):
                    floor = None
                with rng_lock:
                    delay = retry.delay(attempts, rng, floor=floor)
                self.stats.record_event("retry")
                time.sleep(delay)
                attempts += 1
                response = self.handle_payload(payload)
            if attempts:
                self.stats.record_event(
                    "retry:recovered"
                    if response.get("ok")
                    else "retry:exhausted"
                )
            return response

        return list(self._pool.map(one, payloads))

    # -- bulk jobs -----------------------------------------------------

    def _prewarm_sdg_index(
        self, analysis: ProgramAnalysis, algorithm: str
    ) -> None:
        """Amortized batch path: build the SDG and its whole-graph
        closure index once, inline, before fanning an interprocedural
        criterion family over the pool — every task then answers from
        masks instead of queuing behind the per-SDG build lock.  (The
        ``/batch`` endpoint amortizes the same way without this hook:
        same-source requests share the cached analysis, whose memoized
        SDG carries the index after the first build.)  Best-effort:
        budget aborts here are swallowed, the per-slice path owns error
        reporting."""
        if algorithm != "interprocedural" or not analysis.program.procs:
            return
        from repro.sdg.builder import sdg_for_analysis
        from repro.sdg.closure import ensure_sdg_index

        try:
            with trace_span("sdg-index-prewarm"):
                _, events = ensure_sdg_index(sdg_for_analysis(analysis))
        except SlangError:
            return
        for name, count in events.items():
            self.stats.record_event(name, count)

    def slice_node_sets(
        self,
        analysis: ProgramAnalysis,
        criteria: Sequence[SlicingCriterion],
        algorithm: str = "agrawal",
    ) -> List[frozenset]:
        """Fan one program's criterion family over the pool, returning
        each slice's statement-node set (the shape
        :func:`repro.metrics.slice_based_metrics` consumes).

        Do not call from inside a pool task — a saturated pool waiting
        on nested tasks would deadlock; the engine's own ``metrics``
        handler slices inline for exactly that reason.
        """
        self._prewarm_sdg_index(analysis, algorithm)

        def one(criterion: SlicingCriterion) -> frozenset:
            result = self.slice_cached(
                analysis, criterion.line, criterion.var, algorithm
            )
            return frozenset(result.statement_nodes())

        return list(self._pool.map(one, criteria))

    def bulk_slice(
        self,
        source: str,
        algorithm: str = "agrawal",
        criteria: Optional[Sequence[SlicingCriterion]] = None,
        mode: str = "outputs",
    ) -> List[Dict[str, Any]]:
        """Slice every criterion of one program (the "slice everything"
        job): one cached analysis, every slice a pool task."""
        analysis = self.analysis_for(source)
        check_algorithm_capability(analysis, algorithm)
        self._prewarm_sdg_index(analysis, algorithm)
        if criteria is None:
            criteria = enumerate_criteria(analysis, mode)

        def one(criterion: SlicingCriterion) -> Dict[str, Any]:
            with self.stats.time("bulk-slice", algorithm):
                result = self.slice_cached(
                    analysis, criterion.line, criterion.var, algorithm
                )
                return slice_result_payload(result)

        return list(self._pool.map(one, criteria))

    # -- metrics -------------------------------------------------------

    def _perform_metrics(self, request: MetricsRequest) -> Dict[str, Any]:
        analysis = self.analysis_for(request.source)
        check_algorithm_capability(analysis, request.algorithm)
        # Inline (no nested pool tasks): see slice_node_sets.
        metrics = slice_based_metrics(analysis, algorithm=request.algorithm)
        return {
            "algorithm": request.algorithm,
            "criteria": [
                {"line": criterion.line, "var": criterion.var}
                for criterion in metrics.criteria
            ],
            "slice_sizes": list(metrics.slice_sizes),
            "program_size": metrics.program_size,
            "tightness": round(metrics.tightness, 6),
            "coverage": round(metrics.coverage, 6),
            "min_coverage": round(metrics.min_coverage, 6),
            "max_coverage": round(metrics.max_coverage, 6),
            "overlap": round(metrics.overlap, 6),
        }

    # -- observability -------------------------------------------------

    def exemplars(self) -> List[Dict[str, Any]]:
        """Retained slow-request span trees, oldest first (bounded at
        :attr:`MAX_EXEMPLARS`); empty unless ``slow_trace_seconds`` is
        configured."""
        with self._exemplar_lock:
            return [dict(exemplar) for exemplar in self._exemplars]

    def stats_payload(self) -> Dict[str, Any]:
        payload = self.stats.snapshot()
        payload["cache"] = self.cache.stats()
        payload["slice_cache"] = self.slice_cache_stats.stats()
        payload["start_set_cache"] = self.start_set_stats.stats()
        payload["incremental"] = self.cache.unit_cache.snapshot()
        payload["admission"] = self.gate.snapshot()
        payload["gc"] = collector.snapshot()
        if self.store is not None:
            payload["store"] = self.store.stats()
        if self.faults is not None:
            payload["faults"] = self.faults.snapshot()
        if self.slow_trace_seconds is not None:
            payload["exemplars"] = self.exemplars()
        return payload

    def readiness(self) -> Dict[str, Any]:
        """``GET /readyz``: ready while the gate still has headroom —
        a request arriving now would be admitted, not shed — and the
        engine is not draining.  A draining process is alive (healthz
        stays 200) but must receive no new work: load balancers and the
        cluster supervisor route around it while in-flight requests
        finish."""
        snapshot = self.gate.snapshot()
        ready = not self.draining and (
            snapshot["max_inflight"] is None
            or snapshot["inflight"] < snapshot["max_inflight"]
        )
        return {"ok": ready, "draining": self.draining, **snapshot}
