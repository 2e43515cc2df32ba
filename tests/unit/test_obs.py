"""Unit tests for the tracing layer and the Prometheus exposition.

The contracts under test (DESIGN.md §10):

* spans nest correctly and always close — including on the error paths —
  so an exported trace never contains an open (``dur_ns is None``) span;
* with no tracer installed, :func:`trace_span` returns the one shared
  null context manager (no allocation) and :func:`trace_event` is a
  no-op;
* :func:`chrome_trace` emits schema-valid trace-event JSON (complete
  ``"X"`` events with µs timestamps, instant ``"i"`` events) that
  ``json.dumps`` round-trips;
* :func:`render_prometheus` / :func:`parse_prometheus` round-trip a
  stats snapshot exactly (cumulative buckets, ``+Inf``, label escaping).
"""

import json

import pytest

from repro.obs.prom import (
    PROM_CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.tracer import (
    Tracer,
    chrome_trace,
    current_tracer,
    phase_totals,
    span_tree,
    summary_table,
    trace_event,
    trace_span,
    use_tracer,
)
from repro.obs.tracer import _NULL_SPAN  # the shared disabled-path singleton
from repro.service.stats import ServiceStats


class TestTracerNesting:
    def test_spans_nest_and_close(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer", kind="demo") as outer:
                with trace_span("inner-a"):
                    pass
                with trace_span("inner-b") as inner:
                    inner.set(items=3)
        assert [root.name for root in tracer.roots] == ["outer"]
        assert [c.name for c in tracer.roots[0].children] == [
            "inner-a",
            "inner-b",
        ]
        assert outer.args == {"kind": "demo"}
        assert tracer.roots[0].children[1].args == {"items": 3}
        assert tracer.open_spans == 0
        for span in tracer.walk():
            assert span.dur_ns is not None, span.name

    def test_children_timed_within_parent(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer"):
                with trace_span("inner"):
                    pass
        outer, (inner,) = tracer.roots[0], tracer.roots[0].children
        assert inner.start_ns >= outer.start_ns
        assert (
            inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
        )

    def test_error_path_closes_span_and_records_type(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError):
                with trace_span("outer"):
                    with trace_span("inner"):
                        raise ValueError("boom")
        outer = tracer.roots[0]
        assert tracer.open_spans == 0
        assert outer.dur_ns is not None
        assert outer.error == "ValueError"
        assert outer.children[0].error == "ValueError"

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer"):
                trace_event("budget-exceeded", reason="rounds", phase="x")
        (event,) = tracer.roots[0].events
        assert event.name == "budget-exceeded"
        assert event.args == {"reason": "rounds", "phase": "x"}

    def test_event_outside_any_span_becomes_root(self):
        tracer = Tracer()
        with use_tracer(tracer):
            trace_event("shed", inflight=9)
        (root,) = tracer.roots
        assert root.name == "shed"
        assert root.dur_ns == 0


class TestDisabledPath:
    def test_trace_span_returns_the_shared_null_singleton(self):
        assert current_tracer() is None
        assert trace_span("anything") is _NULL_SPAN
        assert trace_span("other", attr=1) is _NULL_SPAN

    def test_null_span_is_a_silent_context_manager(self):
        with trace_span("nothing") as span:
            span.set(ignored=True)  # must not raise, must not record

    def test_trace_event_is_a_noop_without_tracer(self):
        trace_event("shed", inflight=1)  # must not raise

    def test_use_tracer_restores_previous_state(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with use_tracer(None):
                assert trace_span("off") is _NULL_SPAN
            assert current_tracer() is tracer
        assert current_tracer() is None


class TestChromeTrace:
    def _traced(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("slice", algorithm="agrawal"):
                with trace_span("analyze"):
                    pass
                trace_event("degraded", reason="rounds")
            with pytest.raises(RuntimeError):
                with trace_span("failing"):
                    raise RuntimeError("x")
        return tracer

    def test_schema_valid_json(self):
        trace = chrome_trace(self._traced())
        text = json.dumps(trace)  # must be JSON-serialisable as-is
        parsed = json.loads(text)
        assert parsed["displayTimeUnit"] == "ms"
        events = parsed["traceEvents"]
        assert {e["name"] for e in events} >= {
            "slice",
            "analyze",
            "degraded",
            "failing",
        }
        for event in events:
            assert event["cat"] == "slang"
            assert event["ph"] in ("X", "i")
            assert isinstance(event["ts"], float) and event["ts"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
            if event["ph"] == "X":
                assert isinstance(event["dur"], float)
                assert event["dur"] >= 0
            else:
                assert event["s"] == "t"

    def test_error_and_args_exported(self):
        events = chrome_trace(self._traced())["traceEvents"]
        by_name = {e["name"]: e for e in events}
        assert by_name["slice"]["args"]["algorithm"] == "agrawal"
        assert by_name["failing"]["args"]["error"] == "RuntimeError"
        assert by_name["degraded"]["args"]["reason"] == "rounds"

    def test_non_jsonable_args_are_stringified(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("s", obj={1, 2}):
                pass
        (event,) = chrome_trace(tracer)["traceEvents"]
        assert isinstance(event["args"]["obj"], str)
        json.dumps(chrome_trace(tracer))


class TestSpanTree:
    def test_shape_and_empty_key_omission(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer", a=1):
                with trace_span("leaf"):
                    trace_event("tick")
        (outer,) = span_tree(tracer)
        assert outer["name"] == "outer"
        assert outer["args"] == {"a": 1}
        (leaf,) = outer["children"]
        # Empty collections are omitted, not emitted as [] / {}.
        assert "children" not in leaf
        assert "args" not in leaf
        assert "events" not in outer
        assert leaf["events"][0]["name"] == "tick"
        assert "args" not in leaf["events"][0]
        assert leaf["dur_us"] >= 0 and leaf["start_us"] >= 0

    def test_error_key(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(KeyError):
                with trace_span("bad"):
                    raise KeyError("k")
        assert span_tree(tracer)[0]["error"] == "KeyError"


class TestAggregates:
    def test_phase_totals_aggregate_by_name(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("round"):
                pass
            with trace_span("round"):
                pass
            with trace_span("other"):
                pass
        totals = phase_totals(tracer)
        assert totals["round"][0] == 2
        assert totals["other"][0] == 1
        assert totals["round"][1] >= 0.0

    def test_summary_table_mentions_every_phase(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("analyze"):
                with trace_span("parse"):
                    pass
        table = summary_table(tracer)
        assert "analyze" in table
        assert "parse" in table
        assert "(wall)" in table


class TestPrometheus:
    def test_content_type(self):
        assert PROM_CONTENT_TYPE.startswith("text/plain")
        assert "0.0.4" in PROM_CONTENT_TYPE

    def _payload(self):
        stats = ServiceStats()
        stats.record("slice", "agrawal", 0.002)
        stats.record("slice", "agrawal", 0.2, error=True)
        stats.record("compare", None, 0.01)
        stats.record_event("degraded")
        stats.record_event("shed", 3)
        stats.record_diagnostics({"SL101": 2})
        stats.record_phases({"parse": 0.001, "fig7-traversal": 0.004})
        payload = stats.snapshot()
        payload["cache"] = {
            "capacity": 8,
            "entries": 1,
            "hits": 10,
            "misses": 2,
            "evictions": 0,
            "hit_rate": 0.8333,
        }
        payload["admission"] = {"inflight": 0, "shed": 3, "max_inflight": 8}
        return payload

    def test_round_trip_reconciles_exactly(self):
        payload = self._payload()
        metrics = parse_prometheus(render_prometheus(payload))
        requests = metrics["slang_requests_total"]
        assert requests[(("algorithm", "agrawal"), ("op", "slice"))] == 2
        assert requests[(("op", "compare"),)] == 1
        assert (
            metrics["slang_errors_total"][
                (("algorithm", "agrawal"), ("op", "slice"))
            ]
            == 1
        )
        events = metrics["slang_events_total"]
        assert events[(("event", "degraded"),)] == 1
        assert events[(("event", "shed"),)] == 3
        assert (
            metrics["slang_diagnostics_total"][(("code", "SL101"),)] == 2
        )
        assert metrics["slang_cache_hits_total"][()] == 10
        assert metrics["slang_cache_misses_total"][()] == 2
        assert metrics["slang_cache_entries"][()] == 1
        assert metrics["slang_inflight_requests"][()] == 0
        assert metrics["slang_shed_total"][()] == 3

    def test_histograms_are_cumulative_and_end_at_count(self):
        payload = self._payload()
        metrics = parse_prometheus(render_prometheus(payload))
        for key, snapshot in payload["latency"].items():
            op, _, algorithm = key.partition(":")
            labels = {"op": op}
            if algorithm:
                labels["algorithm"] = algorithm
            buckets = [
                (dict(label_tuple)["le"], value)
                for label_tuple, value in metrics[
                    "slang_request_duration_seconds_bucket"
                ].items()
                if dict(label_tuple).get("op") == op
                and dict(label_tuple).get("algorithm") == labels.get(
                    "algorithm"
                )
            ]
            ordered = sorted(
                buckets,
                key=lambda item: float("inf")
                if item[0] == "+Inf"
                else float(item[0]),
            )
            values = [value for _, value in ordered]
            assert values == sorted(values), key  # cumulative → monotone
            assert ordered[-1][0] == "+Inf"
            assert values[-1] == snapshot["count"]
            count_key = tuple(sorted(labels.items()))
            assert (
                metrics["slang_request_duration_seconds_count"][count_key]
                == snapshot["count"]
            )

    def test_phase_histograms_exported(self):
        metrics = parse_prometheus(render_prometheus(self._payload()))
        counts = metrics["slang_phase_duration_seconds_count"]
        assert counts[(("phase", "parse"),)] == 1
        assert counts[(("phase", "fig7-traversal"),)] == 1

    def test_label_escaping_round_trips(self):
        stats = ServiceStats()
        stats.record_diagnostics({'odd"code\\with\nnewline': 1})
        payload = stats.snapshot()
        metrics = parse_prometheus(render_prometheus(payload))
        assert (
            metrics["slang_diagnostics_total"][
                (("code", 'odd"code\\with\nnewline'),)
            ]
            == 1
        )


class TestSDGIndexFamily:
    """The ``sdg:*`` and ``sdg-index:*`` counters are exported as
    ``slang_events_total{event=...}`` series that reconcile with the
    event ledger, and an event that never fired has no series at all."""

    EVENTS = (
        "sdg:procedures",
        "sdg:summary-edges",
        "sdg:pass1-visits",
        "sdg:pass2-visits",
        "sdg-index:builds",
        "sdg-index:mask-hits",
        "sdg-index:pressure-skips",
    )

    def test_counters_reconcile_with_events(self):
        stats = ServiceStats()
        for count, event in enumerate(self.EVENTS, start=1):
            stats.record_event(event, count)
        payload = stats.snapshot()
        metrics = parse_prometheus(render_prometheus(payload))
        series = metrics["slang_events_total"]
        for event in self.EVENTS:
            assert series[(("event", event),)] == payload["events"][event]

    def test_absent_events_render_no_series(self):
        stats = ServiceStats()
        stats.record_event("shed")
        metrics = parse_prometheus(render_prometheus(stats.snapshot()))
        series = metrics["slang_events_total"]
        for event in self.EVENTS:
            assert (("event", event),) not in series, event
        assert not any(name.startswith("slang_sdg_") for name in metrics)
