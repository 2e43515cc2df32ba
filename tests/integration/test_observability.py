"""Integration tests for the observability layer: traced envelopes,
per-phase span containment across the whole algorithm registry,
exemplars, ``X-Request-Id`` propagation, and the exact reconciliation
of ``GET /metrics.prom`` against ``GET /stats``.
"""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.obs.prom import parse_prometheus
from repro.service.cache import AnalysisCache
from repro.service.engine import SlicingEngine
from repro.service.server import make_server
from repro.slicing.registry import CORRECT_STRUCTURED, algorithm_names

FIG3A = PAPER_PROGRAMS["fig3a"]
FIG5A = PAPER_PROGRAMS["fig5a"]  # structured: accepted by Fig. 12/13


def _slice_payload(entry, algorithm="agrawal", **extra):
    line, var = entry.criterion
    payload = {
        "op": "slice",
        "source": entry.source,
        "line": line,
        "var": var,
        "algorithm": algorithm,
    }
    payload.update(extra)
    return payload


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node.get("children", []))


def _assert_children_within_parent(node):
    """Child span durations must sum to within the parent duration.

    ``span_tree`` truncates ns → µs, which can only shrink each
    number, so a handful of µs of slack covers the rounding."""
    children = node.get("children", [])
    if children:
        child_total = sum(child["dur_us"] for child in children)
        assert child_total <= node["dur_us"] + len(children) + 1, node[
            "name"
        ]
        for child in children:
            assert child["start_us"] >= node["start_us"], child["name"]
    for child in children:
        _assert_children_within_parent(child)


class TestTracedEnvelopes:
    def test_trace_field_controls_span_tree_presence(self):
        engine = SlicingEngine(cache=AnalysisCache(capacity=4))
        try:
            # Traced first: the cache miss is what runs the analyze
            # phases; a later hit would only show "cache-lookup".
            traced = engine.handle_payload(
                _slice_payload(FIG3A, trace=True)
            )
            plain = engine.handle_payload(_slice_payload(FIG3A))
            assert plain["ok"] and "trace" not in plain
            assert traced["ok"]
            (root,) = traced["trace"]
            assert root["name"] == "slice"
            assert root["args"]["algorithm"] == "agrawal"
            names = {node["name"] for node in _walk(traced["trace"])}
            assert {
                "admission",
                "dispatch",
                "cache-lookup",
                "analyze",
                "parse",
                "cfg-build",
                "postdominance",
                "control-dependence",
                "reaching-defs",
                "pdg-build",
                "conventional-base",
                "fig7-traversal",
                "response-encode",
            } <= names
        finally:
            engine.close()

    def test_identical_request_untraced_stays_byte_identical(self):
        """Tracing must not perturb the envelope it decorates: the
        traced response minus its ``trace`` key equals the untraced
        response."""
        engine = SlicingEngine(cache=AnalysisCache(capacity=4))
        try:
            plain = engine.handle_payload(_slice_payload(FIG3A))
            traced = engine.handle_payload(
                _slice_payload(FIG3A, trace=True)
            )
            traced.pop("trace")
            assert traced == plain
        finally:
            engine.close()

    def test_phase_spans_nest_within_parents_for_every_algorithm(self):
        engine = SlicingEngine(cache=AnalysisCache(capacity=8))
        try:
            for algorithm in algorithm_names():
                entry = (
                    FIG5A if algorithm in CORRECT_STRUCTURED else FIG3A
                )
                envelope = engine.handle_payload(
                    _slice_payload(entry, algorithm=algorithm, trace=True)
                )
                assert envelope["ok"], (algorithm, envelope)
                tree = envelope["trace"]
                for node in tree:
                    _assert_children_within_parent(node)
                names = {node["name"] for node in _walk(tree)}
                assert "dispatch" in names, algorithm
                assert "response-encode" in names, algorithm
        finally:
            engine.close()

    def test_traced_requests_feed_phase_histograms(self):
        engine = SlicingEngine(cache=AnalysisCache(capacity=4))
        try:
            engine.handle_payload(_slice_payload(FIG3A, trace=True))
            phases = engine.stats_payload()["phases"]
            assert phases["analyze"]["count"] == 1
            assert phases["fig7-traversal"]["count"] >= 1
            assert "parse" in phases
        finally:
            engine.close()

    def test_error_paths_still_produce_closed_spans(self):
        engine = SlicingEngine(cache=AnalysisCache(capacity=4))
        try:
            payload = _slice_payload(FIG3A, trace=True)
            payload["line"] = 10**6  # no such line -> slice error
            envelope = engine.handle_payload(payload)
            assert not envelope["ok"]
            for node in _walk(envelope.get("trace", [])):
                assert node["dur_us"] >= 0
        finally:
            engine.close()


class TestExemplars:
    def test_slow_requests_are_kept_as_exemplars(self):
        engine = SlicingEngine(
            cache=AnalysisCache(capacity=4), slow_trace_seconds=0.0
        )
        try:
            engine.handle_payload(_slice_payload(FIG3A, trace=True))
            exemplars = engine.exemplars()
            assert exemplars
            assert exemplars[-1]["op"] == "slice"
            assert exemplars[-1]["ok"] is True
            assert exemplars[-1]["trace"]
            payload = engine.stats_payload()
            assert payload["exemplars"]
        finally:
            engine.close()

    def test_exemplar_ring_is_bounded(self):
        engine = SlicingEngine(
            cache=AnalysisCache(capacity=4), slow_trace_seconds=0.0
        )
        try:
            for _ in range(engine.MAX_EXEMPLARS + 5):
                engine.handle_payload(_slice_payload(FIG3A, trace=True))
            assert len(engine.exemplars()) == engine.MAX_EXEMPLARS
        finally:
            engine.close()

    def test_disabled_by_default(self):
        engine = SlicingEngine(cache=AnalysisCache(capacity=4))
        try:
            engine.handle_payload(_slice_payload(FIG3A, trace=True))
            assert "exemplars" not in engine.stats_payload()
        finally:
            engine.close()


@pytest.fixture
def http_server():
    engine = SlicingEngine(
        cache=AnalysisCache(capacity=16), workers=6
    )
    server = make_server(port=0, engine=engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    engine.close()


def _request(server, path, obj=None, headers=None):
    port = server.server_address[1]
    data = json.dumps(obj).encode("utf-8") if obj is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                response.read().decode("utf-8"),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8"), dict(error.headers)


class TestHTTPObservability:
    def test_traced_request_over_http(self, http_server):
        status, body, _ = _request(
            http_server, "/slice", _slice_payload(FIG3A, trace=True)
        )
        assert status == 200
        envelope = json.loads(body)
        assert envelope["ok"]
        assert envelope["trace"][0]["name"] == "slice"

    def test_request_id_is_echoed(self, http_server):
        status, _, headers = _request(
            http_server,
            "/slice",
            _slice_payload(FIG3A),
            headers={"X-Request-Id": "req-abc-123"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "req-abc-123"

    def test_request_id_is_generated_when_absent(self, http_server):
        _, _, first = _request(http_server, "/healthz")
        _, _, second = _request(http_server, "/healthz")
        assert first["X-Request-Id"]
        assert second["X-Request-Id"]
        assert first["X-Request-Id"] != second["X-Request-Id"]

    def test_error_responses_carry_request_id(self, http_server):
        status, _, headers = _request(
            http_server, "/no-such", headers={"X-Request-Id": "oops-1"}
        )
        assert status == 404
        assert headers["X-Request-Id"] == "oops-1"

    def test_metrics_prom_content_type(self, http_server):
        _, _, headers = _request(http_server, "/metrics.prom")
        assert headers["Content-Type"].startswith("text/plain")
        assert "0.0.4" in headers["Content-Type"]

    def _reconcile(self, stats, metrics):
        """Every counter in the JSON snapshot must appear with the same
        value in the exposition."""
        for key, count in stats["requests"].items():
            op, _, algorithm = key.partition(":")
            labels = [("op", op)]
            if algorithm:
                labels.append(("algorithm", algorithm))
            label_key = tuple(sorted(labels))
            assert (
                metrics["slang_requests_total"][label_key] == count
            ), key
            assert (
                metrics["slang_request_duration_seconds_count"][label_key]
                == stats["latency"][key]["count"]
            ), key
        for key, count in stats["errors"].items():
            op, _, algorithm = key.partition(":")
            labels = [("op", op)]
            if algorithm:
                labels.append(("algorithm", algorithm))
            assert (
                metrics["slang_errors_total"][tuple(sorted(labels))]
                == count
            ), key
        for name, count in stats["events"].items():
            assert (
                metrics["slang_events_total"][(("event", name),)] == count
            ), name
        for phase, snapshot in stats["phases"].items():
            assert (
                metrics["slang_phase_duration_seconds_count"][
                    (("phase", phase),)
                ]
                == snapshot["count"]
            ), phase
        cache = stats["cache"]
        assert metrics["slang_cache_hits_total"][()] == cache["hits"]
        assert metrics["slang_cache_misses_total"][()] == cache["misses"]
        assert (
            metrics["slang_cache_evictions_total"][()]
            == cache["evictions"]
        )
        assert metrics["slang_shed_total"][()] == stats["admission"]["shed"]

    def test_metrics_prom_reconciles_after_concurrent_hammer(
        self, http_server
    ):
        payloads = []
        for index in range(40):
            payload = _slice_payload(
                FIG3A, trace=index % 3 == 0
            )
            if index % 10 == 9:
                payload["line"] = 10**6  # mix some failing requests in
            payloads.append(payload)

        def hit(payload):
            return _request(http_server, "/slice", payload)[0]

        with ThreadPoolExecutor(max_workers=12) as pool:
            statuses = list(pool.map(hit, payloads))
        assert statuses.count(200) == 36

        _, stats_body, _ = _request(http_server, "/stats")
        _, prom_body, _ = _request(http_server, "/metrics.prom")
        stats = json.loads(stats_body)
        metrics = parse_prometheus(prom_body)
        assert stats["requests"]["slice:agrawal"] == 40
        assert stats["errors"]["slice:agrawal"] == 4
        self._reconcile(stats, metrics)

    def test_scrape_during_hammer_is_internally_consistent(
        self, http_server
    ):
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                _request(
                    http_server, "/slice", _slice_payload(FIG3A, trace=True)
                )

        writers = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in writers:
            thread.start()
        try:
            for _ in range(10):
                _, body, _ = _request(http_server, "/metrics.prom")
                metrics = parse_prometheus(body)
                buckets = metrics.get(
                    "slang_request_duration_seconds_bucket", {}
                )
                counts = metrics.get(
                    "slang_request_duration_seconds_count", {}
                )
                for label_key, count in counts.items():
                    inf_key = tuple(
                        sorted(list(label_key) + [("le", "+Inf")])
                    )
                    # The +Inf cumulative bucket equals the count —
                    # impossible if the snapshot could tear mid-render.
                    assert buckets[inf_key] == count, label_key
        finally:
            stop.set()
            for thread in writers:
                thread.join()
