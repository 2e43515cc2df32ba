"""Integration tests for the resilience layer: budgets, sound
degradation, fault injection, admission control, retries, and the HTTP
edge cases — the acceptance suite of the robustness milestone.

The headline properties:

* under a fault plan that forces budget exhaustion on every exact-slice
  request, **every** response is either a structured ``budget-exceeded``
  error or a ``degraded: true`` Fig. 13 slice that passes the SL20x
  slice verifier — never a hang, never a malformed payload;
* no request outlives its deadline by more than a scheduling epsilon;
* the ``/stats`` counters reconcile exactly with the responses observed,
  even under a concurrent valid/invalid/oversized/faulted hammer.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.lint.slice_check import verify_slice
from repro.pdg.builder import analyze_program
from repro.service.engine import SlicingEngine
from repro.service.faults import FaultPlan
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.resilience import EngineLimits
from repro.service.server import make_server

EXHAUST_EVERY_SLICE = {
    "rules": [{"kind": "exhaust-budget", "op": "slice", "every": 1}]
}


def slice_request(entry, algorithm="agrawal"):
    line, var = entry.criterion
    return {
        "op": "slice",
        "source": entry.source,
        "line": line,
        "var": var,
        "algorithm": algorithm,
    }


def assert_schema_valid(response):
    """Every engine response is a well-formed protocol envelope."""
    assert response["version"] == PROTOCOL_VERSION
    assert isinstance(response["op"], str)
    if response["ok"]:
        assert isinstance(response["result"], dict)
    else:
        error = response["error"]
        assert isinstance(error["code"], str)
        assert isinstance(error["message"], str)
        assert isinstance(error["retryable"], bool)
    json.dumps(response)  # JSON-serialisable throughout


class TestDegradation:
    def test_every_exhausted_slice_degrades_or_errors_soundly(self):
        """The acceptance criterion: with budget exhaustion forced on
        every slice request across the whole corpus, 100% of responses
        are either structured ``budget-exceeded`` errors or sound
        ``degraded: true`` Fig. 13 slices."""
        plan = FaultPlan.from_dict(EXHAUST_EVERY_SLICE)
        with SlicingEngine(
            limits=EngineLimits(deadline_seconds=30.0), faults=plan
        ) as engine:
            for name, entry in sorted(PAPER_PROGRAMS.items()):
                response = engine.handle_payload(slice_request(entry))
                assert_schema_valid(response)
                if not response["ok"]:
                    # Fig. 13 refused (unstructured program, dead code):
                    # the original budget error must surface, structured.
                    error = response["error"]
                    assert error["code"] == "budget-exceeded", name
                    assert error["reason"] == "traversals"
                    assert error["phase"] == "fig7-traversal"
                    assert not entry.structured, name
                    continue
                result = response["result"]
                assert result["degraded"] is True, name
                assert result["degraded_from"] == "agrawal"
                assert result["algorithm"] == "conservative"
                assert (
                    result["degrade_reason"]["code"] == "budget-exceeded"
                )
                # Independent soundness audit of the degraded slice.
                analysis = analyze_program(entry.source)
                line, var = entry.criterion
                violations = verify_slice(analysis, result["nodes"])
                assert violations == [], name
            events = engine.stats.snapshot()["events"]
            degraded = events.get("degraded", 0)
            exhausted = events.get("budget-exceeded", 0)
            assert exhausted == len(PAPER_PROGRAMS)
            assert 0 < degraded < len(PAPER_PROGRAMS)

    def test_structured_corpus_degrades_on_every_program(self):
        plan = FaultPlan.from_dict(EXHAUST_EVERY_SLICE)
        with SlicingEngine(faults=plan) as engine:
            for name, entry in sorted(PAPER_PROGRAMS.items()):
                if not entry.structured:
                    continue
                response = engine.handle_payload(slice_request(entry))
                assert response["ok"], (name, response)
                assert response["result"]["degraded"] is True

    def test_degrade_off_surfaces_the_error(self):
        plan = FaultPlan.from_dict(EXHAUST_EVERY_SLICE)
        with SlicingEngine(
            limits=EngineLimits(degrade="off"), faults=plan
        ) as engine:
            entry = PAPER_PROGRAMS["fig1a"]  # structured: would degrade
            response = engine.handle_payload(slice_request(entry))
            assert not response["ok"]
            assert response["error"]["code"] == "budget-exceeded"
            assert response["error"]["retryable"] is False
            assert engine.stats.event_count("degraded") == 0

    def test_conservative_requests_never_self_degrade(self):
        """A request already asking for Fig. 13 cannot "degrade" to
        itself; exhaustion must error (Fig. 13 runs zero rounds, so the
        forced exhaustion does not even fire for it)."""
        plan = FaultPlan.from_dict(EXHAUST_EVERY_SLICE)
        with SlicingEngine(faults=plan) as engine:
            entry = PAPER_PROGRAMS["fig1a"]
            response = engine.handle_payload(
                slice_request(entry, algorithm="conservative")
            )
            # Zero traversal rounds: completes despite the exhausted cap.
            assert response["ok"]
            assert "degraded" not in response["result"]

    def test_client_budget_tightens_engine_budget(self):
        entry = PAPER_PROGRAMS["fig1a"]
        with SlicingEngine(limits=EngineLimits(degrade="off")) as engine:
            request = dict(slice_request(entry))
            request["budget"] = {"max_nodes": 2}
            response = engine.handle_payload(request)
            assert not response["ok"]
            assert response["error"]["code"] == "budget-exceeded"
            assert response["error"]["reason"] == "nodes"

    def test_node_cap_exhaustion_is_not_degraded(self):
        """The node cap binds Fig. 13 exactly as hard as Fig. 7, so
        degradation is pointless — the error surfaces even with the
        degrade policy on."""
        entry = PAPER_PROGRAMS["fig1a"]
        with SlicingEngine(
            limits=EngineLimits(max_cfg_nodes=2)
        ) as engine:
            response = engine.handle_payload(slice_request(entry))
            assert not response["ok"]
            assert response["error"]["reason"] == "nodes"


class TestDeadlines:
    def test_no_request_outlives_its_deadline(self):
        """Even with a 30s injected latency the response arrives within
        deadline + epsilon — the latency fault is capped by the budget
        and the post-sleep tick converts it to a structured error."""
        deadline = 0.2
        plan = FaultPlan.from_dict(
            {"rules": [{"kind": "latency", "seconds": 30.0, "every": 1}]}
        )
        with SlicingEngine(
            limits=EngineLimits(deadline_seconds=deadline), faults=plan
        ) as engine:
            start = time.monotonic()
            response = engine.handle_payload(
                slice_request(PAPER_PROGRAMS["fig1a"])
            )
            elapsed = time.monotonic() - start
            assert_schema_valid(response)
            assert not response["ok"]
            assert response["error"]["code"] == "budget-exceeded"
            assert response["error"]["reason"] == "deadline"
            assert elapsed < deadline + 2.0  # generous scheduling epsilon


class TestAdmissionAndOverload:
    def test_overload_sheds_with_structured_503(self):
        release = threading.Event()
        entered = threading.Event()

        class Blocking(FaultPlan):
            def apply(self, op, algorithm, budget, engine=None):
                entered.set()
                release.wait(timeout=10)

        entry = PAPER_PROGRAMS["fig1a"]
        with SlicingEngine(
            workers=2,
            limits=EngineLimits(max_inflight=1, retry_after_seconds=3.0),
            faults=Blocking([]),
        ) as engine:
            with ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(
                    engine.handle_payload, slice_request(entry)
                )
                assert entered.wait(timeout=10)
                shed = engine.handle_payload(slice_request(entry))
                assert not shed["ok"]
                assert shed["error"]["code"] == "overloaded"
                assert shed["error"]["retryable"] is True
                assert shed["error"]["retry_after"] == 3.0
                assert engine.readiness()["ok"] is False
                release.set()
                assert blocked.result(timeout=10)["ok"]
            assert engine.readiness()["ok"] is True
            assert engine.stats.event_count("shed") == 1
            assert engine.gate.snapshot()["shed"] == 1


@pytest.fixture()
def http_server():
    engine = SlicingEngine(
        limits=EngineLimits(max_inflight=8), workers=2
    )
    server = make_server(port=0, engine=engine, max_body_bytes=4096)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    engine.close()


def _post(url, body, headers=None):
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestHTTPEdge:
    def test_healthz_and_readyz(self, http_server):
        with urllib.request.urlopen(
            http_server + "/healthz", timeout=10
        ) as response:
            assert response.status == 200
            assert json.loads(response.read()) == {"ok": True}
        with urllib.request.urlopen(
            http_server + "/readyz", timeout=10
        ) as response:
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["ok"] is True
            assert payload["max_inflight"] == 8
            assert payload["inflight"] == 0

    def test_oversized_body_is_413(self, http_server):
        body = json.dumps(
            {"op": "slice", "source": "x" * 8192, "line": 1, "var": "x"}
        ).encode()
        status, _, payload = _post(http_server + "/slice", body)
        assert status == 413
        assert payload["error"]["code"] == "payload-too-large"

    def test_missing_content_length_is_411(self, http_server):
        import http.client

        host, port = http_server.replace("http://", "").split(":")
        connection = http.client.HTTPConnection(
            host, int(port), timeout=10
        )
        connection.putrequest("POST", "/slice")
        connection.putheader("Connection", "close")
        connection.endheaders()
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 411
        assert payload["error"]["code"] == "payload-too-large"

    def test_bad_content_length_is_400(self, http_server):
        import http.client

        host, port = http_server.replace("http://", "").split(":")
        connection = http.client.HTTPConnection(
            host, int(port), timeout=10
        )
        connection.putrequest("POST", "/slice")
        connection.putheader("Content-Length", "many")
        connection.putheader("Connection", "close")
        connection.endheaders()
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "protocol-error"

    def test_bad_content_length_is_400_at_the_cluster_front_door(self):
        """The cluster front door answers a non-integer or negative
        ``Content-Length`` exactly like the single-process server."""
        import http.client

        from repro.service.cluster import ClusterConfig, ClusterSupervisor

        supervisor = ClusterSupervisor(
            ClusterConfig(workers=1, port=0, heartbeat_interval=0.2,
                          drain_seconds=5.0, verbose=False)
        )
        supervisor.start()
        try:
            for value in ("many", "-5"):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", supervisor.port, timeout=10
                )
                connection.putrequest("POST", "/slice")
                connection.putheader("Content-Length", value)
                connection.putheader("Connection", "close")
                connection.endheaders()
                response = connection.getresponse()
                payload = json.loads(response.read())
                connection.close()
                assert response.status == 400, value
                assert payload["error"]["code"] == "protocol-error", value
        finally:
            supervisor.stop(drain=True)

    def test_overloaded_maps_to_503_with_retry_after(self):
        release = threading.Event()
        entered = threading.Event()

        class Blocking(FaultPlan):
            def apply(self, op, algorithm, budget, engine=None):
                entered.set()
                release.wait(timeout=10)

        engine = SlicingEngine(
            limits=EngineLimits(max_inflight=1, retry_after_seconds=2.0),
            faults=Blocking([]),
        )
        server = make_server(port=0, engine=engine)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        body = json.dumps(slice_request(PAPER_PROGRAMS["fig1a"])).encode()
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(_post, base + "/slice", body)
                assert entered.wait(timeout=10)
                status, headers, payload = _post(base + "/slice", body)
                assert status == 503
                assert payload["error"]["code"] == "overloaded"
                assert headers.get("Retry-After") == "2"
                try:
                    urllib.request.urlopen(
                        base + "/readyz", timeout=10
                    ).close()
                    ready_status = 200
                except urllib.error.HTTPError as error:
                    ready_status = error.code
                    error.read()
                assert ready_status == 503  # saturated: not ready
                release.set()
                status, _, payload = blocked.result(timeout=10)
                assert status == 200 and payload["ok"]
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            engine.close()

    def test_budget_exceeded_maps_to_504(self):
        plan = FaultPlan.from_dict(EXHAUST_EVERY_SLICE)
        engine = SlicingEngine(
            limits=EngineLimits(degrade="off"), faults=plan
        )
        server = make_server(port=0, engine=engine)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        body = json.dumps(slice_request(PAPER_PROGRAMS["fig1a"])).encode()
        try:
            status, _, payload = _post(
                f"http://{host}:{port}/slice", body
            )
            assert status == 504
            assert payload["error"]["code"] == "budget-exceeded"
        finally:
            server.shutdown()
            server.server_close()
            engine.close()


class TestBatchRetry:
    def test_transient_faults_recover_with_retries(self):
        plan = FaultPlan.from_dict(
            {"rules": [{"kind": "error", "op": "slice", "first_n": 2}]}
        )
        from repro.service.resilience import RetryPolicy

        entry = PAPER_PROGRAMS["fig1a"]
        with SlicingEngine(workers=1, faults=plan) as engine:
            responses = engine.run_batch(
                [slice_request(entry)] * 3,
                retry=RetryPolicy(
                    max_retries=3, backoff_seconds=0.01, seed=11
                ),
            )
        assert all(response["ok"] for response in responses)
        events = engine.stats.snapshot()["events"]
        assert events["retry"] == 2
        assert events["retry:recovered"] == 1
        assert events["fault-injected"] == 2

    def test_retries_exhaust_on_persistent_faults(self):
        plan = FaultPlan.from_dict(
            {"rules": [{"kind": "error", "op": "slice", "every": 1}]}
        )
        from repro.service.resilience import RetryPolicy

        entry = PAPER_PROGRAMS["fig1a"]
        with SlicingEngine(workers=1, faults=plan) as engine:
            responses = engine.run_batch(
                [slice_request(entry)],
                retry=RetryPolicy(
                    max_retries=2, backoff_seconds=0.01, seed=5
                ),
            )
        assert not responses[0]["ok"]
        assert responses[0]["error"]["code"] == "fault-injected"
        events = engine.stats.snapshot()["events"]
        assert events["retry"] == 2
        assert events["retry:exhausted"] == 1


class TestBatchCLI:
    def _write_batch(self, tmp_path, payloads):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            "".join(json.dumps(payload) + "\n" for payload in payloads)
        )
        return str(path)

    def _write_plan(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return str(path)

    def test_strict_transient_only_exits_75(self, tmp_path, capsys):
        from repro.cli import EXIT_TEMPFAIL, main

        entry = PAPER_PROGRAMS["fig1a"]
        batch = self._write_batch(tmp_path, [slice_request(entry)] * 2)
        plan = self._write_plan(
            tmp_path,
            {"rules": [{"kind": "error", "op": "slice", "every": 1}]},
        )
        code = main(
            [
                "batch", batch, "--strict", "--workers", "1",
                "--fault-plan", plan,
            ]
        )
        assert code == EXIT_TEMPFAIL == 75
        err = capsys.readouterr().err
        assert "2 transient failure(s)" in err

    def test_strict_permanent_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        entry = PAPER_PROGRAMS["fig1a"]
        bad = dict(slice_request(entry))
        bad["line"] = 9999
        batch = self._write_batch(
            tmp_path, [slice_request(entry), bad]
        )
        code = main(["batch", batch, "--strict", "--workers", "1"])
        assert code == 1
        assert "1 permanent failure(s)" in capsys.readouterr().err

    def test_strict_recovered_exits_0(self, tmp_path, capsys):
        from repro.cli import main

        entry = PAPER_PROGRAMS["fig1a"]
        batch = self._write_batch(tmp_path, [slice_request(entry)] * 2)
        plan = self._write_plan(
            tmp_path,
            {"rules": [{"kind": "error", "op": "slice", "first_n": 1}]},
        )
        code = main(
            [
                "batch", batch, "--strict", "--workers", "1",
                "--max-retries", "3", "--backoff", "0.01",
                "--retry-seed", "1", "--fault-plan", plan,
            ]
        )
        assert code == 0

    def test_degrade_flag_threads_through(self, tmp_path, capsys):
        from repro.cli import main

        entry = PAPER_PROGRAMS["fig1a"]
        batch = self._write_batch(tmp_path, [slice_request(entry)])
        plan = self._write_plan(tmp_path, EXHAUST_EVERY_SLICE)
        code = main(
            ["batch", batch, "--workers", "1", "--fault-plan", plan]
        )
        assert code == 0
        out = capsys.readouterr().out
        response = json.loads(out.splitlines()[0])
        assert response["ok"]
        assert response["result"]["degraded"] is True


class TestConcurrentHammer:
    def test_mixed_load_yields_schema_valid_responses_and_stats(self):
        """Satellite (d): hammer one engine from many threads with a
        valid/invalid/oversized/fault-injected mix; every response is
        schema-valid and the ``/stats`` counters reconcile exactly."""
        entries = sorted(PAPER_PROGRAMS.items())
        plan = FaultPlan.from_dict(
            {
                "seed": 13,
                "rules": [
                    {"kind": "error", "op": "compare", "every": 2},
                    {
                        "kind": "exhaust-budget",
                        "op": "slice",
                        "every": 1,
                    },
                ],
            }
        )
        limits = EngineLimits(
            deadline_seconds=30.0, max_source_bytes=4096
        )
        requests = []
        for index in range(60):
            name, entry = entries[index % len(entries)]
            kind = index % 5
            if kind == 0:
                requests.append(slice_request(entry))
            elif kind == 1:
                line, var = entry.criterion
                requests.append(
                    {
                        "op": "compare",
                        "source": entry.source,
                        "line": line,
                        "var": var,
                    }
                )
            elif kind == 2:  # invalid: bad line
                bad = dict(slice_request(entry))
                bad["line"] = 10**6
                requests.append(bad)
            elif kind == 3:  # invalid: protocol garbage
                requests.append({"op": "slice", "source": entry.source})
            else:  # oversized program
                requests.append(
                    {
                        "op": "slice",
                        "source": "v0 = 1;\n" * 1024,
                        "line": 1,
                        "var": "v0",
                    }
                )
        with SlicingEngine(workers=4, limits=limits, faults=plan) as engine:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(
                    pool.map(engine.handle_payload, requests)
                )
            snapshot = engine.stats_payload()
        assert len(responses) == len(requests)
        observed_errors = 0
        observed_degraded = 0
        by_code = {}
        for response in responses:
            assert_schema_valid(response)
            if not response["ok"]:
                observed_errors += 1
                code = response["error"]["code"]
                by_code[code] = by_code.get(code, 0) + 1
            elif response.get("result", {}).get("degraded"):
                observed_degraded += 1
        events = snapshot["events"]
        # Reconciliation: engine-recorded outcomes match what clients
        # saw.  Requests that fail before the per-op timer — protocol
        # parse failures and oversized-source rejections — are the only
        # ones missing from the requests counters (nothing was shed:
        # no in-flight limit was configured here).
        assert events.get("degraded", 0) == observed_degraded
        assert observed_degraded > 0
        pre_timer = by_code.get("protocol-error", 0) + by_code.get(
            "payload-too-large", 0
        )
        assert pre_timer > 0  # the mix really exercised both
        assert (
            sum(snapshot["requests"].values())
            == len(requests) - pre_timer
        )
        # Errors that reached the timer (slice-error, fault-injected,
        # unrecoverable budget errors) are in the errors counters.
        assert (
            sum(snapshot["errors"].values())
            == observed_errors - pre_timer
        )
        # The fault plan's own ledger matches the engine events.
        fault_fired = sum(
            rule["fired"]
            for rule in snapshot["faults"]["rules"]
            if rule["kind"] == "error"
        )
        assert fault_fired == events.get("fault-injected", 0)
