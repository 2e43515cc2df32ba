"""Integration tests for crash-tolerant multi-process serving.

Real processes, real sockets: each supervisor test forks worker
processes of the module under test and talks to the front door over
HTTP.  The headline properties (the acceptance criteria of the
robustness milestone):

* a batch sent while a ``worker-crash`` fault plan is active completes
  with **zero wrong results** — the supervisor detects the exit-70
  deaths, restarts each crashed shard exactly once, and the client's
  retries bridge the gap;
* a **restarted** cluster over the same store root serves its warm set
  byte-identically from disk, without recomputing;
* during a graceful drain ``/readyz`` flips to 503 (with Retry-After)
  and POSTs are refused with a *retryable* envelope, while ``/healthz``
  keeps answering 200 — liveness and readiness are different questions;
* a corrupted store entry is quarantined and recomputed, never served.
"""

import gc
import json
import os
import signal
import time
import urllib.request
import warnings

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.service.client import ServiceClient
from repro.service.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    shard_for,
)
from repro.service.engine import SlicingEngine
from repro.service.faults import FaultPlan
from repro.service.resilience import RetryPolicy
from repro.service.server import make_server
from repro.service.store import DurableStore

CRASH_ONCE = {
    "rules": [{"kind": "worker-crash", "op": "slice", "first_n": 1}]
}


def slice_payload(entry, algorithm="agrawal"):
    line, var = entry.criterion
    return {
        "op": "slice",
        "source": entry.source,
        "line": line,
        "var": var,
        "algorithm": algorithm,
    }


def fast_config(**overrides):
    defaults = dict(
        workers=2,
        port=0,
        heartbeat_interval=0.2,
        backoff_base=0.05,
        drain_seconds=5.0,
        verbose=False,
        seed=11,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@pytest.fixture
def corpus():
    return sorted(PAPER_PROGRAMS.items())


class TestShardFor:
    def test_deterministic_and_in_range(self, corpus):
        for _, entry in corpus:
            shard = shard_for(entry.source, 4)
            assert shard == shard_for(entry.source, 4)
            assert 0 <= shard < 4

    def test_single_worker_degenerates_to_zero(self, corpus):
        assert all(
            shard_for(entry.source, 1) == 0 for _, entry in corpus
        )

    def test_corpus_spreads_over_shards(self, corpus):
        shards = {shard_for(entry.source, 2) for _, entry in corpus}
        assert shards == {0, 1}


class TestClusterServing:
    @pytest.fixture
    def cluster(self, tmp_path):
        config = fast_config(store_root=str(tmp_path / "store"))
        supervisor = ClusterSupervisor(config)
        supervisor.start()
        client = ServiceClient(
            f"http://127.0.0.1:{supervisor.port}",
            retry=RetryPolicy(
                max_retries=4, backoff_seconds=0.1, seed=3
            ),
        )
        try:
            yield supervisor, client
        finally:
            supervisor.stop(drain=True)

    def test_slice_matches_local_engine(self, cluster, corpus):
        supervisor, client = cluster
        name, entry = corpus[1]  # fig3a
        response = client.post(slice_payload(entry))
        assert response["ok"], response
        with SlicingEngine() as engine:
            local = engine.handle_payload(slice_payload(entry))
        assert response["result"] == local["result"]

    def test_requests_route_by_content_hash(self, cluster, corpus):
        """Shard affinity: every repetition of one program lands on the
        same worker, so its analysis cache is reused."""
        supervisor, client = cluster
        _, entry = corpus[0]
        shard = shard_for(entry.source, supervisor.config.workers)
        before = supervisor.cluster_snapshot()["worker_stats"]
        for _ in range(3):
            assert client.post(slice_payload(entry))["ok"]
        after = supervisor.cluster_snapshot()["worker_stats"]
        delta = [
            after[i]["requests"] - before[i]["requests"]
            for i in range(supervisor.config.workers)
        ]
        assert delta[shard] == 3
        assert sum(delta) == 3

    def test_batch_is_merged_in_input_order(self, cluster, corpus):
        supervisor, client = cluster
        payloads = [slice_payload(entry) for _, entry in corpus]
        body = json.dumps({"requests": payloads}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{supervisor.port}/batch",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as reply:
            merged = json.loads(reply.read())
        assert merged["ok"]
        assert len(merged["responses"]) == len(payloads)
        for payload, response in zip(payloads, merged["responses"]):
            assert response["ok"], response
            assert response["result"]["criterion"]["line"] == (
                payload["line"]
            )

    def test_stats_aggregate_across_workers(self, cluster, corpus):
        supervisor, client = cluster
        for _, entry in corpus[:3]:
            assert client.post(slice_payload(entry))["ok"]
        status, stats = client.get("/stats")
        assert status == 200
        total = sum(
            count
            for op, count in stats["requests"].items()
            if op.startswith("slice:")
        )
        assert total >= 3
        assert stats["cluster"]["workers"] == 2
        assert stats["cluster"]["alive"] == 2
        assert len(stats["cluster"]["worker_stats"]) == 2
        assert stats["store"]["puts"] >= 3

    def test_every_response_carries_request_id(self, cluster, corpus):
        """The front door keeps the single-process server's promise:
        every response, GET routes and errors included, echoes the
        client's ``X-Request-Id`` (or a generated one), and the id is
        forwarded to the worker that answers."""
        import http.client

        supervisor, _ = cluster
        _, entry = corpus[1]
        body = json.dumps(slice_payload(entry)).encode()

        def exchange(method, path, payload=None, request_id=None):
            connection = http.client.HTTPConnection(
                "127.0.0.1", supervisor.port, timeout=30
            )
            headers = {"X-Request-Id": request_id} if request_id else {}
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                response.read()
                return response.status, response.getheader("X-Request-Id")
            finally:
                connection.close()

        assert exchange("POST", "/slice", body, "front-1") == (200, "front-1")
        for path, status in (("/healthz", 200), ("/stats", 200),
                             ("/metrics.prom", 200), ("/no-such", 404)):
            assert exchange("GET", path, request_id=f"get{path}") == (
                status, f"get{path}"
            )
        assert exchange("POST", "/no-such", b"{}", "bad-1") == (404, "bad-1")
        status, generated = exchange("POST", "/slice", body)
        assert status == 200 and generated
        _, headers, _ = supervisor.proxy(
            "slice", body, entry.source, request_id="to-worker"
        )
        assert headers["X-Request-Id"] == "to-worker"

    def test_prometheus_exposes_cluster_families(self, cluster):
        supervisor, _ = cluster
        url = f"http://127.0.0.1:{supervisor.port}/metrics.prom"
        with urllib.request.urlopen(url, timeout=10) as reply:
            text = reply.read().decode()
        assert "slang_cluster_workers 2" in text
        assert "slang_cluster_workers_alive 2" in text
        assert 'slang_cluster_restarts_total{shard="0"}' in text
        assert "slang_store_bytes" in text
        assert "slang_incremental_units_built_total" in text

    def test_drain_refuses_posts_but_stays_alive(
        self, cluster, corpus
    ):
        supervisor, client = cluster
        _, entry = corpus[0]
        assert client.post(slice_payload(entry))["ok"]
        # Flip the drain flag without tearing the front door down (stop()
        # would close the socket we are probing).
        supervisor._draining = True
        try:
            status, ready = client.get("/readyz")
            assert status == 503
            assert ready["ok"] is False and ready["draining"] is True
            status, health = client.get("/healthz")
            assert status == 200 and health["ok"] is True
            refused = client.post(slice_payload(entry))
            assert refused["ok"] is False
            assert refused["error"]["code"] == "overloaded"
            assert refused["error"]["retryable"] is True
            assert refused["error"]["retry_after"] > 0
        finally:
            supervisor._draining = False
        assert client.post(slice_payload(entry))["ok"]


class TestCrashRecovery:
    def test_batch_completes_through_worker_crashes(
        self, tmp_path, corpus
    ):
        """The chaos acceptance criterion, in miniature: every worker's
        first slice request kills it (exit 70); the batch still returns
        only correct results, each shard restarts exactly once, and the
        pool is fully healed afterwards."""
        config = fast_config(
            store_root=str(tmp_path / "store"), faults=CRASH_ONCE
        )
        supervisor = ClusterSupervisor(config)
        supervisor.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{supervisor.port}",
                retry=RetryPolicy(
                    max_retries=6, backoff_seconds=0.2, seed=7
                ),
            )
            payloads = [
                slice_payload(entry) for _, entry in corpus
            ] * 2
            with SlicingEngine() as engine:
                expected = [
                    engine.handle_payload(p) for p in payloads
                ]
            responses = client.run_batch(payloads, concurrency=4)
            for response, want in zip(responses, expected):
                assert response["ok"], response
                assert response["result"] == want["result"]
            snapshot = supervisor.cluster_snapshot()
            assert snapshot["restarts"] >= 1
            for worker in snapshot["worker_stats"]:
                assert worker["restarts"] <= 1  # crash-once plan
                assert worker["alive"]
            stats = supervisor.stats_payload()
            assert stats["store"]["quarantined"] == 0
            assert client.stats()["recovered"] >= 1
        finally:
            supervisor.stop(drain=True)


class TestWorkerPipes:
    def test_restart_leaks_no_stdout_pipe(self):
        """The handshake is the only thing a worker writes to its stdout
        pipe, so the supervisor closes the pipe once the handshake is
        read.  Before that, each restart dropped a ``Popen`` with its
        pipe still open, and the collector reported the leak."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            supervisor = ClusterSupervisor(fast_config(workers=1))
            supervisor.start()
            try:
                worker = supervisor._workers[0]
                first = worker.proc
                assert first.stdout.closed
                os.kill(first.pid, signal.SIGKILL)
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline and not (
                    worker.restarts >= 1 and worker.alive
                ):
                    time.sleep(0.05)
                assert worker.restarts >= 1 and worker.alive
                assert worker.proc is not first
                assert worker.proc.stdout.closed
            finally:
                supervisor.stop(drain=True)
            del first, worker
            gc.collect()
        leaks = [
            str(entry.message)
            for entry in caught
            if issubclass(entry.category, ResourceWarning)
        ]
        assert leaks == []


class TestWarmRestart:
    def test_restarted_cluster_serves_warm_set_from_disk(
        self, tmp_path, corpus
    ):
        """Durability across a full restart: a new supervisor over the
        same store root answers the previous lifetime's requests
        byte-identically, from disk, without recomputing."""
        root = str(tmp_path / "store")
        payloads = [slice_payload(entry) for _, entry in corpus]

        config = fast_config(store_root=root)
        first = ClusterSupervisor(config)
        first.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{first.port}")
            cold = [client.post(p) for p in payloads]
            assert all(r["ok"] for r in cold)
        finally:
            first.stop(drain=True)

        second = ClusterSupervisor(fast_config(store_root=root))
        second.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{second.port}")
            warm = [client.post(p) for p in payloads]
            for before, after in zip(cold, warm):
                assert json.dumps(
                    after["result"], sort_keys=True
                ) == json.dumps(before["result"], sort_keys=True)
            stats = second.stats_payload()
            assert stats["store"]["hits"] == len(payloads)
            assert stats["store"]["quarantined"] == 0
        finally:
            second.stop(drain=True)


class TestStoreCorruptionFault:
    def test_corrupt_entry_is_quarantined_and_recomputed(
        self, tmp_path, corpus
    ):
        """``store-corruption`` end to end through the engine: the
        armed put writes a bad entry; a fresh engine over the same root
        detects the checksum mismatch and quarantines it — the corrupt
        bytes are never returned — and recomputes the slice, which
        equals the poisoned run's fresh computation."""
        root = str(tmp_path / "store")
        _, entry = corpus[1]
        payload = slice_payload(entry)
        plan = FaultPlan.from_dict(
            {"rules": [{"kind": "store-corruption", "op": "slice",
                        "first_n": 1}]}
        )
        with SlicingEngine(
            store=DurableStore(root), faults=plan
        ) as engine:
            poisoned = engine.handle_payload(payload)
            assert poisoned["ok"]  # the response itself is computed fresh
        with SlicingEngine(store=DurableStore(root)) as engine:
            recovered = engine.handle_payload(payload)
            assert recovered["ok"]
            assert recovered["result"] == poisoned["result"]
            store_stats = engine.stats_payload()["store"]
            assert store_stats["quarantined"] == 1
            assert store_stats["hits"] == 0


class TestSingleServerDrain:
    def test_readyz_and_posts_flip_on_drain(self, corpus):
        """Satellite: the single-process server's graceful drain —
        ``/readyz`` 503 with Retry-After and retryable POST refusals,
        ``/healthz`` still 200 (the process is alive, just leaving)."""
        _, entry = corpus[1]
        with SlicingEngine() as engine:
            server = make_server("127.0.0.1", 0, engine)
            import threading

            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                client = ServiceClient(
                    f"http://127.0.0.1:{server.server_address[1]}"
                )
                status, ready = client.get("/readyz")
                assert status == 200 and ready["ok"]
                assert client.post(slice_payload(entry))["ok"]

                engine.begin_drain()
                status, ready = client.get("/readyz")
                assert status == 503
                assert ready["draining"] is True
                status, health = client.get("/healthz")
                assert status == 200
                refused = client.post(slice_payload(entry))
                assert refused["ok"] is False
                assert refused["error"]["code"] == "overloaded"
                assert refused["error"]["retryable"] is True
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5.0)
