"""Persistent HTTP connections at every hop (DESIGN.md §18).

Each test runs against both servers that share
:class:`repro.service.edge.EdgeHandler`: the single-process server from
``make_server`` and the front door of a one-worker cluster.  The
properties:

* sequential requests on one connection do not stall on Nagle's
  algorithm meeting the client's delayed ACK (~40 ms each);
* a response sent without reading the request body closes the
  connection, so the unread body never becomes the next request line;
* ``ServiceClient`` reuses one connection for sequential posts, and a
  pooled connection the server closed (a restart) is re-sent on a fresh
  connection without counting as a retry.
"""

import http.client
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.service import cluster as cluster_module
from repro.service.client import ServiceClient
from repro.service.cluster import ClusterConfig, ClusterSupervisor
from repro.service.edge import ConnectionPool
from repro.service.protocol import dump_json
from repro.service.server import SlicingHTTPServer

ENTRY = PAPER_PROGRAMS["fig3a"]


def slice_payload():
    line, var = ENTRY.criterion
    return {"op": "slice", "source": ENTRY.source, "line": line, "var": var}


class CountingServer(SlicingHTTPServer):
    """Counts accepted connections (the accept loop is one thread)."""

    connections = 0

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


class CountingFrontDoor(cluster_module._SupervisorHTTPServer):
    connections = 0

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


def start_single(port=0):
    server = CountingServer(("127.0.0.1", port))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def stop_single(server):
    server.shutdown()
    server.server_close()
    server.engine.close()


class Target:
    """A running server: its port and accepted-connection counter."""

    def __init__(self, kind, port, counter, supervisor=None):
        self.kind = kind
        self.port = port
        self.counter = counter
        self.supervisor = supervisor

    @property
    def connections(self):
        return self.counter.connections


@pytest.fixture(scope="module", params=["single", "cluster"])
def target(request):
    if request.param == "single":
        server = start_single()
        yield Target("single", server.server_address[1], server)
        stop_single(server)
        return
    patch = pytest.MonkeyPatch()
    patch.setattr(cluster_module, "_SupervisorHTTPServer", CountingFrontDoor)
    try:
        supervisor = ClusterSupervisor(
            ClusterConfig(
                workers=1,
                port=0,
                heartbeat_interval=0.2,
                backoff_base=0.05,
                drain_seconds=5.0,
                verbose=False,
            )
        )
    finally:
        patch.undo()
    supervisor.start()
    try:
        yield Target(
            "cluster", supervisor.port, supervisor._server, supervisor
        )
    finally:
        supervisor.stop(drain=True)


def raw_request(method, path, headers=(), body=b""):
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    lines += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def exchange(sock, data):
    """Send *data*, read one response: ``(response, body)``."""
    sock.sendall(data)
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response, response.read()


BODY = b'{"op": "slice"}'

#: Requests each server answers without reading the body.
BAD_FRAMING = {
    "unknown-endpoint": (
        raw_request("POST", "/nope", [("Content-Length", len(BODY))], BODY),
        404,
    ),
    "non-integer-length": (
        raw_request("POST", "/slice", [("Content-Length", "abc")], BODY),
        400,
    ),
    "oversized-length": (
        raw_request("POST", "/slice", [("Content-Length", 10**9)], BODY),
        413,
    ),
    "missing-length": (raw_request("POST", "/slice", [], BODY), 411),
}


class TestOneConnection:
    def test_sequential_requests_do_not_stall(self, target):
        """20 slices on one connection: ~44 ms each after the first
        when the response's body waits for the client's delayed ACK."""
        body = dump_json(slice_payload()).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        conn = http.client.HTTPConnection("127.0.0.1", target.port, timeout=30)
        try:
            conn.request("POST", "/slice", body=body, headers=headers)
            assert conn.getresponse().read()  # warm the caches
            sock = conn.sock
            started = time.perf_counter()
            for _ in range(20):
                conn.request("POST", "/slice", body=body, headers=headers)
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - started
            assert conn.sock is sock, "the server closed the connection"
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 requests took {elapsed * 1000:.0f} ms"

    @pytest.mark.parametrize("case", sorted(BAD_FRAMING))
    def test_unread_body_closes_the_connection(self, target, case):
        data, status = BAD_FRAMING[case]
        with socket.create_connection(
            ("127.0.0.1", target.port), timeout=10
        ) as sock:
            response, body = exchange(sock, data)
            assert response.status == status
            assert b'"ok": false' in body
            assert response.getheader("Connection") == "close"
            try:
                after, _ = exchange(
                    sock, raw_request("GET", "/healthz")
                )
            except (ConnectionError, http.client.RemoteDisconnected):
                return  # the socket was closed: fine
            assert after.status == 200, (
                f"the unread body was parsed as a request: {after.status}"
            )

    def test_good_requests_keep_the_connection(self, target):
        with socket.create_connection(
            ("127.0.0.1", target.port), timeout=10
        ) as sock:
            for _ in range(3):
                response, _ = exchange(sock, raw_request("GET", "/healthz"))
                assert response.status == 200
                assert response.getheader("Connection") is None


class TestServiceClientPool:
    def test_sequential_posts_open_one_connection(self, target):
        with ServiceClient(f"http://127.0.0.1:{target.port}") as client:
            before = target.connections
            for _ in range(50):
                assert client.post(slice_payload())["ok"]
        assert target.connections - before == 1
        assert client.stats()["connect_errors"] == 0

    def test_concurrent_callers_share_the_pool(self, target):
        """More callers than cores and frequent thread switches: a
        connection handed to two callers at once would fail a post, and
        the pool never opens more connections than there are callers."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceClient(f"http://127.0.0.1:{target.port}") as client:
                before = target.connections
                responses = client.run_batch(
                    [slice_payload() for _ in range(200)], concurrency=8
                )
        finally:
            sys.setswitchinterval(interval)
        assert all(response["ok"] for response in responses)
        assert client.stats()["connect_errors"] == 0
        assert target.connections - before <= 8

    @pytest.mark.parametrize("target", ["cluster"], indirect=True)
    def test_front_door_reuses_worker_connections(self, target, monkeypatch):
        opened = []
        connect = ConnectionPool._connect

        def counting_connect(pool, timeout):
            opened.append(pool.port)
            return connect(pool, timeout)

        monkeypatch.setattr(ConnectionPool, "_connect", counting_connect)
        with ServiceClient(f"http://127.0.0.1:{target.port}") as client:
            for _ in range(50):
                assert client.post(slice_payload())["ok"]
        worker_port = target.supervisor._workers[0].port
        # The heartbeat may hold the worker's one idle connection while
        # a post needs it: at most one more.
        assert opened.count(worker_port) <= 2
        assert opened.count(target.port) == 1


class ClosingServer:
    """Answers the first request with a keep-alive 200 and then closes
    that connection; every later connection is closed unanswered."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.accepted = 0
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            with conn, conn.makefile("rb") as request:
                length = 0
                for line in iter(request.readline, b"\r\n"):
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                request.read(length)
                if self.accepted == 1:
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n"
                        b"\r\n" + b'{"ok": true}'
                    )

    def close(self):
        self.listener.close()


class TestStaleConnections:
    def test_stale_connection_is_resent_once(self):
        """The re-send happens once, on a fresh connection; when that
        one fails too, the failure is an ordinary transport error."""
        server = ClosingServer()
        try:
            with ServiceClient(f"http://127.0.0.1:{server.port}") as client:
                assert client.post(slice_payload()) == {"ok": True}
                envelope = client.post(slice_payload())
        finally:
            server.close()
        assert envelope["error"]["code"] == "connection-failed"
        assert server.accepted == 2
        assert client.stats()["connect_errors"] == 1
        assert client.stats()["retries"] == 0

    def test_server_restart_on_the_same_port(self):
        """The pooled connection dies with the first server; the post
        that meets it is re-sent on a fresh connection, not retried."""
        server = start_single()
        port = server.server_address[1]
        with ServiceClient(f"http://127.0.0.1:{port}") as client:
            try:
                assert client.post(slice_payload())["ok"]
            finally:
                stop_single(server)
            server = start_single(port)
            try:
                assert client.post(slice_payload())["ok"]
                assert server.connections == 1
            finally:
                stop_single(server)
        stats = client.stats()
        assert stats["retries"] == 0 and stats["connect_errors"] == 0

    def test_server_close_ends_idle_connections(self):
        """Without this, an idle connection's handler thread outlives
        the closed server and keeps answering on that connection."""
        server = start_single()
        with socket.create_connection(
            server.server_address, timeout=5
        ) as sock:
            response, _ = exchange(sock, raw_request("GET", "/healthz"))
            assert response.status == 200
            stop_single(server)
            assert sock.recv(1) == b""

    def test_draining_refusal_closes_the_connection(self):
        server = start_single()
        try:
            server.engine.begin_drain()
            body = dump_json(slice_payload()).encode("utf-8")
            with socket.create_connection(
                server.server_address, timeout=10
            ) as sock:
                response, _ = exchange(
                    sock,
                    raw_request(
                        "POST", "/slice", [("Content-Length", len(body))], body
                    ),
                )
                assert response.status == 503
                assert response.getheader("Retry-After")
                assert response.getheader("Connection") == "close"
        finally:
            stop_single(server)

    def test_restarted_worker_gets_a_new_pool(self):
        supervisor = ClusterSupervisor(
            ClusterConfig(
                workers=1,
                port=0,
                heartbeat_interval=0.1,
                backoff_base=0.05,
                drain_seconds=5.0,
                verbose=False,
            )
        )
        supervisor.start()
        try:
            with ServiceClient(f"http://127.0.0.1:{supervisor.port}") as client:
                assert client.post(slice_payload())["ok"]
                worker = supervisor._workers[0]
                old_pid, old_pool = worker.proc.pid, worker.pool
                os.kill(old_pid, signal.SIGKILL)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if worker.alive and worker.proc.pid != old_pid:
                        break
                    time.sleep(0.05)
                assert worker.alive and worker.proc.pid != old_pid
                assert worker.pool is not old_pool
                assert client.post(slice_payload())["ok"]
                assert client.stats()["retries"] == 0
        finally:
            supervisor.stop(drain=True)
