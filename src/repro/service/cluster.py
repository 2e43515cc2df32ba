"""Supervised multi-process serving: the cluster layer (DESIGN.md §13).

``slang serve --workers N`` (N > 1) runs this module instead of a bare
:class:`~repro.service.server.SlicingHTTPServer`:

* The **supervisor** (parent) binds the front socket and proxies every
  request to one of *N* **workers** — separate Python processes, each
  running the ordinary single-process server on its own loopback port.
  The GIL stops being the ceiling: analyses run truly in parallel.
* Requests are **sharded by program content hash** (the ``source``
  field), so repeated slices of one program always land on the worker
  whose analysis cache, closure index, and slice memo are already hot
  for it.  ``/batch`` bodies are split per shard, forwarded
  concurrently, and merged back in input order.
* The supervisor **monitors** its workers: a dead process (crash,
  ``SIGKILL``, the ``worker-crash`` fault) or one that stops answering
  ``/healthz`` past the heartbeat deadline is killed and **restarted
  with jittered exponential backoff**; a crash loop (too many restarts
  inside a sliding window) opens a **circuit breaker** that parks the
  shard for a cooldown instead of burning CPU on a worker that cannot
  live.  Requests for an unavailable shard are answered with a
  *retryable* 503 + ``Retry-After`` — the client's backoff, not the
  supervisor, absorbs the restart gap.
* On ``SIGTERM``/``SIGINT`` the supervisor **drains**: it stops
  accepting work (front ``/readyz`` goes 503, new POSTs are refused),
  forwards ``SIGTERM`` so each worker finishes its in-flight requests
  (the worker's own drain path), waits up to the drain deadline, then
  kills stragglers and exits.

Workers share one :class:`~repro.service.store.DurableStore` root, so a
restarted worker — or a whole restarted cluster — answers its warm set
from disk without recomputing anything (the two-tier read path in
:mod:`repro.service.engine`).

The worker entrypoint is this same module: the supervisor spawns
``python -m repro.service.cluster --worker '<json>'``; the child binds
port 0, prints one ``SLANG_WORKER_PORT=<port>`` handshake line on
stdout, and serves until told to drain.  Everything is stdlib.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.prom import PROM_CONTENT_TYPE, render_prometheus
from repro.service.edge import (
    MAX_BODY_BYTES,
    ConnectionPool,
    EdgeHandler,
    EdgeServer,
    retry_after_header,
)
from repro.service.protocol import (
    ProtocolError,
    capabilities_payload,
    dump_json,
    error_envelope,
)
from repro.service.resilience import OverloadedError
from repro.service.stats import merge_stats_payloads

_HANDSHAKE_PREFIX = b"SLANG_WORKER_PORT="

#: POST endpoints the supervisor will proxy.
_PROXY_OPS = ("slice", "compare", "graph", "metrics", "check")


def shard_for(source: str, workers: int) -> int:
    """The worker index owning *source* — a stable content hash, so one
    program's requests always reuse the same worker's warm caches."""
    digest = hashlib.sha256(source.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % workers


@dataclass
class ClusterConfig:
    """Everything the supervisor and its workers need to agree on."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8377
    threads: Optional[int] = None  # per-worker thread-pool width
    store_root: Optional[str] = None
    store_max_bytes: Optional[int] = None
    faults: Optional[Dict[str, Any]] = None  # FaultPlan dict, per worker
    #: Re-arm the fault plan in restarted workers.  Off by default: a
    #: crash is an incident, not a property of the replacement process —
    #: a chaos plan with ``worker-crash`` kills each worker at most its
    #: scheduled number of times and the pool then heals, instead of
    #: every replacement re-crashing on its own first match forever.
    faults_on_restart: bool = False
    limits: Dict[str, Any] = field(default_factory=dict)  # EngineLimits kwargs
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 5.0
    spawn_timeout: float = 30.0
    drain_seconds: float = 10.0
    backoff_base: float = 0.2
    backoff_max: float = 5.0
    backoff_jitter: float = 0.5
    breaker_threshold: int = 5  # restarts inside the window that trip it
    breaker_window: float = 30.0
    breaker_cooldown: float = 30.0
    request_timeout: float = 60.0
    retry_after: float = 0.25  # named in unavailable-shard refusals
    seed: int = 0
    verbose: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("a cluster needs at least one worker")

    def worker_payload(self) -> Dict[str, Any]:
        """The JSON config one worker process receives on its argv."""
        return {
            "host": "127.0.0.1",
            "threads": self.threads,
            "store_root": self.store_root,
            "store_max_bytes": self.store_max_bytes,
            "faults": self.faults,
            "limits": self.limits,
            "drain_seconds": self.drain_seconds,
        }


class _Worker:
    """Supervisor-side state of one worker slot (a shard)."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        #: Persistent connections to this worker's port; a restarted
        #: worker listens on a new port and gets a new pool.
        self.pool: Optional[ConnectionPool] = None
        self.restarts = 0  # lifetime restart count (spawn #0 not counted)
        self.requests = 0  # requests proxied to this shard
        self.proxy_errors = 0
        self.restart_times: List[float] = []  # breaker window
        self.restart_at: Optional[float] = None  # pending backoff deadline
        self.broken_until: Optional[float] = None  # breaker open until
        self.consecutive_failures = 0
        self.last_ok: Optional[float] = None  # last healthz success
        self.spawned_at: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "pid": self.proc.pid if self.proc else None,
            "port": self.port,
            "alive": self.alive,
            "restarts": self.restarts,
            "requests": self.requests,
            "proxy_errors": self.proxy_errors,
            "breaker_open": self.broken_until is not None,
        }


class ClusterSupervisor:
    """The parent process: front socket, worker pool, heartbeat loop."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._workers = [_Worker(shard) for shard in range(config.workers)]
        self._lock = threading.Lock()
        self._draining = False
        self._stopped = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self.restarts_logged = 0
        self.proxy_errors = 0
        self._server = _SupervisorHTTPServer(
            (config.host, config.port), self
        )
        self._server_thread: Optional[threading.Thread] = None

    # -- logging -------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.config.verbose:
            sys.stderr.write(f"[slang-cluster] {message}\n")
            sys.stderr.flush()

    # -- properties ----------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def draining(self) -> bool:
        return self._draining

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn every worker, start the monitor, serve in background."""
        for worker in self._workers:
            self._spawn(worker)
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="slang-monitor", daemon=True
        )
        self._monitor_thread.start()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="slang-front",
            daemon=True,
        )
        self._server_thread.start()
        self._log(
            f"supervising {len(self._workers)} worker(s) on "
            f"{self.config.host}:{self.port}"
        )

    def serve_forever(self) -> None:
        """Blocking entrypoint for the CLI: installs signal handlers
        (main thread only), serves until a signal drains us."""

        def _on_signal(signum: int, frame: Any) -> None:
            self._log(f"received signal {signum}; draining")
            threading.Thread(
                target=self.stop, kwargs={"drain": True}, daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        self.start()
        self._stopped.wait()

    def stop(self, drain: bool = True) -> None:
        """Drain (or just kill) the pool and shut the front door."""
        with self._lock:
            if self._draining and self._stopped.is_set():
                return
            self._draining = True
        deadline = time.monotonic() + (
            self.config.drain_seconds if drain else 0.0
        )
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.proc.send_signal(
                        signal.SIGTERM if drain else signal.SIGKILL
                    )
                except OSError:
                    pass
        for worker in self._workers:
            if worker.proc is None:
                continue
            remaining = deadline - time.monotonic()
            try:
                worker.proc.wait(timeout=max(0.0, remaining))
            except subprocess.TimeoutExpired:
                self._log(
                    f"worker {worker.shard} missed the drain deadline; "
                    "killing"
                )
                try:
                    worker.proc.kill()
                    worker.proc.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        self._server.shutdown()
        self._server.server_close()
        for worker in self._workers:
            if worker.pool is not None:
                worker.pool.close()
        self._stopped.set()
        self._log("drained and stopped")

    # -- spawning and monitoring ---------------------------------------

    def _spawn(self, worker: _Worker) -> bool:
        """Start one worker process and wait for its port handshake."""
        payload = self.config.worker_payload()
        if worker.restarts > 0 and not self.config.faults_on_restart:
            payload["faults"] = None
        env = dict(os.environ)
        # The child must import repro exactly as we did, wherever the
        # supervisor was launched from.
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
        try:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.service.cluster",
                    "--worker",
                    json.dumps(payload),
                ],
                stdout=subprocess.PIPE,
                env=env,
            )
        except OSError as error:
            self._log(f"worker {worker.shard} failed to spawn: {error}")
            self._schedule_restart(worker, "spawn-failed")
            return False
        try:
            port = self._read_handshake(proc)
        finally:
            # The handshake is all the pipe carries: the worker points
            # its stdout at stderr once it has printed it.
            proc.stdout.close()
        if port is None:
            self._log(
                f"worker {worker.shard} (pid {proc.pid}) never "
                "handshook; killing"
            )
            try:
                proc.kill()
                proc.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
            self._schedule_restart(worker, "handshake-timeout")
            return False
        worker.port = port
        worker.pool = ConnectionPool(
            "127.0.0.1", port, self.config.request_timeout
        )
        worker.proc = proc
        worker.restart_at = None
        worker.spawned_at = time.monotonic()
        worker.last_ok = None
        self._log(
            f"worker {worker.shard} (pid {proc.pid}) serving on "
            f"127.0.0.1:{port}"
        )
        return True

    def _read_handshake(self, proc: subprocess.Popen) -> Optional[int]:
        """The child's ``SLANG_WORKER_PORT=`` line, within the spawn
        deadline — non-blocking so a wedged child cannot wedge us."""
        deadline = time.monotonic() + self.config.spawn_timeout
        stdout = proc.stdout
        os.set_blocking(stdout.fileno(), False)
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    return None
                if not selector.select(timeout=0.05):
                    continue
                chunk = stdout.read()
                if chunk:
                    buffer += chunk
                if b"\n" in buffer:
                    line, _, _ = buffer.partition(b"\n")
                    if line.startswith(_HANDSHAKE_PREFIX):
                        try:
                            return int(line[len(_HANDSHAKE_PREFIX):])
                        except ValueError:
                            return None
                    return None
        return None

    def _schedule_restart(self, worker: _Worker, reason: str) -> None:
        """Queue a backoff-delayed restart, or trip the breaker."""
        now = time.monotonic()
        worker.proc = None
        worker.port = None
        if worker.pool is not None:
            worker.pool.close()
            worker.pool = None
        worker.consecutive_failures += 1
        worker.restart_times.append(now)
        window = now - self.config.breaker_window
        worker.restart_times = [
            moment for moment in worker.restart_times if moment >= window
        ]
        if len(worker.restart_times) > self.config.breaker_threshold:
            worker.broken_until = now + self.config.breaker_cooldown
            worker.restart_at = None
            self._log(
                f"worker {worker.shard} is crash-looping "
                f"({len(worker.restart_times)} restarts in "
                f"{self.config.breaker_window:g}s); circuit breaker open "
                f"for {self.config.breaker_cooldown:g}s ({reason})"
            )
            return
        delay = min(
            self.config.backoff_max,
            self.config.backoff_base
            * (2.0 ** (worker.consecutive_failures - 1)),
        )
        delay *= 1.0 - self.config.backoff_jitter * self._rng.random()
        worker.restart_at = now + delay
        worker.restarts += 1
        self.restarts_logged += 1
        self._log(
            f"restarting worker {worker.shard} in {delay:.2f}s "
            f"(restart #{worker.restarts}, {reason})"
        )

    def _monitor_loop(self) -> None:
        while not self._stopped.is_set():
            if self._draining:
                return
            for worker in self._workers:
                try:
                    self._monitor_one(worker)
                except Exception as error:  # never kill the monitor
                    self._log(
                        f"monitor error on worker {worker.shard}: {error!r}"
                    )
            self._stopped.wait(self.config.heartbeat_interval)

    def _monitor_one(self, worker: _Worker) -> None:
        now = time.monotonic()
        if worker.broken_until is not None:
            if now < worker.broken_until:
                return
            # Half-open: the cooldown expired, try one spawn.
            worker.broken_until = None
            worker.restart_times.clear()
            worker.restart_at = now
            self._log(
                f"worker {worker.shard} circuit breaker half-open; "
                "attempting restart"
            )
        if worker.proc is None:
            if worker.restart_at is not None and now >= worker.restart_at:
                self._spawn(worker)
            return
        status = worker.proc.poll()
        if status is not None:
            self._log(
                f"worker {worker.shard} (pid {worker.proc.pid}) exited "
                f"with status {status}"
            )
            self._schedule_restart(worker, f"exit-{status}")
            return
        # Heartbeat: an alive process that stops answering is a hang.
        healthy = self._healthz(worker)
        if healthy:
            worker.last_ok = now
            if (
                worker.consecutive_failures
                and worker.spawned_at is not None
                and now - worker.spawned_at > self.config.heartbeat_timeout
            ):
                worker.consecutive_failures = 0  # stably back
            return
        reference = worker.last_ok or worker.spawned_at or now
        if now - reference > self.config.heartbeat_timeout:
            self._log(
                f"worker {worker.shard} (pid {worker.proc.pid}) missed "
                f"heartbeats for {now - reference:.1f}s; killing"
            )
            try:
                worker.proc.kill()
            except OSError:
                pass

    def _healthz(self, worker: _Worker) -> bool:
        if worker.port is None:
            return False
        try:
            status, _, _ = self._forward(
                worker, "GET", "/healthz", timeout=self.config.heartbeat_interval + 1.0,
                count_request=False,
            )
            return status == 200
        except (OSError, http.client.HTTPException):
            return False

    # -- proxying ------------------------------------------------------

    def _forward(
        self,
        worker: _Worker,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout: Optional[float] = None,
        count_request: bool = True,
        request_id: Optional[str] = None,
    ) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """One exchange with a worker, on a pooled persistent
        connection: ``(status, headers, body)``.  *request_id* travels
        as ``X-Request-Id``, so the worker's logs and traces carry the
        id the client sees."""
        pool = worker.pool
        if pool is None:
            raise OSError("worker has no port (restarting)")
        if count_request:
            with self._lock:
                worker.requests += 1
        headers = {"X-Request-Id": request_id} if request_id else None
        return pool.request(method, path, body, headers, timeout)

    def proxy(
        self,
        op: str,
        body: bytes,
        source: Optional[str],
        request_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Route one POST to its shard; a dead shard answers retryable.

        Requests without a ``source`` (nothing to shard on) go to the
        first available worker.
        """
        if source is not None:
            worker = self._workers[shard_for(source, len(self._workers))]
        else:
            worker = next(
                (candidate for candidate in self._workers if candidate.alive),
                self._workers[0],
            )
        try:
            return self._forward(
                worker, "POST", f"/{op}", body, request_id=request_id
            )
        except (OSError, http.client.HTTPException) as error:
            with self._lock:
                worker.proxy_errors += 1
                self.proxy_errors += 1
            envelope = error_envelope(
                op,
                OverloadedError(
                    f"worker for this shard is unavailable "
                    f"({error.__class__.__name__}); it is being restarted",
                    retry_after=self.config.retry_after,
                ),
            )
            return (
                503,
                retry_after_header(self.config.retry_after),
                dump_json(envelope).encode("utf-8"),
            )

    def run_batch_sharded(
        self, requests: List[Any], request_id: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Split one batch by shard, forward sub-batches concurrently,
        merge responses back into input order."""
        groups: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            source = (
                request.get("source")
                if isinstance(request, dict)
                else None
            )
            shard = (
                shard_for(source, len(self._workers))
                if isinstance(source, str)
                else 0
            )
            groups.setdefault(shard, []).append(index)
        responses: List[Optional[Dict[str, Any]]] = [None] * len(requests)

        def one_shard(shard: int, indices: List[int]) -> None:
            worker = self._workers[shard]
            body = dump_json(
                {"requests": [requests[index] for index in indices]}
            ).encode("utf-8")
            try:
                status, _, data = self._forward(
                    worker, "POST", "/batch", body, request_id=request_id
                )
                payload = json.loads(data.decode("utf-8"))
                members = payload["responses"]
                if status != 200 or len(members) != len(indices):
                    raise ValueError("bad batch response shape")
            except (
                OSError,
                http.client.HTTPException,
                ValueError,
                KeyError,
                TypeError,
                json.JSONDecodeError,
                UnicodeDecodeError,
            ):
                with self._lock:
                    worker.proxy_errors += 1
                    self.proxy_errors += 1
                members = [
                    error_envelope(
                        requests[index].get("op", "unknown")
                        if isinstance(requests[index], dict)
                        else "unknown",
                        OverloadedError(
                            "worker for this shard is unavailable; "
                            "it is being restarted",
                            retry_after=self.config.retry_after,
                        ),
                    )
                    for index in indices
                ]
            for index, member in zip(indices, members):
                responses[index] = member

        with ThreadPoolExecutor(max_workers=max(1, len(groups))) as pool:
            list(
                pool.map(
                    lambda item: one_shard(item[0], item[1]), groups.items()
                )
            )
        return [response for response in responses if response is not None]

    # -- aggregated observability --------------------------------------

    def cluster_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            worker_stats = [worker.snapshot() for worker in self._workers]
            return {
                "workers": len(self._workers),
                "alive": sum(1 for stat in worker_stats if stat["alive"]),
                "restarts": sum(stat["restarts"] for stat in worker_stats),
                "proxy_errors": self.proxy_errors,
                "draining": self._draining,
                "worker_stats": worker_stats,
            }

    def stats_payload(self) -> Dict[str, Any]:
        """Every live worker's ``/stats`` merged, plus the cluster view."""
        payloads = []
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                _, _, data = self._forward(
                    worker, "GET", "/stats", count_request=False
                )
                payloads.append(json.loads(data.decode("utf-8")))
            except (
                OSError,
                http.client.HTTPException,
                json.JSONDecodeError,
                UnicodeDecodeError,
            ):
                continue
        merged = merge_stats_payloads(payloads)
        merged["cluster"] = self.cluster_snapshot()
        return merged

    def readiness(self) -> Dict[str, Any]:
        cluster = self.cluster_snapshot()
        ready = not self._draining and cluster["alive"] > 0
        return {"ok": ready, **cluster}


class _SupervisorHTTPServer(EdgeServer):
    def __init__(
        self, address: Tuple[str, int], supervisor: ClusterSupervisor
    ) -> None:
        super().__init__(address, _SupervisorHandler)
        self.supervisor = supervisor


class _SupervisorHandler(EdgeHandler):
    """The front door: shard-and-forward POSTs, aggregate GETs."""

    server_version = "slang-cluster/1"

    @property
    def supervisor(self) -> ClusterSupervisor:
        return self.server.supervisor  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # worker-level logs carry the signal; the proxy stays quiet

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        path = self.path.split("?", 1)[0]
        supervisor = self.supervisor
        if path == "/healthz":
            self._send_json({"ok": True})
        elif path == "/readyz":
            payload = supervisor.readiness()
            if payload["ok"]:
                self._send_json(payload)
            else:
                retry_after = supervisor.config.retry_after
                self._send_json(
                    payload,
                    status=503,
                    headers=retry_after_header(retry_after),
                )
        elif path == "/stats":
            self._send_json(supervisor.stats_payload())
        elif path == "/metrics.prom":
            self._send_body(
                render_prometheus(supervisor.stats_payload()).encode(
                    "utf-8"
                ),
                PROM_CONTENT_TYPE,
            )
        elif path == "/algorithms":
            self._send_json(capabilities_payload())
        else:
            self._send_json(
                error_envelope(
                    "get", ProtocolError(f"no such endpoint {path!r}")
                ),
                status=404,
            )

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        path = self.path.split("?", 1)[0]
        op = path.lstrip("/")
        supervisor = self.supervisor
        if op != "batch" and op not in _PROXY_OPS:
            self._send_json(
                error_envelope(
                    "post", ProtocolError(f"no such endpoint {path!r}")
                ),
                status=404,
            )
            return
        body = self._read_announced_body(op, MAX_BODY_BYTES)
        if body is None:
            return
        if supervisor.draining:
            retry_after = supervisor.config.retry_after
            self.must_close = True
            self._send_json(
                error_envelope(
                    op,
                    OverloadedError(
                        "cluster is draining; retry elsewhere",
                        retry_after=retry_after,
                    ),
                ),
                status=503,
                headers=retry_after_header(retry_after),
            )
            return
        if op == "batch":
            try:
                payload = json.loads(body.decode("utf-8"))
                requests = payload["requests"]
                if not isinstance(requests, list):
                    raise ValueError
            except (
                ValueError,
                KeyError,
                TypeError,
                UnicodeDecodeError,
            ):
                self._send_json(
                    error_envelope(
                        "batch",
                        ProtocolError(
                            'batch body must be {"requests": [request, ...]}'
                        ),
                    ),
                    status=400,
                )
                return
            responses = supervisor.run_batch_sharded(
                requests, request_id=self.request_id
            )
            self._send_json({"ok": True, "responses": responses})
            return
        source: Optional[str] = None
        try:
            parsed = json.loads(body.decode("utf-8"))
            if isinstance(parsed, dict) and isinstance(
                parsed.get("source"), str
            ):
                source = parsed["source"]
        except (ValueError, UnicodeDecodeError):
            pass  # the worker produces the structured parse error
        status, headers, data = supervisor.proxy(
            op, body, source, request_id=self.request_id
        )
        relay = {}
        if "Retry-After" in headers:
            relay["Retry-After"] = headers["Retry-After"]
        self._send_body(
            data,
            headers.get(
                "Content-Type", "application/json; charset=utf-8"
            ),
            status=status,
            headers=relay,
        )


# -- the worker entrypoint ---------------------------------------------


def worker_main(config_json: str) -> int:
    """``python -m repro.service.cluster --worker '<json>'``.

    Builds a full single-process server (engine + durable store + fault
    plan with process exits armed), binds port 0, prints the handshake,
    and serves until SIGTERM starts the drain.
    """
    from repro.service.engine import SlicingEngine
    from repro.service.faults import FaultPlan
    from repro.service.resilience import EngineLimits
    from repro.service.server import make_server
    from repro.service.store import DurableStore

    config = json.loads(config_json)
    store = None
    if config.get("store_root"):
        kwargs: Dict[str, Any] = {}
        if config.get("store_max_bytes") is not None:
            kwargs["max_bytes"] = config["store_max_bytes"]
        store = DurableStore(config["store_root"], **kwargs)
    faults = None
    if config.get("faults"):
        faults = FaultPlan.from_dict(config["faults"])
        faults.allow_process_exit = True
    engine = SlicingEngine(
        workers=config.get("threads"),
        limits=EngineLimits(**(config.get("limits") or {})),
        faults=faults,
        store=store,
    )
    server = make_server(config.get("host", "127.0.0.1"), 0, engine)
    port = server.server_address[1]
    sys.stdout.write(f"SLANG_WORKER_PORT={port}\n")
    sys.stdout.flush()
    # The supervisor closes the pipe after the handshake; later output
    # goes to stderr instead of blocking on, or breaking, that pipe.
    os.dup2(2, 1)
    drain_seconds = float(config.get("drain_seconds", 10.0))

    def _drain() -> None:
        engine.begin_drain()
        deadline = time.monotonic() + drain_seconds
        while engine.gate.inflight > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        server.shutdown()

    def _on_signal(signum: int, frame: Any) -> None:
        threading.Thread(target=_drain, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        engine.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) == 2 and argv[0] == "--worker":
        return worker_main(argv[1])
    sys.stderr.write(
        "usage: python -m repro.service.cluster --worker '<json>'\n"
        "(the supervisor is started via `slang serve --workers N`)\n"
    )
    return 2


if __name__ == "__main__":
    sys.exit(main())
