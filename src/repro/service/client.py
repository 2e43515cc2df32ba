"""A retrying HTTP client for the slicing service — stdlib only.

:class:`ServiceClient` is the piece every remote surface shares:
``slang batch --url`` uses it to run a request file against a live
server, the chaos harness uses it to prove a batch survives worker
crashes, and the integration tests use it as the reference client.

Requests travel on persistent connections from one
:class:`~repro.service.edge.ConnectionPool`: a connection is checked out
per request and returned afterwards, so a sequential caller opens one
connection and a batch of *c* concurrent requests at most *c*.  A
pooled connection the server closed while it sat idle (a restart, a
drain) is noticed when the request on it fails before any response
byte arrives; the request is then sent once more on a fresh connection,
which is not a retry and not a transport failure.

Retry semantics mirror the engine's in-process batch runner, plus the
two failure modes only a network client can see:

* **Transport failures** (connection refused while a worker restarts,
  a connection reset by a worker that died mid-request) are transient
  by definition — the request never produced an answer, so re-issuing
  it is always safe for this service (every op is a pure function of
  its body).
* **Server-sent pacing**: a 503's ``Retry-After`` header (or the
  ``retry_after`` field of a structured error envelope) becomes the
  *floor* of the next backoff delay — the jittered exponential curve
  applies above it, never below it (see
  :class:`~repro.service.resilience.RetryPolicy`).

Determinism: with a seeded :class:`RetryPolicy`, request *i* of a batch
draws its jitter from ``Random(seed + i)``, so a whole batch's retry
schedule is reproducible regardless of thread interleaving.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.service.edge import ConnectionPool
from repro.service.protocol import dump_json
from repro.service.resilience import RetryPolicy

#: Envelope synthesized for a request that never got an HTTP response.
CONNECTION_ERROR_CODE = "connection-failed"


def _connection_error_envelope(op: str, message: str) -> Dict[str, Any]:
    return {
        "ok": False,
        "op": op,
        "error": {
            "code": CONNECTION_ERROR_CODE,
            "message": message,
            "retryable": True,
        },
    }


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None  # HTTP-date form: not worth parsing here
    return seconds if seconds >= 0 else None


class ServiceClient:
    """Requests against one base URL, with retry/backoff accounting.

    Parameters
    ----------
    base_url:
        ``http://host:port`` (a scheme and netloc; paths are appended).
    retry:
        A :class:`RetryPolicy`; ``max_retries=0`` (the default policy)
        makes every failure final on the first answer.
    timeout:
        Per-attempt socket timeout in seconds.
    """

    def __init__(
        self,
        base_url: str,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 30.0,
    ) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self.host = parts.hostname
        self.port = parts.port or 80
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self._pool = ConnectionPool(self.host, self.port, timeout)
        self._lock = threading.Lock()
        self.retries = 0
        self.recovered = 0
        self.exhausted = 0
        self.connect_errors = 0

    def close(self) -> None:
        """Close the idle pooled connections."""
        self._pool.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- single round trips --------------------------------------------

    def _round_trip(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
    ) -> Tuple[int, Optional[float], Any]:
        """One HTTP exchange: ``(status, retry_after, parsed body)``, on
        a pooled persistent connection.  A transport failure raises; the
        pool has already re-sent a request that met a stale connection.
        """
        status, headers, raw = self._pool.request(method, path, body)
        retry_after = _parse_retry_after(headers.get("Retry-After"))
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = None
        return status, retry_after, payload

    def get(self, path: str) -> Tuple[int, Any]:
        """One GET, no retries (observability endpoints)."""
        status, _, payload = self._round_trip("GET", path)
        return status, payload

    # -- the retrying POST path ----------------------------------------

    def post(
        self,
        payload: Dict[str, Any],
        rng: Optional[random.Random] = None,
    ) -> Dict[str, Any]:
        """POST one request payload to its op endpoint, retrying
        transient failures per the policy; always returns an envelope.
        """
        op = payload.get("op", "slice") if isinstance(payload, dict) else "slice"
        body = dump_json(payload).encode("utf-8")
        if rng is None:
            rng = self.retry.rng()
        attempts = 0
        while True:
            envelope, floor = self._attempt(op, body)
            transient = not envelope.get("ok") and bool(
                envelope.get("error", {}).get("retryable")
            )
            if not transient or attempts >= self.retry.max_retries:
                if attempts:
                    with self._lock:
                        if envelope.get("ok"):
                            self.recovered += 1
                        else:
                            self.exhausted += 1
                return envelope
            delay = self.retry.delay(attempts, rng, floor=floor)
            with self._lock:
                self.retries += 1
            time.sleep(delay)
            attempts += 1

    def _attempt(
        self, op: str, body: bytes
    ) -> Tuple[Dict[str, Any], Optional[float]]:
        """One POST attempt: ``(envelope, backoff floor)``."""
        try:
            status, retry_after, payload = self._round_trip(
                "POST", f"/{op}", body
            )
        except (OSError, http.client.HTTPException) as error:
            with self._lock:
                self.connect_errors += 1
            return (
                _connection_error_envelope(
                    op, f"request transport failed: {error!r}"
                ),
                None,
            )
        if not isinstance(payload, dict):
            # A dropped-mid-response body parses to nothing: treat like
            # a transport failure (the worker died while writing).
            with self._lock:
                self.connect_errors += 1
            return (
                _connection_error_envelope(
                    op, f"unparseable response (HTTP {status})"
                ),
                retry_after,
            )
        floor = retry_after
        if floor is None:
            error_retry = payload.get("error", {}).get("retry_after")
            if isinstance(error_retry, (int, float)) and not isinstance(
                error_retry, bool
            ):
                floor = float(error_retry)
        return payload, floor

    # -- batches --------------------------------------------------------

    def run_batch(
        self,
        payloads: Sequence[Dict[str, Any]],
        concurrency: int = 8,
    ) -> List[Dict[str, Any]]:
        """POST every payload (each to its own op endpoint, so a cluster
        supervisor shards them), preserving input order.

        Per-request seeded RNGs keep the retry schedule deterministic
        under any thread interleaving.
        """
        if not payloads:
            return []
        seed = self.retry.seed

        def one(index_payload: Tuple[int, Dict[str, Any]]) -> Dict[str, Any]:
            index, payload = index_payload
            rng = random.Random(None if seed is None else seed + index)
            return self.post(payload, rng=rng)

        with ThreadPoolExecutor(
            max_workers=max(1, min(concurrency, len(payloads)))
        ) as pool:
            return list(pool.map(one, enumerate(payloads)))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "retries": self.retries,
                "recovered": self.recovered,
                "exhausted": self.exhausted,
                "connect_errors": self.connect_errors,
            }
