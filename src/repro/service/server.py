"""The HTTP front end — stdlib ``ThreadingHTTPServer`` only.

Routes (all JSON, all protocol version :data:`PROTOCOL_VERSION`)::

    POST /slice      one SliceRequest        -> slice envelope
    POST /compare    one CompareRequest      -> compare envelope
    POST /graph      one GraphRequest        -> DOT text envelope
    POST /metrics    one MetricsRequest      -> cohesion envelope
    POST /check      one CheckRequest        -> lint-report envelope
    POST /batch      {"requests": [...]}     -> {"responses": [...]}
    GET  /stats      request/latency/phase/cache/admission counters
    GET  /metrics.prom  the same snapshot as Prometheus text exposition
                     (version 0.0.4); reconciles exactly with /stats
                     because both render one locked snapshot
    GET  /algorithms capability discovery (correct-general vs
                     structured-only vs baseline)
    GET  /healthz    liveness: {"ok": true} while the process serves
    GET  /readyz     readiness: 200 while the admission gate has
                     headroom, 503 (with queue gauges and Retry-After)
                     while shedding or draining

Graceful drain: once ``engine.begin_drain()`` runs (SIGTERM in a
cluster worker), ``/readyz`` turns 503 and every new POST is refused
with a retryable 503 ``overloaded`` envelope — but ``/healthz`` stays
200 and in-flight requests finish, so a load balancer stops routing
here without killing work already accepted.

Every response echoes an ``X-Request-Id`` header — the client's, when
one was sent, or a freshly generated hex id — so a traced request
(``trace: true`` in the body, span tree in the envelope) can be
correlated with proxy and client logs.  The cluster front door keeps the
same promise: both handlers share :class:`repro.service.edge.EdgeHandler`.

Each persistent connection is handled on its own thread
(:class:`~repro.service.edge.EdgeServer`); concurrency is safe because
every worker shares one :class:`SlicingEngine`, whose cache hands out
immutable :class:`ProgramAnalysis` artefacts (DESIGN.md §7).  Bodies are dumped
with ``sort_keys=True`` via :func:`repro.service.protocol.dump_json`,
so a server response is byte-identical to the CLI's ``--json`` output
for the same request.

Resilience at the HTTP edge: bodies must announce their size (no
``Content-Length`` → 411, over the cap → 413, both with the structured
``payload-too-large`` error; a length that is not a non-negative
integer → 400 ``protocol-error``), engine-shed requests map to 503 with a
``Retry-After`` header, and over-budget requests that could not be
degraded map to 504 — every error status still carries the structured
JSON error envelope.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.obs.prom import PROM_CONTENT_TYPE, render_prometheus
from repro.service.edge import (
    MAX_BODY_BYTES,
    EdgeHandler,
    EdgeServer,
    retry_after_header,
)
from repro.service.engine import SlicingEngine
from repro.service.protocol import (
    ProtocolError,
    capabilities_payload,
    error_envelope,
)
from repro.service.resilience import OverloadedError

#: error code -> HTTP status (anything else that fails is a 400).
_STATUS_BY_CODE = {
    "overloaded": 503,
    "payload-too-large": 413,
    "budget-exceeded": 504,
    "fault-injected": 500,
    "internal-error": 500,
}


def _json_body(raw: bytes) -> Any:
    if not raw:
        raise ProtocolError("request body is empty; expected JSON")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(
            f"request body is not valid JSON: {error}"
        ) from None


class SlicingHTTPServer(EdgeServer):
    """An :class:`EdgeServer` that owns the shared engine."""

    def __init__(
        self,
        address: Tuple[str, int],
        engine: Optional[SlicingEngine] = None,
        verbose: bool = False,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        super().__init__(address, SlicingRequestHandler)
        self.engine = engine if engine is not None else SlicingEngine()
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes


class SlicingRequestHandler(EdgeHandler):
    server_version = "slang-service/1"

    # -- plumbing ------------------------------------------------------

    @property
    def engine(self) -> SlicingEngine:
        return self.server.engine  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_envelope(self, envelope: Dict[str, Any]) -> None:
        """Send a response envelope with the status (and ``Retry-After``
        header) its error code implies."""
        if envelope.get("ok"):
            self._send_json(envelope)
            return
        error = envelope.get("error", {})
        status = _STATUS_BY_CODE.get(error.get("code"), 400)
        headers = None
        retry_after = error.get("retry_after")
        if retry_after is not None:
            headers = retry_after_header(retry_after)
        self._send_json(envelope, status=status, headers=headers)

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        path = self.path.split("?", 1)[0]
        if path == "/stats":
            self._send_json(self.engine.stats_payload())
        elif path == "/metrics.prom":
            self._send_body(
                render_prometheus(self.engine.stats_payload()).encode(
                    "utf-8"
                ),
                PROM_CONTENT_TYPE,
            )
        elif path == "/algorithms":
            self._send_json(capabilities_payload())
        elif path == "/healthz":
            self._send_json({"ok": True})
        elif path == "/readyz":
            payload = self.engine.readiness()
            if payload["ok"]:
                self._send_json(payload)
            else:
                retry_after = self.engine.gate.retry_after
                self._send_json(
                    payload,
                    status=503,
                    headers=retry_after_header(retry_after),
                )
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
        if op not in ("slice", "compare", "graph", "metrics", "check", "batch"):
            self._send_json(
                error_envelope(
                    "post", ProtocolError(f"no such endpoint {path!r}")
                ),
                status=404,
            )
            return
        max_bytes = getattr(self.server, "max_body_bytes", MAX_BODY_BYTES)
        raw = self._read_announced_body(op, max_bytes)
        if raw is None:
            return
        try:
            payload = _json_body(raw)
        except ProtocolError as error:
            self._send_json(error_envelope(op, error), status=400)
            return
        if self.engine.draining:
            # A draining worker takes no new work: the retryable envelope
            # sends the client (or the supervisor) elsewhere after
            # Retry-After seconds, on a new connection.
            self.must_close = True
            self._send_envelope(
                error_envelope(
                    op,
                    OverloadedError(
                        "server is draining; retry elsewhere",
                        retry_after=self.engine.gate.retry_after,
                    ),
                )
            )
            return
        if op == "batch":
            self._handle_batch(payload)
            return
        if isinstance(payload, dict):
            payload.setdefault("op", op)
            if payload["op"] != op:
                self._send_json(
                    error_envelope(
                        op,
                        ProtocolError(
                            f"request op {payload['op']!r} does not match "
                            f"endpoint /{op}"
                        ),
                    ),
                    status=400,
                )
                return
        self._send_envelope(self.engine.handle_payload(payload))

    def _handle_batch(self, payload: Any) -> None:
        if not isinstance(payload, dict) or not isinstance(
            payload.get("requests"), list
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
        responses = self.engine.run_batch(payload["requests"])
        self._send_json({"ok": True, "responses": responses})


def make_server(
    host: str = "127.0.0.1",
    port: int = 8377,
    engine: Optional[SlicingEngine] = None,
    verbose: bool = False,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> SlicingHTTPServer:
    """Bind a server (``port=0`` picks a free port; serve with
    ``serve_forever()``, stop with ``shutdown()``)."""
    return SlicingHTTPServer(
        (host, port), engine, verbose=verbose, max_body_bytes=max_body_bytes
    )
