"""The HTTP edge shared by the single-process server and the cluster
front door.

Both request handlers derive from :class:`EdgeHandler`, so the two
servers cannot drift apart on what every response promises:

* an ``X-Request-Id`` header on every response — the client's, when one
  was sent, or a freshly generated hex id — so a request can be
  correlated across the client, the front door and the worker;
* the announced-size contract for bodies (:func:`announced_length`): no
  ``Content-Length`` is 411 and a length over the cap is 413, both
  ``payload-too-large``; a length that is not a non-negative integer is
  400 ``protocol-error``.
"""

from __future__ import annotations

import math
import uuid
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional

from repro.service.protocol import ProtocolError, dump_json, error_envelope
from repro.service.resilience import PayloadTooLargeError

MAX_BODY_BYTES = 8 * 1024 * 1024  # refuse absurd uploads


def announced_length(header: Optional[str], max_bytes: int) -> int:
    """The body length a ``Content-Length`` *header* announces.

    Raises :class:`PayloadTooLargeError` when the header is missing or
    the length exceeds *max_bytes*, and :class:`ProtocolError` when it
    is not a non-negative integer — bodies are never read unboundedly.
    """
    if header is None:
        raise PayloadTooLargeError(
            "request has no Content-Length header; bodies of "
            "unannounced size are refused"
        )
    try:
        length = int(header)
    except ValueError:
        raise ProtocolError(
            f"Content-Length {header!r} is not an integer"
        ) from None
    if length < 0:
        raise ProtocolError(f"Content-Length {length} is negative")
    if length > max_bytes:
        raise PayloadTooLargeError(
            f"request body of {length} bytes exceeds the "
            f"{max_bytes}-byte limit"
        )
    return length


def retry_after_header(seconds: float) -> Dict[str, str]:
    """``Retry-After`` in whole seconds, at least one."""
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


class EdgeHandler(BaseHTTPRequestHandler):
    """Request ids, JSON responses and body framing for both servers."""

    protocol_version = "HTTP/1.1"

    #: The id echoed on every response to the current request.
    request_id = ""

    def parse_request(self) -> bool:
        ok = super().parse_request()
        if ok:
            self.request_id = (
                self.headers.get("X-Request-Id") or uuid.uuid4().hex
            )
        return ok

    def _send_body(
        self,
        body: bytes,
        content_type: str,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self.request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        payload: Dict[str, Any],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_body(
            dump_json(payload).encode("utf-8"),
            "application/json; charset=utf-8",
            status=status,
            headers=headers,
        )

    def _read_announced_body(self, op: str, max_bytes: int) -> Optional[bytes]:
        """The raw request body, or ``None`` after answering a bad
        ``Content-Length`` with the status :func:`announced_length`'s
        error implies."""
        header = self.headers.get("Content-Length")
        try:
            length = announced_length(header, max_bytes)
        except PayloadTooLargeError as error:
            status = 411 if header is None else 413
            self._send_json(error_envelope(op, error), status=status)
            return None
        except ProtocolError as error:
            self._send_json(error_envelope(op, error), status=400)
            return None
        return self.rfile.read(length) if length else b""
