"""The HTTP edge shared by the single-process server, the cluster front
door and every client of them (DESIGN.md §18).

Both servers derive from :class:`EdgeServer` and both request handlers
from :class:`EdgeHandler`, so the two cannot drift apart on what every
response promises:

* an ``X-Request-Id`` header on every response — the client's, when one
  was sent, or a freshly generated hex id — so a request can be
  correlated across the client, the front door and the worker;
* the announced-size contract for bodies (:func:`announced_length`): no
  ``Content-Length`` is 411 and a length over the cap is 413, both
  ``payload-too-large``; a length that is not a non-negative integer is
  400 ``protocol-error``;
* persistent connections: no response waits on Nagle's algorithm, and a
  response sent without reading the request body (which would leave the
  body in the stream as the next request line) closes the connection;
  a server that closes also closes its idle persistent connections.

On the client side, :class:`ConnectionPool` keeps idle persistent
connections for :class:`~repro.service.client.ServiceClient` and for
the cluster front door's hop to each worker.
"""

from __future__ import annotations

import http.client
import math
import socket
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

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


class EdgeServer(ThreadingHTTPServer):
    """One thread per persistent connection, for both servers.

    :meth:`server_close` shuts the read side of every open connection:
    a handler waiting for a persistent connection's next request sees
    end-of-stream and exits, while a request in flight still finishes
    and writes its response.  Without this, the handler thread of an
    idle connection outlives the closed server and keeps answering on
    that connection.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], handler: type) -> None:
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        """Serve until ``shutdown()``, which waits up to one
        *poll_interval* (the stdlib's 0.5 s made every drain idle)."""
        super().serve_forever(poll_interval)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        super().server_close()


class EdgeHandler(BaseHTTPRequestHandler):
    """Request ids, JSON responses and body framing for both servers."""

    protocol_version = "HTTP/1.1"

    #: The stdlib writes a response's headers and body in two sends;
    #: with Nagle's algorithm on, the body waits for the client's
    #: delayed ACK (~40 ms) on every response after a connection's first.
    disable_nagle_algorithm = True

    #: The id echoed on every response to the current request.
    request_id = ""

    #: Whether the current response closes the connection: set while a
    #: request's body may still be unread (answering before reading it
    #: would leave the body in the stream as the next request line), and
    #: by a draining server, so pooled clients reconnect elsewhere.
    must_close = False

    def parse_request(self) -> bool:
        ok = super().parse_request()
        if ok:
            self.request_id = (
                self.headers.get("X-Request-Id") or uuid.uuid4().hex
            )
            self.must_close = (
                self.command == "POST"
                or "Content-Length" in self.headers
                or "Transfer-Encoding" in self.headers
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
        if self.must_close:
            self.send_header("Connection", "close")  # sets close_connection
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
        body = self.rfile.read(length) if length else b""
        self.must_close = False
        return body


#: How a reused connection fails when the server closed it while idle.
_STALE_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class ConnectionPool:
    """Idle persistent HTTP/1.1 connections to one ``host:port``.

    Each exchange checks out the most recently returned idle connection
    (or opens one) and returns it afterwards, unless the response said
    ``Connection: close`` or anything failed.  The pool therefore never
    holds more connections than the peak number of concurrent callers,
    and needs no size setting.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self._closed = False

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, http.client.HTTPMessage, bytes]:
        """One exchange: ``(status, response headers, response body)``.
        A *body* is sent as JSON.

        A request that fails on a *reused* connection before any
        response byte arrives met a connection the server closed while
        it sat idle (a restart, a drain, a dead worker).  It is sent once
        more on a fresh connection: every op is a pure function of its
        body, so the re-send is safe, and it is not a retry.  Every other
        failure closes the connection and propagates.
        """
        if timeout is None:
            timeout = self.timeout
        headers = dict(headers or {})
        if body is not None:
            headers["Content-Type"] = "application/json; charset=utf-8"
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if not reused:
            conn = self._connect(timeout)
        elif conn.timeout != timeout:
            conn.timeout = timeout
            conn.sock.settimeout(timeout)
        try:
            try:
                response = _exchange(conn, method, path, body, headers)
            except _STALE_ERRORS:
                if not reused:
                    raise
                conn.close()
                conn = self._connect(timeout)
                response = _exchange(conn, method, path, body, headers)
            data = response.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            keep = not (response.will_close or self._closed)
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        return response.status, response.msg, data

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )

    def close(self) -> None:
        """Close every idle connection, and each checked-out one when
        its exchange ends; the pool still serves new requests."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _exchange(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: Optional[bytes],
    headers: Dict[str, str],
) -> http.client.HTTPResponse:
    conn.request(method, path, body=body, headers=headers)
    return conn.getresponse()
