"""The versioned JSON request/response protocol of the slicing service.

One schema serves every surface: the HTTP server (``slang serve``), the
batch runner (``slang batch``), and the CLI's ``--json`` mode all build
their payloads here, so a slice answered over HTTP is byte-identical to
the same slice printed by ``slang slice --json`` (both dump with
``sort_keys=True``).

Requests are plain dataclasses with ``from_dict`` constructors that
validate shape and version; malformed input raises
:class:`ProtocolError` (a :class:`SlangError`, so it maps onto the same
structured error payload as analysis failures).  Responses are
envelopes::

    {"ok": true,  "version": 1, "op": "slice", "result": {...}}
    {"ok": false, "version": 1, "op": "slice", "error":  {"code": ...}}

Error payloads carry a stable kebab-case ``code`` derived from the
:class:`SlangError` subclass (``slice-error``, ``parse-error``, …) plus
the human message and, when known, the source location.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.lang.errors import (
    AnalysisError,
    InterpreterError,
    LexError,
    ParseError,
    SlangError,
    SliceError,
    UnreachableCriterionError,
    ValidationError,
)
from repro.service.faults import InjectedFaultError
from repro.service.resilience import (
    BudgetExceededError,
    BudgetSpec,
    OverloadedError,
    PayloadTooLargeError,
)
from repro.slicing.common import SliceResult
from repro.slicing.registry import algorithm_metadata

#: Bumped when the wire schema changes.  Version 2 adds the optional
#: ``proc`` criterion qualifier on slice requests and the
#: ``procedures`` section of multi-procedure slice results; version-1
#: requests remain valid (they simply cannot name a procedure), so
#: both are accepted.
PROTOCOL_VERSION = 2

#: Request versions this service still speaks.
SUPPORTED_VERSIONS = frozenset({1, 2})

#: Stable error codes, most specific class first.
_ERROR_CODES = (
    (LexError, "lex-error"),
    (ParseError, "parse-error"),
    (ValidationError, "validation-error"),
    (AnalysisError, "analysis-error"),
    (UnreachableCriterionError, "unreachable-criterion"),
    (SliceError, "slice-error"),
    (InterpreterError, "interpreter-error"),
    (BudgetExceededError, "budget-exceeded"),
    (OverloadedError, "overloaded"),
    (PayloadTooLargeError, "payload-too-large"),
    (InjectedFaultError, "fault-injected"),
)

#: Codes a client may retry (with backoff): the failure is a property
#: of the moment — load, an injected crash — not of the request.
TRANSIENT_ERROR_CODES = frozenset({"overloaded", "fault-injected"})


class ProtocolError(SlangError):
    """A malformed or unsupported service request."""


def _require(payload: Dict[str, Any], key: str, kind: type) -> Any:
    if key not in payload:
        raise ProtocolError(f"request is missing required field {key!r}")
    value = payload[key]
    if kind is int and isinstance(value, bool):
        raise ProtocolError(f"field {key!r} must be an int, got bool")
    if not isinstance(value, kind):
        raise ProtocolError(
            f"field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _optional_budget(payload: Dict[str, Any]) -> Optional[BudgetSpec]:
    """Parse the optional per-request ``budget`` object.

    Clients can only *tighten* the engine's configured limits — the
    engine takes the minimum of each dimension — so a hostile budget
    cannot widen a deadline the operator set.
    """
    value = payload.get("budget")
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ProtocolError(
            'field "budget" must be an object like '
            '{"deadline_ms": 500, "max_traversals": 100, '
            '"max_nodes": 20000}'
        )
    try:
        return BudgetSpec.from_dict(value)
    except ValueError as error:
        raise ProtocolError(str(error)) from None


def _optional_trace(payload: Dict[str, Any]) -> bool:
    """Parse the optional ``trace`` flag: ask the engine to run this
    request under a tracer and embed the span tree in the envelope."""
    value = payload.get("trace", False)
    if not isinstance(value, bool):
        raise ProtocolError(
            f'field "trace" must be a boolean, got {type(value).__name__}'
        )
    return value


def _check_version(payload: Dict[str, Any]) -> None:
    version = payload.get("version", PROTOCOL_VERSION)
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version!r}; "
            f"this service speaks versions "
            f"{sorted(SUPPORTED_VERSIONS)}"
        )


@dataclass(frozen=True)
class SliceRequest:
    """Slice *source* w.r.t. ``<var, line>`` with one algorithm."""

    source: str
    line: int
    var: str
    algorithm: str = "agrawal"
    proc: Optional[str] = None
    budget: Optional[BudgetSpec] = None
    id: Optional[str] = None
    trace: bool = False
    op: str = field(default="slice", init=False)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SliceRequest":
        _check_version(payload)
        proc = payload.get("proc")
        if proc is not None and not isinstance(proc, str):
            raise ProtocolError(
                f'field "proc" must be a string procedure name, '
                f"got {type(proc).__name__}"
            )
        return cls(
            source=_require(payload, "source", str),
            line=_require(payload, "line", int),
            var=_require(payload, "var", str),
            algorithm=payload.get("algorithm", "agrawal"),
            proc=proc,
            budget=_optional_budget(payload),
            id=payload.get("id"),
            trace=_optional_trace(payload),
        )


@dataclass(frozen=True)
class CompareRequest:
    """Run every registered algorithm on one criterion."""

    source: str
    line: int
    var: str
    budget: Optional[BudgetSpec] = None
    id: Optional[str] = None
    trace: bool = False
    op: str = field(default="compare", init=False)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CompareRequest":
        _check_version(payload)
        return cls(
            source=_require(payload, "source", str),
            line=_require(payload, "line", int),
            var=_require(payload, "var", str),
            budget=_optional_budget(payload),
            id=payload.get("id"),
            trace=_optional_trace(payload),
        )


@dataclass(frozen=True)
class GraphRequest:
    """Render one analysis graph (DOT text)."""

    source: str
    kind: str = "cfg"
    budget: Optional[BudgetSpec] = None
    id: Optional[str] = None
    trace: bool = False
    op: str = field(default="graph", init=False)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "GraphRequest":
        _check_version(payload)
        return cls(
            source=_require(payload, "source", str),
            kind=payload.get("kind", "cfg"),
            budget=_optional_budget(payload),
            id=payload.get("id"),
            trace=_optional_trace(payload),
        )


@dataclass(frozen=True)
class MetricsRequest:
    """Ott–Thuss cohesion metrics: slice every output criterion."""

    source: str
    algorithm: str = "agrawal"
    budget: Optional[BudgetSpec] = None
    id: Optional[str] = None
    trace: bool = False
    op: str = field(default="metrics", init=False)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsRequest":
        _check_version(payload)
        return cls(
            source=_require(payload, "source", str),
            algorithm=payload.get("algorithm", "agrawal"),
            budget=_optional_budget(payload),
            id=payload.get("id"),
            trace=_optional_trace(payload),
        )


def _optional_codes(payload: Dict[str, Any], key: str) -> Optional[tuple]:
    """Parse an optional list of diagnostic-code prefixes."""
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ProtocolError(
            f"field {key!r} must be a list of diagnostic-code strings"
        )
    return tuple(value)


@dataclass(frozen=True)
class CheckRequest:
    """Run the ``slang check`` lint engine over *source*.

    ``select``/``ignore`` are code prefixes (``"SL1"`` matches all
    SL1xx), applied select-first — the same semantics as the CLI flags.
    """

    source: str
    select: Optional[tuple] = None
    ignore: Optional[tuple] = None
    budget: Optional[BudgetSpec] = None
    id: Optional[str] = None
    trace: bool = False
    op: str = field(default="check", init=False)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CheckRequest":
        _check_version(payload)
        return cls(
            source=_require(payload, "source", str),
            select=_optional_codes(payload, "select"),
            ignore=_optional_codes(payload, "ignore"),
            budget=_optional_budget(payload),
            id=payload.get("id"),
            trace=_optional_trace(payload),
        )


ServiceRequest = Union[
    SliceRequest, CompareRequest, GraphRequest, MetricsRequest, CheckRequest
]

_REQUEST_TYPES = {
    "slice": SliceRequest,
    "compare": CompareRequest,
    "graph": GraphRequest,
    "metrics": MetricsRequest,
    "check": CheckRequest,
}


def request_from_dict(payload: Any) -> ServiceRequest:
    """Parse one request payload, dispatching on its ``op`` field."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op", "slice")
    if op not in _REQUEST_TYPES:
        raise ProtocolError(
            f"unknown op {op!r}; known ops: "
            f"{', '.join(sorted(_REQUEST_TYPES))}"
        )
    return _REQUEST_TYPES[op].from_dict(payload)


def request_from_json(text: str) -> ServiceRequest:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON: {error}") from None
    return request_from_dict(payload)


def request_to_dict(request: ServiceRequest) -> Dict[str, Any]:
    """Serialise a request for the wire (round-trip of ``from_dict``)."""
    payload: Dict[str, Any] = {"op": request.op, "version": PROTOCOL_VERSION}
    for key in ("source", "line", "var", "algorithm", "proc", "kind", "select", "ignore", "id"):
        value = getattr(request, key, None)
        if value is not None:
            payload[key] = list(value) if isinstance(value, tuple) else value
    budget = getattr(request, "budget", None)
    if budget is not None:
        payload["budget"] = budget.to_dict()
    if getattr(request, "trace", False):
        payload["trace"] = True
    return payload


# ---------------------------------------------------------------------------
# Response payloads


def slice_result_payload(result: SliceResult) -> Dict[str, Any]:
    """The canonical JSON view of one :class:`SliceResult`.

    Used verbatim by ``slang slice --json``, the ``/slice`` endpoint,
    and each row of a ``/compare`` response.
    """
    statements = result.statement_nodes()
    cfg_nodes = result.analysis.cfg.nodes
    criterion: Dict[str, Any] = {
        "line": result.criterion.line,
        "var": result.criterion.var,
    }
    if getattr(result.criterion, "proc", None) is not None:
        criterion["proc"] = result.criterion.proc
    payload: Dict[str, Any] = {
        "algorithm": result.algorithm,
        "criterion": criterion,
        "nodes": statements,
        "lines": sorted({cfg_nodes[node].line for node in statements}),
        "size": len(statements),
        "traversals": result.traversals,
        "label_map": {
            label: node for label, node in sorted(result.label_map.items())
        },
        "notes": list(result.notes),
    }
    # Multi-procedure slices carry the per-unit breakdown; single-unit
    # payloads are unchanged from protocol version 1 byte for byte.
    sdg_result = getattr(result, "sdg_result", None)
    if sdg_result is not None and sdg_result.sdg.program.procs:
        payload["procedures"] = {
            unit: {
                "nodes": sdg_result.statement_nodes(unit),
                "label_map": {
                    label: node
                    for label, node in sorted(
                        sdg_result.label_maps.get(unit, {}).items()
                    )
                },
            }
            for unit in sdg_result.units()
        }
        payload["lines"] = sdg_result.lines()
        payload["summary_edges"] = sdg_result.sdg.summary_edges
    return payload


def error_payload(error: BaseException) -> Dict[str, Any]:
    """Map an exception onto the structured error schema."""
    code = "internal-error"
    if isinstance(error, ProtocolError):
        code = "protocol-error"
    elif isinstance(error, SlangError):
        code = "slang-error"
        for klass, klass_code in _ERROR_CODES:
            if isinstance(error, klass):
                code = klass_code
                break
    elif isinstance(error, ValueError):
        # get_algorithm / render_all raise ValueError on unknown names.
        code = "bad-request"
    payload: Dict[str, Any] = {"code": code, "message": str(error)}
    payload["retryable"] = code in TRANSIENT_ERROR_CODES
    location = getattr(error, "location", None)
    if location is not None:
        payload["location"] = {"line": location.line, "column": location.column}
    if isinstance(error, BudgetExceededError):
        payload["reason"] = error.reason
        payload["phase"] = error.phase
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return payload


def ok_envelope(
    op: str, result: Dict[str, Any], request_id: Optional[str] = None
) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "ok": True,
        "version": PROTOCOL_VERSION,
        "op": op,
        "result": result,
    }
    if request_id is not None:
        envelope["id"] = request_id
    return envelope


def error_envelope(
    op: str, error: BaseException, request_id: Optional[str] = None
) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "ok": False,
        "version": PROTOCOL_VERSION,
        "op": op,
        "error": error_payload(error),
    }
    if request_id is not None:
        envelope["id"] = request_id
    return envelope


def capabilities_payload() -> Dict[str, Any]:
    """``GET /algorithms``: names plus correctness classes, so clients
    can avoid submitting structured-only algorithms on goto-ridden
    programs (the service rejects those with ``slice-error``)."""
    metadata = algorithm_metadata()
    return {
        "version": PROTOCOL_VERSION,
        "algorithms": [
            {"name": name, "capability": capability}
            for name, capability in sorted(metadata.items())
        ],
    }


def dump_json(payload: Dict[str, Any]) -> str:
    """The one serialisation every surface uses (stable key order, so
    CLI output and HTTP bodies are byte-identical)."""
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))
