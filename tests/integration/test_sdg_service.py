"""End-to-end interprocedural slicing through the service.

Drives DESIGN.md §12's call-crossing example through ``slang serve``'s
HTTP front end and checks the protocol-v2 surface around it: the
``proc`` request field, the ``procedures`` result section, version
negotiation ({1, 2} spoken, anything else refused), the multi-procedure
capability gate, and the ``sdg:*`` observability counters.
"""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.pdg.builder import analyze_program
from repro.sdg.slicer import interprocedural_slice
from repro.service.cache import AnalysisCache
from repro.service.engine import SlicingEngine
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    SliceRequest,
    SUPPORTED_VERSIONS,
    request_to_dict,
)
from repro.obs.prom import parse_prometheus
from repro.slicing.criterion import SlicingCriterion

#: The call-crossing example of DESIGN.md §12 (also shipped as
#: ``examples/interprocedural/combine.sl``).
COMBINE = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "interprocedural"
    / "combine.sl"
).read_text()

CRITERION = {"line": 5, "var": "s"}


@pytest.fixture
def http_server():
    from repro.service.server import make_server

    engine = SlicingEngine(
        cache=AnalysisCache(capacity=8), workers=2
    )
    server = make_server(port=0, engine=engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    engine.close()


def _post(server, path, obj):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(server, path):
    port = server.server_address[1]
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        return response.status, response.read().decode("utf-8")


class TestCallCrossingSlice:
    def test_design_example_end_to_end(self, http_server):
        status, envelope = _post(
            http_server,
            "/slice",
            {
                "source": COMBINE,
                "algorithm": "interprocedural",
                **CRITERION,
            },
        )
        assert status == 200
        assert envelope["ok"] is True
        result = envelope["result"]

        # The full cross-unit answer rides in the payload.
        procedures = result["procedures"]
        assert set(procedures) == {"main", "combine"}
        lines = result["lines"]
        # The producing call (3) and the guarded return (11) are in;
        # the unrelated second call (4) is out.
        assert 3 in lines and 11 in lines and 4 not in lines
        assert result["summary_edges"] > 0

        # The payload matches the in-process slicer exactly.
        reference = interprocedural_slice(
            analyze_program(COMBINE),
            SlicingCriterion(line=5, var="s"),
        ).sdg_result
        for unit, section in procedures.items():
            assert section["nodes"] == reference.statement_nodes(unit)
        assert lines == reference.lines()

    def test_proc_qualified_criterion(self, http_server):
        status, envelope = _post(
            http_server,
            "/slice",
            {
                "source": COMBINE,
                "line": 9,
                "var": "r",
                "proc": "combine",
                "algorithm": "interprocedural",
            },
        )
        assert status == 200
        assert envelope["result"]["criterion"]["proc"] == "combine"

    def test_other_algorithms_refuse_multiproc(self, http_server):
        status, envelope = _post(
            http_server,
            "/slice",
            {"source": COMBINE, "algorithm": "agrawal", **CRITERION},
        )
        assert envelope["ok"] is False
        assert "interprocedural" in envelope["error"]["message"]

    def test_single_proc_payload_has_no_procedures_key(self, http_server):
        status, envelope = _post(
            http_server,
            "/slice",
            {"source": "x = 1;\nwrite(x);", "line": 2, "var": "x"},
        )
        assert status == 200
        result = envelope["result"]
        assert "procedures" not in result
        assert "proc" not in result["criterion"]


class TestProtocolVersioning:
    def test_supported_versions(self, http_server):
        assert PROTOCOL_VERSION == 2
        assert SUPPORTED_VERSIONS == frozenset({1, 2})
        for version in sorted(SUPPORTED_VERSIONS):
            status, envelope = _post(
                http_server,
                "/slice",
                {
                    "source": COMBINE,
                    "algorithm": "interprocedural",
                    "version": version,
                    **CRITERION,
                },
            )
            assert status == 200, version
            assert envelope["ok"] is True, version

    def test_future_version_is_refused(self, http_server):
        status, envelope = _post(
            http_server,
            "/slice",
            {"source": COMBINE, "version": 3, **CRITERION},
        )
        assert envelope["ok"] is False
        assert "version" in envelope["error"]["message"]

    def test_proc_field_round_trips(self):
        request = SliceRequest.from_dict(
            {
                "source": COMBINE,
                "line": 9,
                "var": "r",
                "proc": "combine",
                "algorithm": "interprocedural",
            }
        )
        assert request.proc == "combine"
        assert request_to_dict(request)["proc"] == "combine"

    def test_proc_field_must_be_string(self):
        with pytest.raises(ProtocolError):
            SliceRequest.from_dict(
                {"source": COMBINE, "line": 9, "var": "r", "proc": 7}
            )


class TestSDGObservability:
    def test_stats_and_prometheus_counters(self, http_server):
        status, envelope = _post(
            http_server,
            "/slice",
            {
                "source": COMBINE,
                "algorithm": "interprocedural",
                **CRITERION,
            },
        )
        assert status == 200

        status, body = _get(http_server, "/stats")
        assert status == 200
        events = json.loads(body)["events"]
        assert events.get("sdg:procedures", 0) >= 2
        assert events.get("sdg:summary-edges", 0) > 0
        assert events.get("sdg:pass1-visits", 0) > 0

        status, text = _get(http_server, "/metrics.prom")
        assert status == 200
        series = parse_prometheus(text)["slang_events_total"]
        for event in (
            "sdg:procedures",
            "sdg:summary-edges",
            "sdg:pass1-visits",
            "sdg:pass2-visits",
        ):
            assert series[(("event", event),)] == events[event], event

    def test_sdg_index_counters_reconcile(self, http_server):
        """The ``sdg-index:*`` series of ``slang_events_total`` reconcile
        with ``/stats`` exactly like the ``sdg:*`` ones: one build for
        the program, mask hits per criterion, and a repeat slice reusing
        the memoized index without a second build."""
        for _ in range(2):
            status, _ = _post(
                http_server,
                "/slice",
                {
                    "source": COMBINE,
                    "algorithm": "interprocedural",
                    **CRITERION,
                },
            )
            assert status == 200

        status, body = _get(http_server, "/stats")
        assert status == 200
        events = json.loads(body)["events"]
        assert events.get("sdg-index:builds", 0) == 1
        assert events.get("sdg-index:mask-hits", 0) > 0

        status, text = _get(http_server, "/metrics.prom")
        assert status == 200
        series = parse_prometheus(text)["slang_events_total"]
        for event in (
            "sdg-index:builds",
            "sdg-index:mask-hits",
            "sdg-index:pressure-skips",
        ):
            if event in events:
                assert series[(("event", event),)] == events[event], event
            else:
                assert (("event", event),) not in series, event
