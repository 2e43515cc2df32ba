"""Unit tests for the service protocol: parsing, round-tripping,
error mapping, and capability discovery."""

import json

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.lang.errors import ParseError, SliceError
from repro.pdg.builder import analyze_program
from repro.service.protocol import (
    PROTOCOL_VERSION,
    CompareRequest,
    GraphRequest,
    MetricsRequest,
    ProtocolError,
    SliceRequest,
    capabilities_payload,
    dump_json,
    error_envelope,
    error_payload,
    ok_envelope,
    request_from_dict,
    request_from_json,
    request_to_dict,
    slice_result_payload,
)
from repro.slicing.registry import (
    CORRECT_GENERAL,
    CORRECT_STRUCTURED,
    algorithm_capability,
    algorithm_metadata,
    algorithm_names,
    get_algorithm,
)
from repro.slicing.criterion import SlicingCriterion

FIG3A = PAPER_PROGRAMS["fig3a"].source


class TestRequestParsing:
    def test_slice_round_trip(self):
        request = SliceRequest(
            source=FIG3A, line=15, var="positives", algorithm="lyle", id="r1"
        )
        again = request_from_dict(request_to_dict(request))
        assert again == request

    def test_round_trip_every_op(self):
        requests = [
            SliceRequest(source="x = 1;", line=1, var="x"),
            CompareRequest(source="x = 1;", line=1, var="x", id="c"),
            GraphRequest(source="x = 1;", kind="pdt"),
            MetricsRequest(source="x = 1;", algorithm="weiser"),
        ]
        for request in requests:
            assert request_from_dict(request_to_dict(request)) == request

    def test_op_defaults_to_slice(self):
        request = request_from_dict(
            {"source": "x = 1;", "line": 1, "var": "x"}
        )
        assert isinstance(request, SliceRequest)

    def test_from_json(self):
        text = json.dumps(
            {"op": "compare", "source": "x = 1;", "line": 1, "var": "x"}
        )
        assert isinstance(request_from_json(text), CompareRequest)

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "slice", "line": 1, "var": "x"},  # missing source
            {"op": "slice", "source": "x;", "var": "x"},  # missing line
            {"op": "slice", "source": "x;", "line": 1},  # missing var
            {"op": "slice", "source": "x;", "line": "1", "var": "x"},
            {"op": "slice", "source": "x;", "line": True, "var": "x"},
            {"op": "nope", "source": "x;"},
            "not an object",
        ],
    )
    def test_malformed_requests_raise_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            request_from_dict(payload)

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            request_from_json("{not json")

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            request_from_dict(
                {
                    "op": "slice",
                    "source": "x;",
                    "line": 1,
                    "var": "x",
                    "version": PROTOCOL_VERSION + 1,
                }
            )


class TestSlicePayload:
    def test_matches_slice_result(self):
        analysis = analyze_program(FIG3A)
        result = get_algorithm("agrawal")(
            analysis, SlicingCriterion(line=15, var="positives")
        )
        payload = slice_result_payload(result)
        assert payload["algorithm"] == "agrawal"
        assert payload["criterion"] == {"line": 15, "var": "positives"}
        assert payload["nodes"] == result.statement_nodes()
        assert payload["lines"] == result.lines()
        assert payload["size"] == len(result.statement_nodes())
        assert payload["traversals"] == result.traversals
        assert payload["label_map"] == result.label_map

    def test_payload_is_json_serialisable_with_stable_bytes(self):
        analysis = analyze_program(FIG3A)
        result = get_algorithm("agrawal")(
            analysis, SlicingCriterion(line=15, var="positives")
        )
        envelope = ok_envelope("slice", slice_result_payload(result))
        once = dump_json(envelope)
        twice = dump_json(json.loads(once))
        assert once == twice


class TestErrorMapping:
    def test_slice_error_code(self):
        payload = error_payload(SliceError("no statement at line 99"))
        assert payload["code"] == "slice-error"
        assert "line 99" in payload["message"]

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as info:
            analyze_program("x = ;")
        payload = error_payload(info.value)
        assert payload["code"] == "parse-error"
        assert payload["location"]["line"] == 1

    def test_non_decimal_digit_is_a_lex_error(self):
        from repro.service.engine import SlicingEngine

        engine = SlicingEngine()
        try:
            envelope = engine.handle_payload(
                {"version": 1, "op": "slice", "source": "x = ²;",
                 "line": 1, "var": "x"}
            )
        finally:
            engine.close()
        assert envelope["ok"] is False
        error = envelope["error"]
        assert error["code"] == "lex-error"
        assert error["location"] == {"line": 1, "column": 5}
        assert "unexpected character '²'" in error["message"]

    def test_value_error_is_bad_request(self):
        assert error_payload(ValueError("unknown"))["code"] == "bad-request"

    def test_protocol_error_code(self):
        assert error_payload(ProtocolError("nope"))["code"] == "protocol-error"

    def test_unexpected_exception_is_internal(self):
        assert error_payload(RuntimeError("boom"))["code"] == "internal-error"

    def test_error_envelope_shape(self):
        envelope = error_envelope("slice", SliceError("nope"), "id-7")
        assert envelope["ok"] is False
        assert envelope["op"] == "slice"
        assert envelope["id"] == "id-7"
        assert envelope["version"] == PROTOCOL_VERSION


class TestCapabilities:
    def test_every_algorithm_is_classified(self):
        metadata = algorithm_metadata()
        assert sorted(metadata) == algorithm_names()
        for name in CORRECT_GENERAL:
            assert metadata[name] == "correct-general"
        for name in CORRECT_STRUCTURED:
            assert metadata[name] == "structured-only"
        assert metadata["conventional"] == "baseline"

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError):
            algorithm_capability("nope")

    def test_capabilities_payload(self):
        payload = capabilities_payload()
        assert payload["version"] == PROTOCOL_VERSION
        names = [entry["name"] for entry in payload["algorithms"]]
        assert names == algorithm_names()
        assert all("capability" in entry for entry in payload["algorithms"])
