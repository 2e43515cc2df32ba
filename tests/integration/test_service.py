"""Integration tests for the slicing service: concurrent correctness
against the single-threaded registry path, the batch runner, and the
HTTP front end."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus import PAPER_PROGRAMS
from repro.lang.errors import SlangError
from repro.pdg.builder import analyze_program
from repro.service.cache import AnalysisCache
from repro.service.engine import SlicingEngine, perform_compare, perform_slice
from repro.service.protocol import dump_json, ok_envelope
from repro.service.server import make_server
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import (
    CORRECT_STRUCTURED,
    algorithm_names,
    get_algorithm,
)

#: Algorithms exercised on every corpus program (correct-general plus
#: baselines); structured-only ones are added on structured programs.
GENERAL_ALGORITHMS = [
    name for name in algorithm_names() if name not in CORRECT_STRUCTURED
]


def _workload():
    """Mixed slice/compare payloads over the paper corpus, with the
    expected envelope computed on the single-threaded registry path."""
    jobs = []
    for name, entry in sorted(PAPER_PROGRAMS.items()):
        line, var = entry.criterion
        analysis = analyze_program(entry.source)
        algorithms = list(GENERAL_ALGORITHMS)
        if entry.structured:
            algorithms += [
                algo
                for algo in CORRECT_STRUCTURED
                if _runs_clean(analysis, line, var, algo)
            ]
        for algorithm in algorithms:
            payload = {
                "op": "slice",
                "source": entry.source,
                "line": line,
                "var": var,
                "algorithm": algorithm,
            }
            expected = ok_envelope(
                "slice", perform_slice(analysis, line, var, algorithm)
            )
            jobs.append((payload, expected))
        compare_payload = {
            "op": "compare",
            "source": entry.source,
            "line": line,
            "var": var,
        }
        expected = ok_envelope(
            "compare", perform_compare(analysis, line, var)
        )
        jobs.append((compare_payload, expected))
    return jobs


def _runs_clean(analysis, line, var, algorithm) -> bool:
    try:
        get_algorithm(algorithm)(
            analysis, SlicingCriterion(line=line, var=var)
        )
    except SlangError:
        return False
    return True


class TestConcurrentEngine:
    def test_threaded_responses_equal_single_threaded_registry(self):
        jobs = _workload()
        engine = SlicingEngine(
            cache=AnalysisCache(capacity=16), workers=8
        )
        # Each request repeated from several threads at once.
        repeated = [job for job in jobs for _ in range(3)]
        with ThreadPoolExecutor(max_workers=12) as pool:
            envelopes = list(
                pool.map(
                    lambda job: (engine.handle_payload(job[0]), job[1]),
                    repeated,
                )
            )
        engine.close()
        for envelope, expected in envelopes:
            assert envelope == expected

    def test_run_batch_preserves_order(self):
        jobs = _workload()
        engine = SlicingEngine(cache=AnalysisCache(capacity=16), workers=6)
        responses = engine.run_batch([payload for payload, _ in jobs])
        engine.close()
        assert len(responses) == len(jobs)
        for response, (_, expected) in zip(responses, jobs):
            assert response == expected

    def test_cache_is_shared_across_requests(self):
        engine = SlicingEngine(cache=AnalysisCache(capacity=16), workers=4)
        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        payload = {
            "op": "slice",
            "source": entry.source,
            "line": line,
            "var": var,
        }
        engine.run_batch([payload] * 20)
        stats = engine.cache.stats()
        engine.close()
        assert stats["misses"] <= 4  # benign build races at most
        assert stats["hits"] >= 16
        assert stats["entries"] == 1

    def test_structured_only_rejection_is_structured(self):
        engine = SlicingEngine(cache=AnalysisCache(capacity=4))
        entry = PAPER_PROGRAMS["fig3a"]  # unstructured gotos
        line, var = entry.criterion
        for algorithm in CORRECT_STRUCTURED:
            envelope = engine.handle_payload(
                {
                    "op": "slice",
                    "source": entry.source,
                    "line": line,
                    "var": var,
                    "algorithm": algorithm,
                }
            )
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == "slice-error"
            assert "structured-only" in envelope["error"]["message"]
        engine.close()

    def test_metrics_fast_path_matches_inline(self):
        from repro.metrics import slice_based_metrics

        entry = PAPER_PROGRAMS["fig3a"]
        analysis = analyze_program(entry.source)
        engine = SlicingEngine(cache=AnalysisCache(capacity=4), workers=4)
        pooled = slice_based_metrics(analysis, engine=engine)
        engine.close()
        inline = slice_based_metrics(analysis)
        assert pooled == inline

    def test_bulk_slice_every_criterion(self):
        engine = SlicingEngine(cache=AnalysisCache(capacity=4), workers=4)
        entry = PAPER_PROGRAMS["fig3a"]
        payloads = engine.bulk_slice(entry.source, mode="all")
        engine.close()
        analysis = analyze_program(entry.source)
        slicer = get_algorithm("agrawal")
        for payload in payloads:
            criterion = SlicingCriterion(
                line=payload["criterion"]["line"],
                var=payload["criterion"]["var"],
            )
            expected = slicer(analysis, criterion).statement_nodes()
            assert payload["nodes"] == expected


@pytest.fixture
def http_server():
    engine = SlicingEngine(
        cache=AnalysisCache(capacity=16), workers=6
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
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _get(server, path):
    port = server.server_address[1]
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestHTTPServer:
    def test_concurrent_http_slices_match_cli_bytes(self, http_server):
        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        analysis = analyze_program(entry.source)
        expected = {}
        for algorithm in GENERAL_ALGORITHMS:
            expected[algorithm] = dump_json(
                ok_envelope(
                    "slice", perform_slice(analysis, line, var, algorithm)
                )
            )

        def hit(algorithm):
            status, body = _post(
                http_server,
                "/slice",
                {
                    "source": entry.source,
                    "line": line,
                    "var": var,
                    "algorithm": algorithm,
                },
            )
            return algorithm, status, body

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(hit, GENERAL_ALGORITHMS * 3))
        for algorithm, status, body in results:
            assert status == 200
            assert body == expected[algorithm]

    def test_compare_endpoint_matches_cli_bytes(self, http_server):
        entry = PAPER_PROGRAMS["fig5a"]
        line, var = entry.criterion
        analysis = analyze_program(entry.source)
        expected = dump_json(
            ok_envelope("compare", perform_compare(analysis, line, var))
        )
        status, body = _post(
            http_server,
            "/compare",
            {"source": entry.source, "line": line, "var": var},
        )
        assert status == 200
        assert body == expected

    def test_batch_endpoint(self, http_server):
        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        requests = [
            {
                "op": "slice",
                "source": entry.source,
                "line": line,
                "var": var,
                "id": f"r{i}",
            }
            for i in range(6)
        ]
        status, body = _post(http_server, "/batch", {"requests": requests})
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] is True
        assert [r["id"] for r in payload["responses"]] == [
            f"r{i}" for i in range(6)
        ]

    def test_graph_and_metrics_endpoints(self, http_server):
        entry = PAPER_PROGRAMS["fig5a"]
        status, body = _post(
            http_server, "/graph", {"source": entry.source, "kind": "pdt"}
        )
        assert status == 200
        assert "digraph" in json.loads(body)["result"]["dot"]
        status, body = _post(
            http_server, "/metrics", {"source": entry.source}
        )
        assert status == 200
        assert "tightness" in json.loads(body)["result"]

    def test_stats_and_algorithms_endpoints(self, http_server):
        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        _post(
            http_server,
            "/slice",
            {"source": entry.source, "line": line, "var": var},
        )
        status, body = _get(http_server, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["requests"].get("slice:agrawal", 0) >= 1
        assert "cache" in stats and stats["cache"]["entries"] >= 1
        status, body = _get(http_server, "/algorithms")
        assert status == 200
        names = [a["name"] for a in json.loads(body)["algorithms"]]
        assert names == algorithm_names()

    def test_error_statuses(self, http_server):
        status, body = _get(http_server, "/nope")
        assert status == 404
        status, body = _post(http_server, "/slice", {"line": 1, "var": "x"})
        assert status == 400
        assert json.loads(body)["error"]["code"] == "protocol-error"
        status, body = _post(
            http_server,
            "/slice",
            {"source": "x = ;", "line": 1, "var": "x"},
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse-error"
        status, body = _post(http_server, "/batch", {"requests": "nope"})
        assert status == 400

    def test_healthz(self, http_server):
        status, body = _get(http_server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}

    def test_check_endpoint(self, http_server):
        source = "read(x);\ny = 1;\nL: x = x - 1;\nif (x > 0) goto L;\nwrite(x);\n"
        status, body = _post(http_server, "/check", {"source": source})
        assert status == 200
        result = json.loads(body)["result"]
        assert result["clean"] is False
        assert result["counts"] == {"SL105": 1, "SL108": 1}
        # select/ignore prefixes travel over the wire too.
        status, body = _post(
            http_server, "/check", {"source": source, "ignore": ["SL105"]}
        )
        assert json.loads(body)["result"]["counts"] == {"SL108": 1}
        # Per-code diagnostic counters surface in /stats.
        status, body = _get(http_server, "/stats")
        stats = json.loads(body)
        assert stats["diagnostics"].get("SL105", 0) >= 1
        assert stats["requests"].get("check", 0) >= 2

    def test_check_endpoint_reports_syntax_errors_as_diagnostics(
        self, http_server
    ):
        status, body = _post(http_server, "/check", {"source": "read("})
        assert status == 200  # the *check* succeeded; the program is bad
        result = json.loads(body)["result"]
        assert result["counts"] == {"SL001": 1}
        assert result["summary"]["error"] == 1

    def test_check_malformed_request(self, http_server):
        status, body = _post(http_server, "/check", {"source": 7})
        assert status == 400
        assert json.loads(body)["error"]["code"] == "protocol-error"
        status, body = _post(
            http_server, "/check", {"source": "x = 1;", "select": "SL1"}
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "protocol-error"

    def test_unreachable_criterion_has_stable_error_code(self, http_server):
        source = "read(x);\ngoto L;\ny = x;\nwrite(y);\nL: write(x);\n"
        status, body = _post(
            http_server,
            "/slice",
            {"source": source, "line": 4, "var": "y"},
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "unreachable-criterion"


class TestCLIJson:
    def test_slice_json_matches_http_bytes(self, http_server, tmp_path, capsys):
        from repro.cli import main

        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        path = tmp_path / "fig3a.sl"
        path.write_text(entry.source)
        assert (
            main(
                [
                    "slice",
                    str(path),
                    "--line",
                    str(line),
                    "--var",
                    var,
                    "--json",
                ]
            )
            == 0
        )
        cli_body = capsys.readouterr().out.strip()
        status, http_body = _post(
            http_server,
            "/slice",
            {"source": entry.source, "line": line, "var": var},
        )
        assert status == 200
        assert cli_body == http_body

    def test_compare_json_matches_http_bytes(
        self, http_server, tmp_path, capsys
    ):
        from repro.cli import main

        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        path = tmp_path / "fig3a.sl"
        path.write_text(entry.source)
        assert (
            main(
                [
                    "compare",
                    str(path),
                    "--line",
                    str(line),
                    "--var",
                    var,
                    "--json",
                ]
            )
            == 0
        )
        cli_body = capsys.readouterr().out.strip()
        status, http_body = _post(
            http_server,
            "/compare",
            {"source": entry.source, "line": line, "var": var},
        )
        assert status == 200
        assert cli_body == http_body

    def test_check_json_matches_http_bytes(
        self, http_server, tmp_path, capsys
    ):
        from repro.cli import main

        entry = PAPER_PROGRAMS["fig10a"]
        path = tmp_path / "fig10a.sl"
        path.write_text(entry.source)
        assert main(["check", str(path), "--format", "json"]) == 0
        cli_body = capsys.readouterr().out.strip()
        status, http_body = _post(
            http_server, "/check", {"source": entry.source}
        )
        assert status == 200
        assert cli_body == http_body

    def test_batch_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        entry = PAPER_PROGRAMS["fig3a"]
        line, var = entry.criterion
        batch = tmp_path / "batch.jsonl"
        lines = [
            json.dumps(
                {
                    "op": "slice",
                    "source": entry.source,
                    "line": line,
                    "var": var,
                    "id": f"r{i}",
                }
            )
            for i in range(4)
        ]
        batch.write_text("\n".join(lines) + "\n")
        assert main(["batch", str(batch), "--stats"]) == 0
        captured = capsys.readouterr()
        out_lines = captured.out.strip().splitlines()
        assert len(out_lines) == 4
        for i, line_text in enumerate(out_lines):
            response = json.loads(line_text)
            assert response["ok"] is True
            assert response["id"] == f"r{i}"
        stats = json.loads(captured.err.strip().splitlines()[-1])
        assert stats["cache"]["hits"] >= 2

    def test_batch_strict_fails_on_errors(self, tmp_path, capsys):
        from repro.cli import main

        batch = tmp_path / "bad.jsonl"
        batch.write_text(
            json.dumps({"op": "slice", "source": "x = ;", "line": 1, "var": "x"})
            + "\n"
        )
        assert main(["batch", str(batch), "--strict"]) == 1
        response = json.loads(capsys.readouterr().out.strip())
        assert response["ok"] is False
        assert response["error"]["code"] == "parse-error"
