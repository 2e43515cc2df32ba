"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.corpus import PAPER_PROGRAMS


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3a.sl"
    path.write_text(PAPER_PROGRAMS["fig3a"].source)
    return str(path)


@pytest.fixture
def fig5_file(tmp_path):
    path = tmp_path / "fig5a.sl"
    path.write_text(PAPER_PROGRAMS["fig5a"].source)
    return str(path)


class TestParse:
    def test_pretty_prints(self, fig3_file, capsys):
        assert main(["parse", fig3_file]) == 0
        out = capsys.readouterr().out
        assert "L3: if (eof()) goto L14;" in out

    def test_invalid_program_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.sl"
        path.write_text("goto nowhere;")
        assert main(["parse", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["parse", "/no/such/file.sl"]) == 1


class TestRun:
    def test_outputs_printed(self, fig3_file, capsys):
        assert main(["run", fig3_file, "--input", "3,-1,4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        # sum = f3(3) + f1(-1) + f2(4) = 0 - 1 + 16 = 15; positives = 2.
        assert out == ["15", "2"]

    def test_env_bindings(self, tmp_path, capsys):
        path = tmp_path / "env.sl"
        path.write_text("write(c + 1);")
        assert main(["run", str(path), "--env", "c=41"]) == 0
        assert capsys.readouterr().out.strip() == "42"


class TestSlice:
    def test_extracted_source(self, fig3_file, capsys):
        code = main(
            ["slice", fig3_file, "--line", "15", "--var", "positives"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "positives = positives + 1" in out
        assert "sum = sum + f1(x)" not in out
        assert "L14: ;" in out

    def test_json_mode_emits_protocol_envelope(self, fig3_file, capsys):
        import json

        code = main(
            [
                "slice",
                fig3_file,
                "--line",
                "15",
                "--var",
                "positives",
                "--json",
            ]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True and envelope["op"] == "slice"
        result = envelope["result"]
        assert result["criterion"] == {"line": 15, "var": "positives"}
        assert result["size"] == len(result["nodes"])

    def test_json_and_explain_are_exclusive(self, fig3_file, capsys):
        code = main(
            [
                "slice",
                fig3_file,
                "--line",
                "15",
                "--var",
                "positives",
                "--json",
                "--explain",
            ]
        )
        assert code == 2

    def test_nodes_listing(self, fig3_file, capsys):
        code = main(
            [
                "slice", fig3_file, "--line", "15", "--var", "positives",
                "--nodes",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slice by agrawal" in out

    def test_algorithm_selection(self, fig5_file, capsys):
        code = main(
            [
                "slice", fig5_file, "--line", "14", "--var", "positives",
                "--algorithm", "conservative",
            ]
        )
        assert code == 0
        assert "continue" in capsys.readouterr().out

    def test_bad_line_reports_error(self, fig3_file, capsys):
        code = main(["slice", fig3_file, "--line", "99", "--var", "x"])
        assert code == 1
        assert "no statement at line 99" in capsys.readouterr().err

    def test_explain_flag(self, fig3_file, capsys):
        code = main(
            [
                "slice", fig3_file, "--line", "15", "--var", "positives",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# conventional slice" in out
        assert "INCLUDE" in out
        assert "positives = positives + 1" in out  # extraction follows

    def test_explain_requires_agrawal(self, fig3_file, capsys):
        code = main(
            [
                "slice", fig3_file, "--line", "15", "--var", "positives",
                "--explain", "--algorithm", "lyle",
            ]
        )
        assert code == 2


class TestCompare:
    def test_lists_every_algorithm(self, fig3_file, capsys):
        code = main(
            ["compare", fig3_file, "--line", "15", "--var", "positives"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("conventional", "agrawal", "ball-horwitz", "lyle"):
            assert name in out
        # Structured algorithms refuse unstructured input, visibly.
        assert "refused" in out

    def test_json_mode_emits_protocol_envelope(self, fig3_file, capsys):
        import json

        code = main(
            [
                "compare",
                fig3_file,
                "--line",
                "15",
                "--var",
                "positives",
                "--json",
            ]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True and envelope["op"] == "compare"
        rows = {
            row["name"]: row for row in envelope["result"]["algorithms"]
        }
        assert rows["agrawal"]["ok"] is True
        assert rows["structured"]["ok"] is False
        assert rows["structured"]["error"]["code"] == "slice-error"


class TestDynamic:
    def test_dynamic_slice_listing(self, fig3_file, capsys):
        code = main(
            [
                "dynamic", fig3_file, "--line", "15", "--var", "positives",
                "--input", "3,-1,4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dynamic slice" in out
        assert "positives = positives + 1" in out
        assert "trace:" in out

    def test_dynamic_never_executed(self, tmp_path, capsys):
        path = tmp_path / "dead.sl"
        path.write_text("if (0)\nx = 1;\nwrite(x);")
        code = main(
            ["dynamic", str(path), "--line", "2", "--var", "x"]
        )
        assert code == 1
        assert "never executed" in capsys.readouterr().err


class TestPyslice:
    def test_python_file_sliced(self, tmp_path, capsys):
        path = tmp_path / "prog.py"
        path.write_text(
            "count = 0\n"
            "total = 0\n"
            "while not eof():\n"
            "    x = read()\n"
            "    if x <= 0:\n"
            "        continue\n"
            "    count += 1\n"
            "print(count)\n"
        )
        code = main(["pyslice", str(path), "--line", "8", "--var", "count"])
        assert code == 0
        out = capsys.readouterr().out
        assert ">    6         continue" in out
        assert out.splitlines()[1].startswith(" ")  # total = 0 excluded


class TestCheck:
    def test_text_report(self, fig3_file, capsys):
        assert main(["check", fig3_file]) == 0
        out = capsys.readouterr().out
        assert "SL105" in out
        assert "1 diagnostic" in out

    def test_json_envelope(self, fig3_file, capsys):
        import json

        assert main(["check", fig3_file, "--format", "json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True and envelope["op"] == "check"
        assert envelope["result"]["counts"] == {"SL105": 1}

    def test_clean_program(self, tmp_path, capsys):
        path = tmp_path / "clean.sl"
        path.write_text("read(x);\nwrite(x);\n")
        assert main(["check", str(path)]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_error_findings_set_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.sl"
        path.write_text("goto nowhere;\n")
        assert main(["check", str(path)]) == 1
        assert "SL003" in capsys.readouterr().out

    def test_syntax_error_is_a_diagnostic_not_a_crash(self, tmp_path, capsys):
        path = tmp_path / "syntax.sl"
        path.write_text("read(")
        assert main(["check", str(path)]) == 1
        assert "SL001" in capsys.readouterr().out

    def test_select_and_ignore_flags(self, fig3_file, capsys):
        assert main(["check", fig3_file, "--ignore", "SL105"]) == 0
        assert "no diagnostics" in capsys.readouterr().out
        assert main(["check", fig3_file, "--select", "SL2,SL105"]) == 0
        assert "SL105" in capsys.readouterr().out


class TestGraph:
    def test_dot_output(self, fig3_file, capsys):
        assert main(["graph", fig3_file, "--kind", "pdt"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_ascii_tree(self, fig3_file, capsys):
        assert main(["graph", fig3_file, "--kind", "pdt", "--ascii"]) == 0
        assert "EXIT" in capsys.readouterr().out

    def test_ascii_cfg(self, fig3_file, capsys):
        assert main(["graph", fig3_file, "--kind", "cfg", "--ascii"]) == 0
        assert "ENTRY" in capsys.readouterr().out

    def test_ascii_unsupported_kind(self, fig3_file, capsys):
        assert main(["graph", fig3_file, "--kind", "pdg", "--ascii"]) == 2

    def test_highlighted_graph(self, fig3_file, capsys):
        code = main(
            [
                "graph", fig3_file, "--kind", "cfg",
                "--line", "15", "--var", "positives",
            ]
        )
        assert code == 0
        assert "lightgrey" in capsys.readouterr().out


class TestClosureIndexFlag:
    def test_on_is_the_default(self, fig3_file, capsys):
        from repro.pdg.closure import closure_index_enabled

        code = main(["slice", fig3_file, "--line", "9", "--var", "z"])
        assert code == 0
        capsys.readouterr()
        assert closure_index_enabled()
