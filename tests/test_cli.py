"""Tests for the command-line interface (python -m repro)."""

import numpy as np
import pytest

from repro.algorithms import dijkstra_reference
from repro.cli import build_parser, main
from repro.graph import load_edge_list, rmat, save_edge_list


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "graph.el"
    graph = rmat(8, 10, seed=3)
    save_edge_list(graph, path)
    source = int(np.argmax(graph.out_degrees()))
    return str(path), graph, source


class TestGenerate:
    def test_rmat(self, tmp_path, capsys):
        out = tmp_path / "g.el"
        code = main(["generate", "rmat", "--scale", "6", "-o", str(out)])
        assert code == 0
        graph = load_edge_list(out)
        assert graph.num_vertices <= 64
        assert "wrote rmat graph" in capsys.readouterr().out

    def test_road(self, tmp_path):
        out = tmp_path / "r.el"
        assert main(["generate", "road", "--scale", "8", "-o", str(out)]) == 0
        graph = load_edge_list(out)
        assert graph.is_symmetric()


class TestCompile:
    def test_python_to_stdout(self, capsys):
        assert main(["compile", "sssp"]) == 0
        out = capsys.readouterr().out
        assert "def program(ctx):" in out

    def test_cpp_to_file(self, tmp_path, capsys):
        out = tmp_path / "sssp.cpp"
        code = main(
            [
                "compile",
                "sssp",
                "--backend",
                "cpp",
                "--priority-update",
                "eager_with_fusion",
                "--delta",
                "8",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "bucket fusion" in text

    def test_compile_gt_file(self, tmp_path, capsys):
        source = tmp_path / "prog.gt"
        from repro.lang import program_source

        source.write_text(program_source("kcore"))
        assert main(["compile", str(source)]) == 0
        assert "apply_f" in capsys.readouterr().out

    def test_unknown_program_errors(self, capsys):
        assert main(["compile", "pagerank2000"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_schedule_errors(self, capsys):
        code = main(
            [
                "compile",
                "sssp",
                "--priority-update",
                "eager_no_fusion",
                "--direction",
                "DensePull",
            ]
        )
        assert code == 1
        assert "SparsePush" in capsys.readouterr().err


class TestRun:
    def test_run_sssp(self, graph_file, capsys):
        path, graph, source = graph_file
        code = main(
            [
                "run",
                "sssp",
                path,
                str(source),
                "--priority-update",
                "eager_with_fusion",
                "--delta",
                "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rounds=" in out
        assert "vector dist:" in out
        reference = dijkstra_reference(graph, source)
        finite = reference[reference < 2**62]
        assert f"max={finite.max()}" in out

    def test_run_kcore(self, tmp_path, capsys):
        sym = rmat(7, 8, seed=2).symmetrized()
        path = tmp_path / "sym.el"
        save_edge_list(sym, path)
        code = main(
            ["run", "kcore", str(path), "--priority-update", "lazy_constant_sum"]
        )
        assert code == 0
        assert "vector D:" in capsys.readouterr().out


    @pytest.mark.parametrize("execution", ["serial", "native"])
    def test_run_rejects_out_of_range_vertex(self, tmp_path, capsys, execution):
        path = tmp_path / "g.el"
        path.write_text("0 1 4\n1 2 3\n")
        code = main(["run", "sssp", str(path), "7", "--execution", execution])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: argv[2] = 7 out of range for a 3-vertex graph" in err


class TestRunIncremental:
    def test_run_incremental_resumes_per_batch_and_verifies(
        self, graph_file, tmp_path, capsys
    ):
        path, graph, source = graph_file
        sources, dests, _ = graph.edge_list()
        src, dst = int(sources[0]), int(dests[0])
        script = tmp_path / "delta.mut"
        script.write_text(
            f"add {source} {dst} 2\n"
            f"remove {src} {dst}\n"
            "flush\n"
            f"update {source} {dst} 1  # improve the edge we just added\n"
        )
        code = main(
            [
                "run",
                "sssp",
                path,
                str(source),
                "--incremental",
                "--mutations",
                str(script),
                "--delta",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged from scratch:" in out
        assert "batch 0: mutations=2" in out
        assert "batch 1: mutations=1" in out
        assert out.count("verify=ok") == 2
        assert "final vector:" in out

    def test_run_incremental_requires_mutation_script(self, graph_file, capsys):
        path, _, source = graph_file
        code = main(["run", "sssp", path, str(source), "--incremental"])
        assert code == 1
        assert "--mutations" in capsys.readouterr().err

    def test_run_incremental_rejects_ineligible_program(
        self, tmp_path, graph_file, capsys
    ):
        path, _, _ = graph_file
        script = tmp_path / "one.mut"
        script.write_text("add 0 1\n")
        code = main(
            ["run", "kcore", path, "--incremental", "--mutations", str(script)]
        )
        assert code == 1
        assert "not eligible" in capsys.readouterr().err


class TestTraceAndProfile:
    def test_trace_writes_valid_chrome_json(self, graph_file, tmp_path, capsys):
        from repro.obs import get_tracer, load_chrome_trace

        path, _, source = graph_file
        out = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "sssp",
                path,
                str(source),
                "--priority-update",
                "eager_with_fusion",
                "--delta",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert get_tracer() is None  # the CLI deactivated its tracer
        payload = load_chrome_trace(str(out))  # validates on load
        names = {e["name"] for e in payload["traceEvents"]}
        assert "compile" in names and "bucket.advance" in names
        assert payload["metadata"]["schedule"]["priority_update"] == (
            "eager_with_fusion"
        )
        assert "trace events" in capsys.readouterr().out

    def test_trace_synthetic_graph_and_parallel_spans(self, tmp_path):
        from repro.obs import load_chrome_trace

        out = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "sssp",
                "--execution",
                "parallel",
                "--threads",
                "4",
                "--delta",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        names = {e["name"] for e in load_chrome_trace(str(out))["traceEvents"]}
        assert "worker.produce" in names and "barrier.wait" in names

    def test_profile_prints_table(self, graph_file, capsys):
        path, _, source = graph_file
        code = main(["profile", "sssp", path, str(source), "--delta", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "self ms" in out
        assert "program.run" in out


class TestCommandSurface:
    def test_no_bench_subcommands(self):
        """Performance is measured by ``bench/run.py`` only; the in-CLI
        harnesses must not grow back."""
        import argparse

        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert "serve" in subparsers.choices
        assert not [name for name in subparsers.choices if name.startswith("bench")]


class TestLintJson:
    def test_clean_program_document(self, capsys):
        import json

        assert main(["lint", "sssp", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["diagnostics"] == []
        assert document["checked"] == 1

    def test_diagnostics_carry_span_fields(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.gt"
        bad.write_text("func main(")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["errors"] >= 1
        for entry in document["diagnostics"]:
            assert set(entry) == {"code", "severity", "span", "message"}
            assert entry["span"]["file"] == str(bad)
            assert entry["span"]["line"] >= 1
            assert entry["span"]["column"] >= 1

    def test_lone_delta_flag_is_applied(self, capsys):
        import json

        assert main(["lint", "--delta", "0", "sssp", "--format", "json"]) == 1
        (finding,) = json.loads(capsys.readouterr().out)["diagnostics"]
        assert finding["code"] == "S003" and "delta" in finding["message"]
        assert finding["span"] == {"file": "sssp", "line": 1, "column": 1}

    def test_rejected_flag_schedule_is_a_located_s003(self, capsys):
        import json

        argv = ["lint", "--priority-update", "eager_with_fusion"]
        argv += ["--direction", "DensePull", "sssp", "--format", "json"]
        assert main(argv) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False and document["errors"] == 1
        assert [d["code"] for d in document["diagnostics"]] == ["S003"]

    def test_lone_direction_flag_overlays_the_inline_schedule(self, capsys):
        # kcore_peel.gt schedules lazy_constant_sum inline; under pull its
        # sum update is thread-owned, so the dedup note (R003) goes away.
        from pathlib import Path

        path = str(Path(__file__).parent.parent / "examples" / "kcore_peel.gt")
        assert main(["lint", "--info", path]) == 0
        assert "R003" in capsys.readouterr().out
        assert main(["lint", "--info", "--direction", "DensePull", path]) == 0
        assert "R003" not in capsys.readouterr().out


class TestAnalyze:
    def test_json_document(self, capsys):
        import json

        assert main(["analyze", "sssp", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        report = document["programs"]["sssp"]
        assert report["effects"]["ordered_loop"]["udf"] == "updateEdge"
        verdicts = report["effects"]["monotonicity"]
        assert verdicts and verdicts[0]["verdict"] == "monotone-decreasing"
        assert document["fusion"][0]["pair"] == ["sssp", "sssp"]

    def test_text_fusion_matrix(self, capsys):
        assert main(["analyze", "sssp", "widest"]) == 0
        out = capsys.readouterr().out
        assert "monotonicity priority(pq)" in out
        assert "fusion sssp x widest: blocked" in out
        assert "processing-order mismatch" in out

    def test_analyze_gt_file(self, tmp_path, capsys):
        from repro.lang import program_source

        path = tmp_path / "prog.gt"
        path.write_text(program_source("kcore"))
        assert main(["analyze", str(path)]) == 0
        assert "monotone-decreasing" in capsys.readouterr().out

    def test_explicit_schedule_gates_non_monotone(self, tmp_path, capsys):
        from repro.lang import program_source

        path = tmp_path / "nm.gt"
        path.write_text(
            program_source("kcore").replace(
                "pq.updatePrioritySum(dst, -1, k);",
                "pq.updatePrioritySum(dst, k - 1, k);",
            )
        )
        code = main(
            ["analyze", str(path), "--priority-update", "eager_with_fusion"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "non-monotone" in err
        assert "bucket fusion would be unsound" in err

    def test_lone_delta_flag_is_applied(self, capsys):
        import json

        assert main(["analyze", "--delta", "4", "sssp", "--format", "json"]) == 0
        schedule = json.loads(capsys.readouterr().out)["programs"]["sssp"]["schedule"]
        assert schedule == {
            "priority_update": "eager_no_fusion",
            "direction": "SparsePush",
            "delta": 4,
        }

    def test_rejected_flag_schedule_is_a_located_s003(self, capsys):
        assert main(["analyze", "--delta", "0", "sssp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sssp:1:1: error[S003]:")


class TestRunSanitize:
    def test_run_with_sanitizer_reports_scopes(self, graph_file, capsys):
        path, graph, source = graph_file
        code = main(
            [
                "run",
                "sssp",
                path,
                str(source),
                "--priority-update",
                "eager_with_fusion",
                "--delta",
                "8",
                "--sanitize",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rounds=" in out
        assert "sanitizer:" in out
        assert "apply scopes validated" in out
        assert "updateEdge" in out

    def test_run_without_flag_has_no_sanitizer_line(self, graph_file, capsys):
        path, _, source = graph_file
        assert main(["run", "sssp", path, str(source)]) == 0
        assert "sanitizer:" not in capsys.readouterr().out


class TestAutotune:
    def test_autotune_sssp(self, graph_file, capsys):
        path, _, source = graph_file
        code = main(
            [
                "autotune",
                "sssp",
                path,
                "--source",
                str(source),
                "--trials",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best schedule" in out
        assert "priority_update=" in out
