"""Tests for the midend diagnostics engine (races, validator, lint).

Covers:

- the race/atomicity analysis' per-site classification under push/pull
  schedules, including the benign-race idioms (guarded monotonic
  test-and-set, idempotent constant store) and CAS seeding from the
  preserved old-value argument,
- every stable diagnostic code (``P001``/``T001``/``V001``-``V003``/
  ``S001``-``S003``/``R001``-``R003``) with its severity and span,
- the negative paths of the constant-sum analysis,
- the race-driven atomics in generated C++ (no unconditional atomics),
- the Python backend's runtime assertion of the classification, and
- the ``repro lint`` CLI (including ``--werror``).
"""

import os
from dataclasses import replace

import pytest

from repro.backend import compile_program
from repro.cli import main
from repro.errors import GraphItError, IRValidationError
from repro.graph import from_edges, rmat
from repro.lang import ALL_PROGRAMS, parse
from repro.lang import ast_nodes as ast
from repro.lang.span import Span
from repro.midend import Schedule, SchedulingProgram
from repro.midend.diagnostics import (
    DIAGNOSTIC_CODES,
    Severity,
    check_schedule_compat,
    render_diagnostic,
    validate_ir,
    validate_ir_or_raise,
)
from repro.midend.analysis.facts import build_facts
from repro.midend.analysis.races import RaceClass, classify_races
from repro.midend.lint import lint_program
from repro.midend.transforms import plan_program

from .oracle_matrix import Cell, check

RACY_SSSP = ALL_PROGRAMS["sssp"].replace(
    "    pq.updatePriorityMin(dst, dist[dst], new_dist);",
    "    dist[dst] = new_dist;\n"
    "    pq.updatePriorityMin(dst, dist[dst], new_dist);",
)
assert RACY_SSSP != ALL_PROGRAMS["sssp"]

# One more statement in the loop body: the ordered loop is no longer
# recognized, so the apply UDF is planned as a plain apply site.
LOOSE_RACY_SSSP = RACY_SSSP.replace(
    "        delete bucket;\n", "        var rounds : int = 0;\n        delete bucket;\n"
)
assert LOOSE_RACY_SSSP != RACY_SSSP


def _udf(name, source):
    return build_facts(parse(source)).udfs[name]


def _race_report(source, udf_name, schedule):
    return classify_races(_udf(udf_name, source), schedule)


# ======================================================================
# Spans
# ======================================================================
class TestSpans:
    def test_parse_error_carries_location(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError) as excinfo:
            parse("func main()\n    var x int = 3;\nend\n", "broken.gt")
        assert excinfo.value.span is not None
        assert excinfo.value.span.file == "broken.gt"
        assert excinfo.value.span.line == 2

    def test_ast_nodes_carry_columns(self):
        program = parse(ALL_PROGRAMS["sssp"], "sssp.gt")
        udf = program.function("updateEdge")
        assert udf.span.line > 0
        assert program.source_file == "sssp.gt"
        for node in ast.walk(udf):
            assert node.line > 0

    def test_span_str(self):
        assert str(Span(line=3, column=7, file="a.gt")) == "a.gt:3:7"
        assert str(Span()) == "<unknown location>"

    def test_span_merge(self):
        merged = Span.merge(Span(line=2, column=5), Span(line=4, column=1))
        assert (merged.line, merged.column) == (2, 5)
        assert (merged.end_line, merged.end_column) >= (4, 1)


# ======================================================================
# Race/atomicity analysis (the tentpole)
# ======================================================================
class TestRaceAnalysis:
    def test_sssp_push_update_needs_cas_with_seed(self):
        report = _race_report(
            ALL_PROGRAMS["sssp"], "updateEdge", Schedule(priority_update="lazy")
        )
        sites = [s for s in report.sites if s.is_priority_update]
        assert len(sites) == 1
        site = sites[0]
        assert site.race_class is RaceClass.NEEDS_CAS
        assert site.cas_seed is not None  # seeded from dist[dst]
        assert report.needs_atomics
        assert not report.needs_deduplication

    def test_sssp_pull_update_is_thread_owned(self):
        report = _race_report(
            ALL_PROGRAMS["sssp"],
            "updateEdge",
            Schedule(priority_update="lazy", direction="DensePull"),
        )
        sites = [s for s in report.sites if s.is_priority_update]
        assert sites[0].race_class is RaceClass.BENIGN
        assert not report.needs_atomics

    def test_kcore_sum_needs_dedup(self):
        report = _race_report(
            ALL_PROGRAMS["kcore"], "apply_f", Schedule(priority_update="lazy")
        )
        sites = [s for s in report.sites if s.is_priority_update]
        assert sites[0].race_class is RaceClass.NEEDS_DEDUP
        assert report.needs_deduplication

    def test_kcore_pull_sum_is_benign(self):
        report = _race_report(
            ALL_PROGRAMS["kcore"],
            "apply_f",
            Schedule(priority_update="lazy", direction="DensePull"),
        )
        sites = [s for s in report.sites if s.is_priority_update]
        assert sites[0].race_class is RaceClass.BENIGN

    def test_astar_guarded_monotonic_store_is_benign(self):
        report = _race_report(ALL_PROGRAMS["astar"], "updateEdge", Schedule())
        stores = [s for s in report.sites if s.target == "dist[dst]"]
        assert len(stores) == 1
        assert stores[0].race_class is RaceClass.BENIGN
        assert "benign race" in stores[0].reason

    def test_bellman_ford_constant_store_is_benign(self):
        report = _race_report(ALL_PROGRAMS["bellman_ford"], "relax", Schedule())
        scalar = [s for s in report.sites if s.target == "changed"]
        assert len(scalar) == 1
        assert scalar[0].race_class is RaceClass.BENIGN

    def test_unguarded_cross_thread_store_is_racy(self):
        report = _race_report(RACY_SSSP, "updateEdge", Schedule())
        racy = report.racy_sites
        assert len(racy) == 1
        assert racy[0].target == "dist[dst]"
        assert racy[0].span.line > 0

    def test_summary_is_json_shaped(self):
        report = _race_report(ALL_PROGRAMS["sssp"], "updateEdge", Schedule())
        summary = report.summary()
        assert summary and set(summary[0]) == {"target", "class", "line", "reason"}

    def test_plan_carries_race_report(self):
        plan = plan_program(parse(ALL_PROGRAMS["sssp"]), Schedule())
        races = classify_races(plan.facts.loop_udf, plan.schedule)
        assert races.udf_name == "updateEdge"
        assert races.needs_atomics


# ======================================================================
# Constant-sum analysis: negative paths (Section 5.1)
# ======================================================================
class TestConstantSumNegatives:
    def _info(self, source):
        return _udf("apply_f", source).constant_sum

    def test_kcore_baseline_qualifies(self):
        assert self._info(ALL_PROGRAMS["kcore"]) is not None

    def test_non_constant_difference_rejected(self):
        source = ALL_PROGRAMS["kcore"].replace(
            "pq.updatePrioritySum(dst, -1, k);",
            "pq.updatePrioritySum(dst, 0 - k, k);",
        )
        assert self._info(source) is None

    def test_threshold_not_current_priority_rejected(self):
        source = ALL_PROGRAMS["kcore"].replace(
            "pq.updatePrioritySum(dst, -1, k);",
            "pq.updatePrioritySum(dst, -1, 7);",
        )
        assert self._info(source) is None

    def test_missing_threshold_rejected(self):
        source = ALL_PROGRAMS["kcore"].replace(
            "pq.updatePrioritySum(dst, -1, k);",
            "pq.updatePrioritySum(dst, -1);",
        )
        assert self._info(source) is None

    def test_vertex_not_a_parameter_rejected(self):
        source = ALL_PROGRAMS["kcore"].replace(
            "pq.updatePrioritySum(dst, -1, k);",
            "var other : int = dst;\n    pq.updatePrioritySum(other, -1, k);",
        )
        assert self._info(source) is None

    def test_two_updates_rejected(self):
        source = ALL_PROGRAMS["kcore"].replace(
            "pq.updatePrioritySum(dst, -1, k);",
            "pq.updatePrioritySum(dst, -1, k);\n"
            "    pq.updatePrioritySum(src, -1, k);",
        )
        assert self._info(source) is None

    def test_histogram_schedule_rejects_nonqualifying_udf(self):
        from repro.errors import CompileError

        source = ALL_PROGRAMS["kcore"].replace(
            "pq.updatePrioritySum(dst, -1, k);",
            "pq.updatePrioritySum(dst, -1, 7);",
        )
        with pytest.raises(CompileError):
            plan_program(
                parse(source), Schedule(priority_update="lazy_constant_sum")
            )


# ======================================================================
# Diagnostic codes: each code asserts code + span + severity
# ======================================================================
class TestDiagnosticCodes:
    def test_registry_is_stable(self):
        for code in ("P001", "T001", "V001", "V002", "V003",
                     "S001", "S002", "S003", "R001", "R002", "R003"):
            assert code in DIAGNOSTIC_CODES

    def test_p001_syntax_error(self):
        diags = lint_program(
            "func main()\n    var x int = 3;\nend\n", filename="bad.gt"
        )
        assert [d.code for d in diags] == ["P001"]
        assert diags[0].severity is Severity.ERROR
        assert diags[0].span.line == 2
        assert diags[0].span.file == "bad.gt"

    def test_t001_type_error(self):
        source = ALL_PROGRAMS["sssp"].replace(
            "var new_dist : int = dist[src] + weight;",
            'var new_dist : int = "oops";',
        )
        diags = lint_program(source, filename="bad.gt")
        assert [d.code for d in diags] == ["T001"]
        assert diags[0].severity is Severity.ERROR

    def test_v001_unresolved_callee(self):
        program = parse(
            "func main()\n    frobnicate();\nend\n", "v001.gt"
        )
        diags = validate_ir(program, "typed")
        assert [d.code for d in diags] == ["V001"]
        assert diags[0].severity is Severity.ERROR
        assert diags[0].span.line == 2

    def test_v002_missing_main(self):
        program = parse("func helper()\nend\n")
        diags = validate_ir(program, "typed")
        assert "V002" in [d.code for d in diags]

    def test_v003_histogram_without_transformed_udf(self):
        program = parse(ALL_PROGRAMS["kcore"])
        diags = validate_ir(
            program,
            "lowered",
            schedule=Schedule(priority_update="lazy_constant_sum"),
            transformed_udf=None,
        )
        assert "V003" in [d.code for d in diags]

    def test_validate_ir_or_raise_is_compile_error(self):
        from repro.errors import CompileError

        program = parse("func helper()\nend\n")
        with pytest.raises(IRValidationError) as excinfo:
            validate_ir_or_raise(program, "typed")
        assert isinstance(excinfo.value, CompileError)
        assert "V002" in str(excinfo.value)

    def test_s001_misspelled_label_api(self):
        scheduling = SchedulingProgram().config_apply_priority_update(
            "s2", "lazy"
        )
        diags = lint_program(ALL_PROGRAMS["sssp"], schedule=scheduling)
        assert [d.code for d in diags] == ["S001"]
        assert diags[0].severity is Severity.ERROR
        assert "s2" in diags[0].message

    def test_s001_misspelled_label_inline_is_located(self):
        source = ALL_PROGRAMS["sssp"] + (
            '\nschedule:\nprogram->configApplyPriorityUpdate("s2", "lazy");\n'
        )
        diags = lint_program(source, filename="typo.gt")
        s001 = [d for d in diags if d.code == "S001"]
        assert len(s001) == 1
        assert s001[0].span.line > 0
        assert s001[0].span.file == "typo.gt"
        assert "did you mean 's1'" in s001[0].message

    def test_s002_dead_knob_warning(self):
        scheduling = (
            SchedulingProgram()
            .config_apply_priority_update("s1", "eager_no_fusion")
            .config_num_buckets("s1", 64)
        )
        diags = lint_program(ALL_PROGRAMS["sssp"], schedule=scheduling)
        assert [d.code for d in diags] == ["S002"]
        assert diags[0].severity is Severity.WARNING
        assert "num_buckets" in diags[0].message

    def test_s002_fusion_threshold_dead_under_lazy(self):
        scheduling = (
            SchedulingProgram()
            .config_apply_priority_update("s1", "lazy")
            .config_bucket_fusion_threshold("s1", 512)
        )
        diags = check_schedule_compat(
            parse(ALL_PROGRAMS["sssp"]), scheduling
        )
        assert [d.code for d in diags] == ["S002"]

    def test_s002_chunk_size_dead_under_static(self):
        scheduling = (
            SchedulingProgram()
            .config_apply_parallelization("s1", "static-vertex-parallel")
            .config_chunk_size("s1", 32)
        )
        diags = check_schedule_compat(
            parse(ALL_PROGRAMS["sssp"]), scheduling
        )
        assert [d.code for d in diags] == ["S002"]

    def test_s002_parallel_execution_dead_at_one_thread(self):
        """execution=parallel can never engage a single-worker engine."""
        scheduling = (
            SchedulingProgram()
            .config_execution("s1", "parallel")
            .config_num_threads("s1", 1)
        )
        diags = check_schedule_compat(parse(ALL_PROGRAMS["sssp"]), scheduling)
        assert [d.code for d in diags] == ["S002", "S002"]
        messages = " | ".join(d.message for d in diags)
        assert "execution" in messages
        assert "num_threads" in messages
        assert all(d.severity is Severity.WARNING for d in diags)

    def test_s002_parallel_execution_live_with_workers(self):
        """The same knobs are NOT dead once real workers exist."""
        scheduling = (
            SchedulingProgram()
            .config_execution("s1", "parallel")
            .config_num_threads("s1", 4)
        )
        diags = check_schedule_compat(parse(ALL_PROGRAMS["sssp"]), scheduling)
        assert diags == []

    def test_s002_num_threads_live_under_serial_simulation(self):
        """num_threads still drives the cost model's work split in serial
        mode, so configuring it without the thread engine is not a dead knob."""
        scheduling = SchedulingProgram().config_num_threads("s1", 1)
        diags = check_schedule_compat(parse(ALL_PROGRAMS["sssp"]), scheduling)
        assert diags == []

    def test_s003_infeasible_inline_schedule(self):
        source = ALL_PROGRAMS["sssp"] + (
            "\nschedule:\n"
            'program->configApplyDirection("s1", "DensePull");\n'
        )  # default strategy is eager: push-only
        diags = lint_program(source, filename="bad.gt")
        assert "S003" in [d.code for d in diags]
        assert all(
            d.severity is Severity.ERROR for d in diags if d.code == "S003"
        )

    def test_r001_injected_racy_udf_exactly_one(self):
        diags = lint_program(RACY_SSSP, filename="racy.gt")
        assert len(diags) == 1
        assert diags[0].code == "R001"
        assert diags[0].severity is Severity.ERROR
        assert diags[0].span.line == 9
        assert diags[0].span.file == "racy.gt"

    def test_r002_r003_are_info_and_hidden_by_default(self):
        assert lint_program(ALL_PROGRAMS["astar"]) == []
        with_info = lint_program(ALL_PROGRAMS["astar"], include_info=True)
        assert [d.code for d in with_info] == ["R002"]
        assert with_info[0].severity is Severity.INFO
        kcore_info = lint_program(ALL_PROGRAMS["kcore"], include_info=True)
        assert [d.code for d in kcore_info] == ["R003"]

    def test_render_diagnostic_format(self):
        diags = lint_program(RACY_SSSP, filename="racy.gt")
        rendered = render_diagnostic(diags[0])
        assert rendered.startswith("racy.gt:9:")
        assert "error[R001]" in rendered


# ======================================================================
# Zero findings over the paper programs (the CI --werror gate)
# ======================================================================
class TestPaperProgramsLintClean:
    @pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
    def test_no_errors_or_warnings(self, name):
        assert lint_program(ALL_PROGRAMS[name], filename=name) == []


# ======================================================================
# SchedulingProgram consultation audit trail (the footgun satellite)
# ======================================================================
class TestScheduleConsultation:
    def test_consulted_labels_recorded(self):
        scheduling = SchedulingProgram().config_apply_priority_update(
            "s1", "lazy"
        )
        assert scheduling.consulted_labels == frozenset()
        scheduling.schedule_for("s1")
        assert scheduling.consulted_labels == frozenset({"s1"})
        assert scheduling.unconsulted_labels() == ()

    def test_unconsulted_label_is_typo_suspect(self):
        scheduling = (
            SchedulingProgram()
            .config_apply_priority_update("s2", "lazy")
        )
        plan_program(parse(ALL_PROGRAMS["sssp"]), scheduling)
        assert scheduling.unconsulted_labels() == ("s2",)

    def test_commands_for_records_issue_order(self):
        scheduling = (
            SchedulingProgram()
            .config_apply_priority_update("s1", "lazy")
            .config_apply_priority_update_delta("s1", 4)
        )
        assert scheduling.commands_for("s1") == (
            ("priority_update", "lazy"),
            ("delta", 4),
        )


# ======================================================================
# C++ backend: atomics driven by the race analysis
# ======================================================================
class TestCppAtomicsRaceDriven:
    def _cpp(self, source, schedule):
        return compile_program(source, schedule, backend="cpp").source_text

    def test_push_min_update_uses_seeded_cas(self):
        code = self._cpp(
            ALL_PROGRAMS["sssp"], Schedule(priority_update="lazy")
        )
        assert "atomicWriteMin<false>(&dist[dst], __new_value, dist[dst]);" in code

    def test_unrecognized_loop_keeps_the_seeded_cas(self):
        """The race report covers every apply UDF, not only the recognized
        loop's: the push region renders the same seeded CAS site."""
        assert compile_program(LOOSE_RACY_SSSP).plan.facts.loop is None
        seeded = [
            line.strip()
            for line in self._cpp(LOOSE_RACY_SSSP, Schedule(priority_update="lazy")).splitlines()
            if "atomicWriteMin<" in line
        ]
        canonical = self._cpp(ALL_PROGRAMS["sssp"], Schedule(priority_update="lazy"))
        assert seeded == [
            line.strip() for line in canonical.splitlines() if "atomicWriteMin<" in line
        ]
        assert (
            "bool __tracking_var = atomicWriteMin<false>(&dist[dst], __new_value, dist[dst]);"
            in seeded
        )

    def test_pull_min_update_has_no_atomic(self):
        code = self._cpp(
            ALL_PROGRAMS["sssp"],
            Schedule(priority_update="lazy", direction="DensePull"),
        )
        assert "atomicWriteMin" not in code.split("end embedded runtime")[1]

    def test_push_sum_uses_atomic_clamped_add(self):
        code = self._cpp(
            ALL_PROGRAMS["kcore"], Schedule(priority_update="lazy")
        )
        assert "atomicAddClamped<false>(&D[dst]" in code

    def test_pull_sum_uses_serial_clamped_add(self):
        code = self._cpp(
            ALL_PROGRAMS["kcore"],
            Schedule(priority_update="lazy", direction="DensePull"),
        )
        assert "atomicAddClamped" not in code.split("end embedded runtime")[1]
        assert "addClamped(&D[dst]" in code

    def test_racy_write_is_flagged_in_generated_code(self):
        code = self._cpp(RACY_SSSP, Schedule(priority_update="lazy"))
        assert "// R001: unordered racy write" in code

    def test_unseeded_two_arg_form_uses_plain_cas(self):
        source = ALL_PROGRAMS["sssp"].replace(
            "pq.updatePriorityMin(dst, dist[dst], new_dist);",
            "pq.updatePriorityMin(dst, new_dist);",
        )
        code = self._cpp(source, Schedule(priority_update="lazy"))
        assert "atomicWriteMin<false>(&dist[dst], __new_value);" in code


class TestSeededCasDifferential:
    def test_seeded_cas_matches_python_and_oracle(self):
        schedule = Schedule(priority_update="lazy", delta=4, num_threads=3)
        program = compile_program(
            ALL_PROGRAMS["sssp"], schedule, backend="cpp"
        )
        assert "atomicWriteMin<false>(&dist[dst], __new_value, dist[dst]);" in (
            program.source_text
        )
        cell = Cell("sssp", schedule, "cpp", args=("hub",))
        for seed in range(3):
            graph = rmat(7, 6, seed=seed)
            check(cell, graph)
            check(replace(cell, execution="vectorized"), graph)


# ======================================================================
# Python backend: runtime assertion of the classification
# ======================================================================
class TestPythonRuntimeAssertion:
    def _graph(self):
        return from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1)])

    def test_generated_module_declares_report(self):
        program = compile_program(ALL_PROGRAMS["sssp"])
        assert "ctx.declare_race_report(" in program.source_text

    def test_racy_program_refused_at_runtime(self):
        program = compile_program(RACY_SSSP)
        with pytest.raises(GraphItError, match="R001"):
            program.run(["sssp", "-", "0"], graph=self._graph())

    def test_racy_udf_outside_the_recognized_loop_refused(self):
        program = compile_program(LOOSE_RACY_SSSP)
        assert program.plan.facts.loop is None
        with pytest.raises(GraphItError, match="R001: refusing to execute UDF 'updateEdge'"):
            program.run(["sssp", "-", "0"], graph=self._graph())

    def test_clean_program_records_report(self):
        result = compile_program(ALL_PROGRAMS["sssp"]).run(
            ["sssp", "-", "0"], graph=self._graph()
        )
        assert len(result.context.race_reports) == 1
        report = result.context.race_reports[0]
        assert report["udf"] == "updateEdge"
        assert report["sites"][0]["class"] == "needs_cas"

    def test_stale_schedule_mismatch_rejected(self):
        from repro.backend import Context

        ctx = Context(["prog"], Schedule(direction="SparsePush"))
        with pytest.raises(GraphItError, match="recompile"):
            ctx.declare_race_report(
                udf="f",
                direction="DensePull",
                parallelization="dynamic-vertex-parallel",
                sites=[],
            )


# ======================================================================
# repro lint CLI
# ======================================================================
class TestLintCli:
    def test_clean_builtins_exit_zero(self, capsys):
        assert main(["lint", *sorted(ALL_PROGRAMS), "--werror"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_racy_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "racy.gt"
        path.write_text(RACY_SSSP)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "error[R001]" in out
        assert f"{path}:9:" in out

    def test_warning_only_needs_werror_to_fail(self, tmp_path, capsys):
        source = ALL_PROGRAMS["sssp"] + (
            "\nschedule:\n"
            'program->configApplyPriorityUpdate("s1", "eager_no_fusion")\n'
            '  ->configNumBuckets("s1", "64");\n'
        )
        path = tmp_path / "deadknob.gt"
        path.write_text(source)
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--werror"]) == 1
        out = capsys.readouterr().out
        assert "warning[S002]" in out

    def test_explicit_schedule_flags(self, capsys):
        assert main(["lint", "sssp", "--priority-update", "lazy"]) == 0

    def test_example_program_lints_clean(self):
        example = os.path.join(
            os.path.dirname(__file__), "..", "examples", "sssp_delta.gt"
        )
        assert main(["lint", example, "--werror"]) == 0
