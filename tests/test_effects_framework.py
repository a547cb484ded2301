"""Tests for the whole-program effect analysis framework.

Covers the per-UDF read/write summaries, monotonicity verdicts and their
``M001`` schedule gate, the pairwise fusion-safety relation (positive and
negative cases), the ``repro analyze`` document builder, and the span
audit: every diagnostic the toolchain can emit carries a resolvable span.
"""

import pytest

from repro.analyze import build_analysis_document, render_analysis_text
from repro.errors import CompileError, SchedulingError
from repro.lang.parser import parse
from repro.lang.programs import ALL_PROGRAMS
from repro.midend.diagnostics import Severity
from repro.midend.lint import lint_program
from repro.midend.analysis.effects import (
    check_fusion_safety,
    fusion_matrix,
    runtime_summary,
)
from repro.midend.schedule import Schedule
from repro.midend.transforms.lowering import plan_program

# kcore with a sign-varying priority delta: `k - 1` depends on the current
# priority, so the update is provably non-monotone for a lower_first queue.
NON_MONOTONE = ALL_PROGRAMS["kcore"].replace(
    "pq.updatePrioritySum(dst, -1, k);",
    "pq.updatePrioritySum(dst, k - 1, k);",
)
assert NON_MONOTONE != ALL_PROGRAMS["kcore"]


def _plan(name):
    # Lazy is the one strategy every built-in admits (setcover's extern
    # bucket processing rejects the eager default).
    return plan_program(parse(ALL_PROGRAMS[name]), Schedule(priority_update="lazy"))


def _effects_json(name, source=None):
    document = build_analysis_document({name: source or ALL_PROGRAMS[name]})
    return document["programs"][name]["effects"]


class TestEffectSummaries:
    def test_sssp_read_write_sets(self):
        udf = _plan("sssp").facts.udfs["updateEdge"]
        assert udf.read_set() == {"dist"}
        assert udf.write_set() == set()
        assert udf.scalar_write_set() == set()
        updates = udf.priority_updates
        assert len(updates) == 1
        assert updates[0].index_name == "dst"
        assert updates[0].provenance.value == "dst"

    def test_runtime_summary_folds_queue_onto_priority_vector(self):
        plan = _plan("sssp")
        summary = runtime_summary(plan.facts, plan.schedule.direction)
        contract = summary["updateEdge"]
        # The priority update targets queue pq whose vector is dist, so
        # the runtime projection must list dist on both sides.
        assert "dist" in contract["reads"]
        assert "dist" in contract["writes"]
        assert contract["racy"] == []
        assert set(contract["write_index"]["dist"]) <= {"src", "dst"}

    def test_every_builtin_analyzes(self):
        for name in sorted(ALL_PROGRAMS):
            effects = _effects_json(name)
            # Unordered baselines (bellman_ford) have no priority queue;
            # everything else must surface one.
            if effects["ordered_loop"]["recognized"]:
                assert effects["queues"], name
                # Extern bucket processing has no analyzable apply UDF.
                if not effects["ordered_loop"]["extern_processing"]:
                    assert effects["udfs"], name


class TestMonotonicity:
    def test_every_builtin_is_monotone_and_admissible(self):
        for name in sorted(ALL_PROGRAMS):
            for verdict in _effects_json(name)["monotonicity"]:
                assert verdict["verdict"] != "non-monotone", name
                assert verdict["admissible"], name

    def test_non_monotone_negative_case(self):
        verdicts = _effects_json("nm.gt", NON_MONOTONE)["monotonicity"]
        assert len(verdicts) == 1
        assert verdicts[0]["verdict"] == "non-monotone"
        assert verdicts[0]["admissible"] is False
        assert verdicts[0]["line"] == 9

    def test_m001_gates_fused_schedule(self):
        schedule = Schedule(priority_update="eager_with_fusion", delta=3)
        diagnostics = lint_program(
            NON_MONOTONE, schedule=schedule, filename="nm.gt"
        )
        errors = [d for d in diagnostics if d.severity is Severity.ERROR]
        assert [d.code for d in errors] == ["M001"]
        assert "non-monotone" in errors[0].message
        assert (errors[0].span.file, errors[0].span.line) == ("nm.gt", 9)

    def test_in_order_schedule_still_admits_non_monotone(self):
        # Strict in-order processing never reorders buckets, so the
        # non-monotone update is legal there — only relaxed schedules
        # must be rejected.
        diagnostics = lint_program(NON_MONOTONE, filename="nm.gt")
        assert [d for d in diagnostics if d.severity is Severity.ERROR] == []


class TestFusionSafety:
    def test_sssp_wbfs_fusable(self):
        verdict = check_fusion_safety(
            "sssp", _plan("sssp"), "wbfs", _plan("wbfs")
        )
        assert verdict.fusable
        assert verdict.reasons == []

    def test_order_mismatch_blocks(self):
        verdict = check_fusion_safety(
            "sssp", _plan("sssp"), "widest", _plan("widest")
        )
        assert not verdict.fusable
        assert any("processing-order" in r for r in verdict.reasons)

    def test_discipline_mismatch_blocks(self):
        verdict = check_fusion_safety(
            "sssp", _plan("sssp"), "kcore", _plan("kcore")
        )
        assert not verdict.fusable
        assert any("update-discipline" in r for r in verdict.reasons)

    def test_extern_processing_blocks(self):
        verdict = check_fusion_safety(
            "setcover", _plan("setcover"), "sssp", _plan("sssp")
        )
        assert not verdict.fusable
        assert any("extern" in r for r in verdict.reasons)

    def test_fusion_matrix_covers_all_pairs(self):
        plans = {n: _plan(n) for n in ("sssp", "wbfs", "widest")}
        verdicts = fusion_matrix(plans)
        pairs = {tuple(v.to_json()["pair"]) for v in verdicts}
        assert pairs == {
            ("sssp", "wbfs"),
            ("sssp", "widest"),
            ("wbfs", "widest"),
        }


class TestAnalyzeDocument:
    def test_document_structure(self):
        document = build_analysis_document(
            {n: ALL_PROGRAMS[n] for n in ("sssp", "kcore")}
        )
        assert set(document) == {"programs", "fusion"}
        assert set(document["programs"]) == {"sssp", "kcore"}
        assert len(document["fusion"]) == 1
        report = document["programs"]["sssp"]
        assert report["schedule"]["priority_update"]
        assert "updateEdge" in report["runtime_summary"]

    def test_single_program_reports_self_pair(self):
        document = build_analysis_document({"sssp": ALL_PROGRAMS["sssp"]})
        assert len(document["fusion"]) == 1
        assert document["fusion"][0]["pair"] == ["sssp", "sssp"]
        assert document["fusion"][0]["fusable"]

    def test_extern_fallback_resolves_lazy(self):
        document = build_analysis_document({"setcover": ALL_PROGRAMS["setcover"]})
        resolved = document["programs"]["setcover"]["schedule"]
        assert resolved["priority_update"] == "lazy"

    def test_explicit_infeasible_schedule_raises(self):
        with pytest.raises((SchedulingError, CompileError)):
            build_analysis_document(
                {"setcover": ALL_PROGRAMS["setcover"]},
                schedule=Schedule(priority_update="eager_with_fusion"),
            )

    def test_text_rendering(self):
        document = build_analysis_document(
            {n: ALL_PROGRAMS[n] for n in ("sssp", "widest")}
        )
        text = render_analysis_text(document)
        assert "monotonicity priority(pq): monotone-decreasing" in text
        assert "monotonicity priority(pq): monotone-increasing" in text
        assert "fusion sssp x widest: blocked" in text
        assert "processing-order mismatch" in text


# One intentionally broken source per diagnostic family; every produced
# diagnostic must carry a span that resolves to file, line, and column.
RACY_SSSP = ALL_PROGRAMS["sssp"].replace(
    "    pq.updatePriorityMin(dst, dist[dst], new_dist);",
    "    dist[dst] = new_dist;\n"
    "    pq.updatePriorityMin(dst, dist[dst], new_dist);",
)

SPAN_CASES = {
    "P001": ("func main(", None),  # parse error
    "T001": (
        ALL_PROGRAMS["sssp"].replace(
            "dist[src] + weight", 'dist[src] + "oops"'
        ),
        None,
    ),
    "M001": (
        NON_MONOTONE,
        Schedule(priority_update="eager_with_fusion", delta=3),
    ),
    "R001": (
        RACY_SSSP,
        Schedule(
            priority_update="eager_with_fusion",
            delta=3,
            num_threads=4,
            execution="parallel",
        ),
    ),
}


class TestSpanAudit:
    @pytest.mark.parametrize("code", sorted(SPAN_CASES))
    def test_diagnostic_spans_resolve(self, code):
        source, schedule = SPAN_CASES[code]
        diagnostics = lint_program(
            source, schedule=schedule, filename="case.gt", include_info=True
        )
        produced = {d.code for d in diagnostics}
        assert code in produced, f"expected {code}, got {produced}"
        for diagnostic in diagnostics:
            span = diagnostic.span
            assert span is not None, diagnostic.code
            assert span.file == "case.gt", diagnostic.code
            assert span.line >= 1, diagnostic.code
            assert span.column >= 1, diagnostic.code

    def test_all_builtins_lint_spans_resolve(self):
        for name in sorted(ALL_PROGRAMS):
            for diagnostic in lint_program(
                ALL_PROGRAMS[name], filename=f"{name}.gt", include_info=True
            ):
                span = diagnostic.span
                assert span is not None and span.file == f"{name}.gt"
                assert span.line >= 1 and span.column >= 1
