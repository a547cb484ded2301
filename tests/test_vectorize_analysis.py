"""Tests for the UDF vectorization analysis pass and its codegen wiring."""

import re

import numpy as np
import pytest

from repro.backend import compile_program
from repro.graph import rmat
from repro.lang import ALL_PROGRAMS
from repro.midend import Schedule
from repro.midend.analysis.vectorize import analyze_vectorization
from repro.midend.diagnostics import DIAGNOSTIC_CODES
from repro.midend.lint import lint_program

LAZY = Schedule(priority_update="lazy")

# A whole-edgeset min-write relaxation with no scalar-global side effect:
# Bellman-Ford minus its ``changed`` flag (so ``main`` applies it once).
PLAIN_RELAX = ALL_PROGRAMS["bellman_ford"].replace("            changed = 1;\n", "")
assert PLAIN_RELAX != ALL_PROGRAMS["bellman_ford"]


def reports_for(name, schedule=LAZY, source=None):
    plan = compile_program(source or ALL_PROGRAMS[name], schedule).plan
    assert plan.kernels == analyze_vectorization(plan.facts, plan.schedule, plan.races)
    return plan.kernels


class TestClassification:
    @pytest.mark.parametrize("name", ["sssp", "wbfs", "ppsp"])
    def test_sssp_family_is_write_min(self, name):
        report = reports_for(name)["updateEdge"]
        assert report.vectorizable
        assert report.kernel.kind == "write_min"
        assert report.kernel.value == "(dist[src] + weight)"

    def test_widest_is_write_max(self):
        report = reports_for("widest")["updateEdge"]
        assert report.vectorizable
        assert report.kernel.kind == "write_max"
        assert report.kernel.value == "np.minimum(width[src], weight)"

    def test_astar_is_guarded_write_min(self):
        report = reports_for("astar")["updateEdge"]
        assert report.vectorizable
        kernel = report.kernel
        assert kernel.kind == "guarded_write_min"
        assert kernel.aux == "dist"
        assert kernel.value == "(dist[src] + weight)"
        assert kernel.priority == "(new_val + h[dst])"

    def test_kcore_is_sum_const(self):
        report = reports_for("kcore")["apply_f"]
        assert report.vectorizable
        assert report.kernel.kind == "sum_const"
        assert report.kernel.constant == -1

    def test_kcore_histogram_schedule_is_sum_hist(self):
        report = reports_for(
            "kcore", Schedule(priority_update="lazy_constant_sum")
        )["apply_f"]
        assert report.vectorizable
        assert report.kernel.kind == "sum_hist"
        assert report.kernel.constant == -1

    def test_bellman_ford_falls_back_with_located_reason(self):
        report = reports_for("bellman_ford")["relax"]
        assert not report.vectorizable
        assert report.kernel is None
        assert "whole-edgeset apply runs in scalar order" in report.reason
        assert report.span.line is not None

    def test_setcover_has_no_apply_sites(self):
        assert reports_for("setcover") == {}


def descriptor_keys(name, schedule=LAZY):
    """Operand names of the first kernel descriptor in the generated module."""
    source = compile_program(ALL_PROGRAMS[name], schedule).source_text
    descriptor = source[source.index("kernel=dict(") :].split("\n")[0]
    return re.findall(r"[(,] ?(\w+)=", descriptor)


class TestCodegenWiring:
    def test_vectorizable_udf_gets_kernel_descriptor(self):
        program = compile_program(ALL_PROGRAMS["sssp"], LAZY)
        assert "kernel=dict(" in program.source_text
        assert "kind='write_min'" in program.source_text
        # The runtime reads exactly these keys.
        assert descriptor_keys("sssp") == ["kind", "value"]
        assert descriptor_keys("astar") == ["kind", "value", "aux", "priority"]

    def test_fallback_udf_gets_no_kernel_descriptor(self):
        program = compile_program(ALL_PROGRAMS["bellman_ford"], LAZY)
        assert "kernel=dict(" not in program.source_text

    def test_eager_operator_gets_kernel_descriptor(self):
        program = compile_program(
            ALL_PROGRAMS["sssp"], Schedule(priority_update="eager_with_fusion")
        )
        assert "ctx.ordered_process_eager(" in program.source_text
        assert "kernel=dict(" in program.source_text

    def test_histogram_operator_gets_kernel_descriptor(self):
        schedule = Schedule(priority_update="lazy_constant_sum")
        program = compile_program(ALL_PROGRAMS["kcore"], schedule)
        assert "apply_update_priority_histogram" in program.source_text
        assert "kind='sum_hist'" in program.source_text
        assert descriptor_keys("kcore", schedule) == ["kind", "constant"]


class TestDiagnostics:
    def test_v101_is_registered(self):
        assert "V101" in DIAGNOSTIC_CODES
        assert "scalar" in DIAGNOSTIC_CODES["V101"]

    def test_lint_reports_fallback_as_info(self):
        diagnostics = lint_program(
            ALL_PROGRAMS["bellman_ford"], LAZY, include_info=True
        )
        v101 = [d for d in diagnostics if d.code == "V101"]
        assert len(v101) == 1
        assert "relax" in v101[0].message
        assert v101[0].severity.name == "INFO"

    def test_whole_edgeset_min_write_falls_back_and_runs(self):
        # Only priority-queue updates have a batch kernel: the same text the
        # old whole-edgeset kernel served now reports the rule at the UDF,
        # and both flags run it on the scalar interpreter to one answer.
        (v101,) = [
            d
            for d in lint_program(PLAIN_RELAX, LAZY, include_info=True)
            if d.code == "V101"
        ]
        assert "whole-edgeset apply runs in scalar order" in v101.message
        assert "only priority-queue updates have a batch kernel" in v101.message
        assert v101.span.line == 7  # ``func relax``
        program = compile_program(PLAIN_RELAX, LAZY)
        assert "kernel=dict(" not in program.source_text
        graph = rmat(8, 8, seed=3)
        vector = program.run(["prog", "-", "0"], graph=graph)
        scalar = program.run(["prog", "-", "0"], graph=graph, vectorize=False)
        assert vector.context.vectorized_applies == 0
        assert vector.context.scalar_applies == 1
        assert np.array_equal(vector.globals["dist"], scalar.globals["dist"])
        assert vector.stats.deterministic_dict() == scalar.stats.deterministic_dict()

    def test_guarded_priority_reading_the_edge_falls_back(self):
        # The guarded kernel offers the queue one priority per improved
        # vertex, so a priority expression that needs the edge has no batch
        # form; the reason points at the offending read.
        source = ALL_PROGRAMS["astar"].replace(
            "new_dist + h[dst])", "new_dist + h[dst] + weight - weight)"
        )
        assert source != ALL_PROGRAMS["astar"]
        report = reports_for("astar", source=source)["updateEdge"]
        assert not report.vectorizable
        assert "reads the source or the edge weight" in report.reason
        assert report.span.line is not None

    def test_lint_is_quiet_for_vectorizable_programs(self):
        diagnostics = lint_program(ALL_PROGRAMS["sssp"], LAZY, include_info=True)
        assert not [d for d in diagnostics if d.code == "V101"]

    def test_info_diagnostics_hidden_by_default(self):
        diagnostics = lint_program(ALL_PROGRAMS["bellman_ford"], LAZY)
        assert not [d for d in diagnostics if d.code == "V101"]
