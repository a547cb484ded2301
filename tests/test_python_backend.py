"""End-to-end tests for the Python backend: compiled DSL programs must match
the reference oracles under every schedule, and the generated source must
show the structural decisions the schedule dictates."""

import numpy as np
import pytest

from repro.algorithms import (
    dijkstra_reference,
    greedy_setcover_reference,
    kcore_reference,
)
from repro.backend import compile_program
from repro.backend.extern_library import (
    astar_externs,
    collect_setcover_result,
    setcover_externs,
)
from repro.errors import CompileError, GraphError
from repro.graph import from_edges, rmat, road_grid
from repro.lang import ALL_PROGRAMS
from repro.lang.parser import parse
from repro.midend import Schedule
from repro.midend.transforms.lowering import plan_program


@pytest.fixture(scope="module")
def social():
    graph = rmat(8, 10, seed=3)
    source = int(np.argmax(graph.out_degrees()))
    return graph, source, dijkstra_reference(graph, source)


@pytest.fixture(scope="module")
def road():
    graph = road_grid(12, 14, seed=4)
    return graph, dijkstra_reference(graph, 0)


@pytest.fixture(scope="module")
def symmetric():
    graph = rmat(8, 10, seed=3).symmetrized()
    return graph, kcore_reference(graph)


class TestCompiledSSSP:
    @pytest.mark.parametrize(
        "strategy", ["lazy", "eager_no_fusion", "eager_with_fusion"]
    )
    def test_matches_dijkstra(self, social, strategy):
        graph, source, reference = social
        program = compile_program(
            ALL_PROGRAMS["sssp"],
            Schedule(priority_update=strategy, delta=16, num_threads=4),
        )
        result = program.run(["sssp", "-", str(source)], graph=graph)
        assert np.array_equal(result.vector("dist"), reference)

    def test_eager_operator_drives_the_shared_loop(self, social, monkeypatch):
        """The compiled ordered-processing operator owns no loop of its own:
        one program run is exactly one call of ``core.executors.run_eager``."""
        from repro.core import executors

        calls = []
        real_run_eager = executors.run_eager

        def spy(*args, **kwargs):
            calls.append(args)
            return real_run_eager(*args, **kwargs)

        monkeypatch.setattr(executors, "run_eager", spy)
        graph, source, reference = social
        program = compile_program(
            ALL_PROGRAMS["sssp"],
            Schedule(priority_update="eager_with_fusion", delta=16, num_threads=4),
        )
        result = program.run(["sssp", "-", str(source)], graph=graph)
        assert len(calls) == 1
        assert np.array_equal(result.vector("dist"), reference)

    def test_densepull_matches(self, social):
        graph, source, reference = social
        program = compile_program(
            ALL_PROGRAMS["sssp"],
            Schedule(
                priority_update="lazy",
                delta=16,
                direction="DensePull",
                num_threads=4,
            ),
        )
        result = program.run(["sssp", "-", str(source)], graph=graph)
        assert np.array_equal(result.vector("dist"), reference)

    def test_delta_one_strict_ordering(self, social):
        graph, source, reference = social
        program = compile_program(
            ALL_PROGRAMS["sssp"], Schedule(priority_update="lazy", delta=1)
        )
        result = program.run(["sssp", "-", str(source)], graph=graph)
        assert np.array_equal(result.vector("dist"), reference)

    def test_stats_populated(self, social):
        graph, source, _ = social
        program = compile_program(
            ALL_PROGRAMS["sssp"], Schedule(priority_update="lazy", delta=16)
        )
        result = program.run(["sssp", "-", str(source)], graph=graph)
        assert result.stats.rounds > 0
        assert result.stats.relaxations > 0
        assert result.stats.buffer_appends > 0

    def test_fusion_reduces_rounds_on_road(self, road):
        graph, _ = road
        runs = {}
        for strategy in ("eager_no_fusion", "eager_with_fusion"):
            program = compile_program(
                ALL_PROGRAMS["sssp"],
                Schedule(priority_update=strategy, delta=512, num_threads=4),
            )
            runs[strategy] = program.run(["sssp", "-", "0"], graph=graph).stats
        assert runs["eager_with_fusion"].rounds < runs["eager_no_fusion"].rounds
        assert runs["eager_with_fusion"].fused_rounds > 0


class TestCompiledPPSPandAStar:
    @pytest.mark.parametrize("strategy", ["lazy", "eager_with_fusion"])
    def test_ppsp_target_distance(self, road, strategy):
        graph, reference = road
        target = graph.num_vertices - 1
        program = compile_program(
            ALL_PROGRAMS["ppsp"],
            Schedule(priority_update=strategy, delta=256, num_threads=4),
        )
        result = program.run(["ppsp", "-", "0", str(target)], graph=graph)
        assert int(result.vector("dist")[target]) == reference[target]

    def test_ppsp_early_exit_saves_rounds(self, road):
        graph, _ = road
        target = graph.num_vertices // 3  # a nearby vertex
        schedule = Schedule(priority_update="lazy", delta=256, num_threads=4)
        full = compile_program(ALL_PROGRAMS["sssp"], schedule).run(
            ["sssp", "-", "0"], graph=graph
        )
        early = compile_program(ALL_PROGRAMS["ppsp"], schedule).run(
            ["ppsp", "-", "0", str(target)], graph=graph
        )
        assert early.stats.rounds < full.stats.rounds

    @pytest.mark.parametrize("strategy", ["lazy", "eager_with_fusion"])
    def test_astar_exact(self, road, strategy):
        graph, reference = road
        target = graph.num_vertices - 1
        program = compile_program(
            ALL_PROGRAMS["astar"],
            Schedule(priority_update=strategy, delta=256, num_threads=4),
        )
        result = program.run(
            ["astar", "-", "0", str(target)],
            graph=graph,
            extern_functions=astar_externs(),
        )
        assert int(result.vector("dist")[target]) == reference[target]

    def test_astar_missing_extern_raises(self, road):
        graph, _ = road
        program = compile_program(ALL_PROGRAMS["astar"], Schedule())
        with pytest.raises(CompileError):
            program.run(["astar", "-", "0", "1"], graph=graph)


class TestCompiledKCore:
    @pytest.mark.parametrize(
        "strategy", ["lazy", "lazy_constant_sum", "eager_no_fusion"]
    )
    def test_matches_reference(self, symmetric, strategy):
        graph, reference = symmetric
        program = compile_program(
            ALL_PROGRAMS["kcore"],
            Schedule(priority_update=strategy, num_threads=4),
        )
        result = program.run(["kcore", "-"], graph=graph)
        assert np.array_equal(result.vector("D"), reference)

    def test_histogram_counts_recorded(self, symmetric):
        graph, _ = symmetric
        program = compile_program(
            ALL_PROGRAMS["kcore"], Schedule(priority_update="lazy_constant_sum")
        )
        result = program.run(["kcore", "-"], graph=graph)
        assert result.stats.histogram_updates > 0
        # The histogram path performs no per-edge atomics.
        assert result.stats.atomic_ops == 0


class TestCompiledSetCover:
    def test_full_coverage_and_quality(self, symmetric):
        graph, _ = symmetric
        program = compile_program(
            ALL_PROGRAMS["setcover"], Schedule(priority_update="lazy")
        )
        result = program.run(
            ["setcover", "-"],
            graph=graph,
            extern_functions=setcover_externs(seed=1),
        )
        cover, covered = collect_setcover_result(result)
        assert covered.all()
        greedy = greedy_setcover_reference(graph)
        assert cover.size <= 2 * greedy.size


class TestGeneratedSource:
    def test_lazy_keeps_while_loop(self):
        program = compile_program(
            ALL_PROGRAMS["sssp"], Schedule(priority_update="lazy")
        )
        assert "while" in program.source_text
        assert "ctx.apply_update_priority(" in program.source_text
        assert "ordered_process_eager" not in program.source_text

    def test_eager_replaces_while_loop(self):
        program = compile_program(
            ALL_PROGRAMS["sssp"], Schedule(priority_update="eager_with_fusion")
        )
        assert "ctx.ordered_process_eager(" in program.source_text
        assert "dequeue_ready_set" not in program.source_text
        assert "fusion_threshold=1000" in program.source_text

    def test_eager_no_fusion_threshold_zero(self):
        program = compile_program(
            ALL_PROGRAMS["sssp"], Schedule(priority_update="eager_no_fusion")
        )
        assert "fusion_threshold=0" in program.source_text

    def test_ppsp_eager_carries_stop_condition(self):
        program = compile_program(
            ALL_PROGRAMS["ppsp"], Schedule(priority_update="eager_no_fusion")
        )
        assert "stop_condition=lambda:" in program.source_text

    def test_histogram_emits_transformed_udf(self):
        program = compile_program(
            ALL_PROGRAMS["kcore"], Schedule(priority_update="lazy_constant_sum")
        )
        text = program.source_text
        assert "def apply_f_transformed(vertex, count):" in text
        assert "max((priority + (-1 * count)), k)" in text
        assert "apply_update_priority_histogram" in text

    def test_three_arg_update_drops_old_value(self):
        program = compile_program(ALL_PROGRAMS["sssp"], Schedule())
        assert "update_priority_min(dst, new_dist)" in program.source_text

    def test_run_requires_python_backend(self):
        program = compile_program(
            ALL_PROGRAMS["sssp"], Schedule(priority_update="lazy"), backend="cpp"
        )
        with pytest.raises(CompileError):
            program.run(["sssp", "-", "0"])

    def test_unknown_backend_rejected(self):
        with pytest.raises(CompileError):
            compile_program(ALL_PROGRAMS["sssp"], Schedule(), backend="rust")

    def test_write(self, tmp_path):
        program = compile_program(ALL_PROGRAMS["sssp"], Schedule())
        path = tmp_path / "out.py"
        program.write(path)
        assert path.read_text() == program.source_text



class TestUnorderedDSL:
    def test_bellman_ford_program(self, social):
        from repro.lang import program_source

        graph, source, reference = social
        program = compile_program(
            program_source("bellman_ford"),
            Schedule(priority_update="lazy", num_threads=3),
        )
        result = program.run(["bf", "-", str(source)], graph=graph)
        assert np.array_equal(result.vector("dist"), reference)
        # Whole-edgeset applies: relaxations are a multiple of |E|.
        assert result.stats.relaxations % graph.num_edges == 0
        assert "ctx.apply_edges(edges, relax)" in program.source_text

    def test_unordered_cpp_rejected(self):
        from repro.lang import program_source

        with pytest.raises(CompileError):
            compile_program(
                program_source("bellman_ford"),
                Schedule(priority_update="lazy"),
                backend="cpp",
            )


class TestVertexArguments:
    """An ``atoi(argv[k])`` that ``main`` uses as a vertex must lie in
    [0, n): ``run`` raises GraphError before anything executes."""

    def test_facts_name_the_vertex_slots(self):
        slots = {
            name: plan_program(parse(source), None).facts.vertex_arguments
            for name, source in ALL_PROGRAMS.items()
            if name != "setcover"
        }
        assert slots["sssp"] == slots["widest"] == (2,)
        assert slots["ppsp"] == slots["astar"] == (2, 3)
        assert slots["kcore"] == ()

    @pytest.mark.parametrize("start", ["7", "3", "-1"])
    def test_start_vertex_out_of_range(self, start):
        tiny = from_edges(3, [(0, 1, 4), (1, 2, 3)])
        program = compile_program(ALL_PROGRAMS["sssp"], Schedule())
        message = rf"argv\[2\] = {start} out of range for a 3-vertex graph"
        with pytest.raises(GraphError, match=message):
            program.run(["sssp", "-", start], graph=tiny)

    def test_target_vertex_through_a_local(self):
        tiny = from_edges(3, [(0, 1, 4), (1, 2, 3)])
        program = compile_program(ALL_PROGRAMS["ppsp"], Schedule())
        with pytest.raises(GraphError, match=r"argv\[3\] = 9 out of range"):
            program.run(["ppsp", "-", "0", "9"], graph=tiny)
        assert program.run(["ppsp", "-", "0", "2"], graph=tiny).vector("dist")[2] == 7

    def test_graph_loaded_from_the_path_argument(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1 4\n1 2 3\n")
        program = compile_program(ALL_PROGRAMS["sssp"], Schedule())
        with pytest.raises(GraphError, match="out of range for a 3-vertex graph"):
            program.run(["sssp", str(path), "3"])
        assert program.run(["sssp", str(path), "0"]).vector("dist").tolist() == [0, 4, 7]
