"""Tests for the C++ backend.

Structural tests verify the generated source reproduces Figure 9's shapes;
when g++ is available the generated programs are built and run on real
graphs as the ``cpp`` slice of the oracle matrix (``tests/oracle_matrix.py``):
their outputs must equal the scalar oracle's.
"""

import os
import subprocess

import pytest

from repro.backend import compile_program
from repro.backend.cpp_backend import _CppEmitter, generate_cpp, generate_native_cpp
from repro.errors import CompileError
from repro.graph import rmat, road_grid
from repro.lang import ALL_PROGRAMS
from repro.lang.parser import parse
from repro.midend import Schedule
from repro.midend.transforms.lowering import plan_program

from .oracle_matrix import GXX, Cell, _standalone_binary, check
from .test_native_differential import _code_shapes

pytestmark = pytest.mark.slow


def generate(name: str, schedule: Schedule) -> str:
    return compile_program(ALL_PROGRAMS[name], schedule, backend="cpp").source_text


class TestGeneratedStructure:
    def test_lazy_sparsepush_shape(self):
        text = generate("sssp", Schedule(priority_update="lazy", delta=4))
        # Figure 9(a): lazy queue, atomics, dedup-flagged buffering.
        assert "LazyPriorityQueue *pq" in text
        assert "new LazyPriorityQueue(dist.data()" in text
        assert "atomicWriteMin(&dist[dst]" in text
        assert "__tracking_var" in text
        assert "pq->bufferVertex(dst)" in text
        assert "while ((pq->finished() == false))" in text

    def test_lazy_densepull_shape(self):
        text = generate(
            "sssp",
            Schedule(priority_update="lazy", delta=4, direction="DensePull"),
        )
        # Figure 9(b): transpose traversal, no atomics on the destination.
        assert "TransposeGraph" in text
        assert "__frontier_map" in text
        generated = text.split("end embedded runtime")[1]
        assert "atomicWriteMin" not in generated

    def test_eager_shape(self):
        text = generate("sssp", Schedule(priority_update="eager_no_fusion", delta=4))
        # Figure 9(c): parallel region, thread-local bins, two-slot frontier.
        assert "#pragma omp parallel" in text
        assert "local_bins" in text
        assert "shared_indexes" in text
        assert "atomicWriteMin(&dist[dst]" in text
        assert "new LazyPriorityQueue" not in text
        assert "bucket fusion" not in text

    def test_fusion_adds_inner_while(self):
        fused = generate("sssp", Schedule(priority_update="eager_with_fusion", delta=4))
        assert "bucket fusion (Figure 7)" in fused
        # The threshold is a run parameter: the kernel reads its global and
        # the driver passes the schedule's value (0 threads = OpenMP default).
        assert "local_bins[curr_bin_index].size() < __repro_bucket_fusion_threshold" in fused
        assert "runDriver(argc, argv, {\"dist\"}, {2}, {0, 4, 1000, 128});" in fused

    def test_histogram_shape(self):
        text = generate("kcore", Schedule(priority_update="lazy_constant_sum"))
        assert "apply_f_transformed(NodeID vertex, int64_t count)" in text
        assert "__touched" in text
        assert "fetchAdd(&__count" in text
        # Peeled neighbours are skipped before they are counted.
        assert "if (D[__wn.v] <= __k) continue;" in text

    def test_ppsp_stop_condition_emitted(self):
        text = generate("ppsp", Schedule(priority_update="eager_no_fusion", delta=4))
        assert "stop_flag = true" in text
        assert "(int64_t)next_bin_index * delta" in text

    def test_kcore_eager_uses_processed_flags(self):
        text = generate("kcore", Schedule(priority_update="eager_no_fusion"))
        assert "CASByte(&processed[u], 0, 1)" in text
        assert "atomicAddClamped" in text

    def test_extern_programs_rejected(self):
        with pytest.raises(CompileError):
            generate("astar", Schedule())
        with pytest.raises(CompileError):
            generate("setcover", Schedule(priority_update="lazy"))

    def test_output_dump_present(self):
        text = generate("sssp", Schedule())
        assert "dumpVector(file, outputs[i], values[i]);" in text
        assert 'runDriver(argc, argv, {"dist"}, {2},' in text


class TestOneEmitter:
    def test_standalone_program_is_the_kernel_plus_a_driver(self):
        """The standalone text starts with the native kernel, byte for
        byte, for every (program, strategy, direction) native accepts."""
        shapes = 0
        for name in sorted(ALL_PROGRAMS):
            for schedule, _ in _code_shapes(name):
                plan = plan_program(parse(ALL_PROGRAMS[name]), schedule)
                kernel = generate_native_cpp(plan)
                assert generate_cpp(plan).startswith(kernel), (name, schedule)
                shapes += 1
        assert shapes >= 20

    def test_one_emitter_class(self):
        assert _CppEmitter.__subclasses__() == []


class TestStandaloneInput:
    """Bad input to the standalone program is refused with a message on
    stderr and exit 1, and the sanitized build reports nothing."""

    @pytest.fixture(scope="class")
    def sssp(self):
        if GXX is None:
            pytest.skip("g++ not available")
        return _standalone_binary(
            "sssp", Schedule(priority_update="lazy", delta=2), True
        )

    @staticmethod
    def run(exe, tmp_path, edges: str, *args: str):
        graph_file = tmp_path / "g.el"
        graph_file.write_text(edges)
        env = dict(
            os.environ,
            REPRO_OUTPUT=str(tmp_path / "out.txt"),
            ASAN_OPTIONS="detect_leaks=0",
        )
        done = subprocess.run(
            [str(exe), str(graph_file), *args], env=env, capture_output=True, text=True
        )
        assert "Sanitizer" not in done.stderr and "runtime error" not in done.stderr
        return done

    def test_missing_start_argument(self, sssp, tmp_path):
        done = self.run(sssp, tmp_path, "0 1 4\n1 2 3\n")
        assert done.returncode == 1
        assert "needs 1 integer argument(s) after the graph path, got 0" in done.stderr

    @pytest.mark.parametrize("line", ["-1 2 4", "0 x 4", "1.5 2", "0 1 x", "0 1 2 3"])
    def test_bad_edge_list_line(self, sssp, tmp_path, line):
        """Each is an error: a negative id used to overflow the loader's
        heap, and the others were silently skipped or misread."""
        done = self.run(sssp, tmp_path, f"0 1 4\n{line}\n", "0")
        assert done.returncode == 1
        assert f":2: expected 'src dst [weight]' with vertex ids >= 0, got '{line}'" in done.stderr

    def test_out_of_range_start_vertex(self, sssp, tmp_path):
        done = self.run(sssp, tmp_path, "0 1 4\n1 2 3\n", "7")
        assert done.returncode == 1
        assert "argv[2] = 7 out of range for a 3-vertex graph" in done.stderr

    def test_valid_input_still_runs(self, sssp, tmp_path):
        # Comments, a blank line, CRLF, an unweighted edge (weight 1) and
        # a header that keeps a trailing isolated vertex.
        edges = "# vertices=4\n0 1 4\r\n\n% note\n1 2\n"
        done = self.run(sssp, tmp_path, edges, "0")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out.txt").read_text() == f"dist 0 4 5 {2**63 - 1}\n"


class TestCompileAndRun:
    """The standalone C++ program at three OpenMP threads vs the oracle."""

    @pytest.mark.parametrize(
        "strategy", ["lazy", "eager_no_fusion", "eager_with_fusion"]
    )
    def test_sssp(self, strategy):
        schedule = Schedule(priority_update=strategy, delta=16, num_threads=3)
        check(Cell("sssp", schedule, "cpp", args=("hub",)), rmat(8, 10, seed=3))

    def test_sssp_densepull(self):
        schedule = Schedule(
            priority_update="lazy", delta=16, direction="DensePull", num_threads=3
        )
        check(Cell("sssp", schedule, "cpp", args=("hub",)), rmat(8, 10, seed=5))

    @pytest.mark.parametrize("strategy", ["lazy", "eager_with_fusion"])
    def test_ppsp(self, strategy):
        schedule = Schedule(priority_update=strategy, delta=512, num_threads=3)
        check(Cell("ppsp", schedule, "cpp", args=("0", "last")), road_grid(14, 16, seed=4))

    @pytest.mark.parametrize(
        "strategy", ["lazy", "lazy_constant_sum", "eager_no_fusion"]
    )
    def test_kcore(self, strategy):
        schedule = Schedule(priority_update=strategy, num_threads=3)
        check(Cell("kcore", schedule, "cpp"), rmat(8, 10, seed=3).symmetrized())
