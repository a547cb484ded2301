"""Tests for the C++ backend.

Structural tests verify the generated source reproduces Figure 9's shapes;
when g++ is available the generated programs are built and run on real
graphs as the ``cpp`` slice of the oracle matrix (``tests/oracle_matrix.py``):
their outputs must equal the scalar oracle's.
"""

import os
import subprocess

import numpy as np
import pytest

from repro.backend import compile_program
from repro.backend.cpp_backend import _CppEmitter, generate_cpp, generate_native_cpp
from repro.errors import CompileError, GraphItError
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
        # Figure 9(a): lazy queue, atomics, dedup-flagged buffering; the
        # serial instantiation takes the same helpers in their plain form.
        assert "LazyPriorityQueue *pq" in text
        assert "new LazyPriorityQueue(dist.data()" in text
        assert "atomicWriteMin<false>(&dist[dst]" in text
        assert "atomicWriteMin<true>(&dist[dst]" in text
        assert "__tracking_var" in text
        assert "pq->bufferVertex<false>(dst)" in text
        assert "pq->bufferVertex<true>(dst)" in text
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
        assert "atomicWriteMin<false>(&dist[dst]" in text
        assert "atomicWriteMin<true>(&dist[dst]" in text
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
        assert "fetchAdd<false>(&__counts[__w], (int64_t)1)" in text
        # Peeled neighbours are skipped before they are counted: by a
        # branch in the OpenMP count, by a predicated add in the serial one,
        # whose touched store is unconditional and whose tail advance and
        # dedup-flag append are predicated.
        assert "if (__priority[__w] <= __k) continue;" in text
        assert "const bool __live = __priority[__w] > __k;" in text
        assert "__counts[__w] = __c + __live;" in text
        assert "__tail += (__c == 0) & __live;" in text
        assert "__pending_tail += __add;" in text

    def test_thread_mode_dispatches_once_per_region(self):
        """``gSerial`` is read in ``detectSerial()`` and in one dispatch per
        region, never inside a loop: the serial branch has no OpenMP
        construct and only ``<true>`` helpers, the other only ``<false>``."""
        runtime_reads = {
            "static bool gSerial = true;",
            "gSerial = omp_get_max_threads() == 1;",
            "gSerial = true;",
        }
        shapes = 0
        for name in sorted(ALL_PROGRAMS):
            for schedule, text in _code_shapes(name):
                runtime, kernel = text.split("// ---- end native ABI support")
                lines = [line.split("//")[0].rstrip() for line in runtime.splitlines()]
                assert {line.strip() for line in lines if "gSerial" in line} == runtime_reads
                lines = [line.split("//")[0].rstrip() for line in kernel.splitlines()]
                dispatches = [i for i, line in enumerate(lines) if "gSerial" in line]
                assert len(dispatches) == 1, (name, schedule)
                for at in dispatches:
                    assert lines[at].strip() == "if (gSerial) {"
                    indent = lines[at].index("if")
                    depth = indent
                    for line in reversed(lines[:at]):
                        if line and len(line) - len(line.lstrip()) < depth:
                            depth = len(line) - len(line.lstrip())
                            assert not line.lstrip().startswith("for ("), (name, schedule)
                    branch = lines[at + 1:]
                    middle = branch.index(" " * indent + "} else {")
                    end = branch.index(" " * indent + "}", middle)
                    serial, parallel = branch[:middle], branch[middle + 1:end]
                    assert not [line for line in serial if "#pragma omp" in line or "<false>" in line]
                    assert not [line for line in parallel if "<true>" in line]
                    assert any("#pragma omp" in line for line in parallel)
                shapes += 1
        assert shapes >= 20

    def test_ppsp_stop_condition_emitted(self):
        text = generate("ppsp", Schedule(priority_update="eager_no_fusion", delta=4))
        assert "stop_flag = true" in text
        assert "(int64_t)next_bin_index * delta" in text

    def test_kcore_eager_uses_processed_flags(self):
        text = generate("kcore", Schedule(priority_update="eager_no_fusion"))
        assert "CASByte<false>(&processed[u], 0, 1)" in text
        assert "CASByte<true>(&processed[u], 0, 1)" in text
        assert "atomicAddClamped<false>" in text

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


#: Edge-list texts both loaders must agree on: the same k-core vector, or
#: both refuse.  The first three are test_input_fuzz's edge-list examples.
GRAPH_FILES = {
    "non-integer id": b"0 1\n2 x\n",
    "not utf-8": b"0 1\n\xf7\x90\n",
    "huge weight": b"0 1 99999999999999999999999\n",
    "isolated tail": b"# vertices=6 edges=3\n0 1 2\n1 2 3\n2 0 1\n",
    "comments crlf blanks": b"% note\r\n0 1 2\r\n\r\n# more\r\n1 2 3\r\n\n2 0 1\r\n",
    "unweighted": b"0 1\n1 2\n2 0\n2 3\n",
    "indented comments": b"  # vertices=5\n0 1 2\n\t% note\n1 2 3\n",
    "negative id": b"0 1 2\n-1 2 3\n",
    "non-integer weight": b"0 1 2.5\n",
    "extra field": b"0 1 2 3\n",
    "int64 overflow": b"0 1 9223372036854775808\n",
    "digit separator": b"1_0 2\n",
}


class TestGraphFileContract:
    """One graph-file contract: ``repro run kcore`` on the interpreter and
    the standalone k-core program read every file alike."""

    SCHEDULE = Schedule(priority_update="lazy_constant_sum")

    @pytest.fixture(scope="class")
    def kcore(self):
        if GXX is None:
            pytest.skip("g++ not available")
        return _standalone_binary("kcore", self.SCHEDULE, False)

    @pytest.mark.parametrize("name", sorted(GRAPH_FILES))
    def test_both_loaders_agree(self, kcore, tmp_path, name):
        graph_file = tmp_path / "g.el"
        graph_file.write_bytes(GRAPH_FILES[name])
        program = compile_program(ALL_PROGRAMS["kcore"], self.SCHEDULE.with_(execution="serial"))
        try:
            interpreted = program.run(["kcore", str(graph_file)]).globals["D"]
        except GraphItError as error:
            interpreted = error
        env = dict(os.environ, REPRO_OUTPUT=str(tmp_path / "out.txt"))
        done = subprocess.run(
            [str(kcore), str(graph_file)], env=env, capture_output=True, text=True, errors="replace"
        )
        if isinstance(interpreted, GraphItError):
            assert str(interpreted)
            assert done.returncode == 1 and "error: " in done.stderr, done.stderr
            return
        assert done.returncode == 0, done.stderr
        label, *values = (tmp_path / "out.txt").read_text().split()
        assert label == "D"
        np.testing.assert_array_equal(np.array(values, dtype=np.int64), interpreted)


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
