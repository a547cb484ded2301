"""Tests for the C++ backend.

Structural tests verify the generated source reproduces Figure 9's shapes;
when a C++ compiler is available the generated programs are compiled with
``g++ -O2 -std=c++17 -fopenmp``, run on real graphs, and their outputs are
compared against the Python reference oracles (a full differential test of
the two backends).
"""

import os
import shutil
import subprocess

import numpy as np
import pytest

from repro.algorithms import dijkstra_reference, kcore_reference
from repro.backend import compile_program
from repro.errors import CompileError
from repro.graph import rmat, road_grid, save_edge_list
from repro.lang import ALL_PROGRAMS
from repro.midend import Schedule

GXX = shutil.which("g++")
needs_gxx = pytest.mark.skipif(GXX is None, reason="g++ not available")

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
        assert "local_bins[curr_bin_index].size() < 1000" in fused

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
        assert 'dumpVector(__out, "dist", dist);' in text


@needs_gxx
class TestCompileAndRun:
    """Differential tests: generated C++ vs the reference oracles."""

    @pytest.fixture(scope="class")
    def toolchain(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cpp")

    def _build_and_run(self, tmp, tag, name, schedule, graph, args):
        program = compile_program(ALL_PROGRAMS[name], schedule, backend="cpp")
        cpp = tmp / f"{tag}.cpp"
        exe = tmp / tag
        out = tmp / f"{tag}.out"
        graph_file = tmp / f"{tag}.el"
        save_edge_list(graph, graph_file)
        cpp.write_text(program.source_text)
        subprocess.run(
            [GXX, "-O2", "-std=c++17", "-fopenmp", "-o", str(exe), str(cpp)],
            check=True,
            capture_output=True,
        )
        env = dict(os.environ, REPRO_OUTPUT=str(out), OMP_NUM_THREADS="3")
        subprocess.run(
            [str(exe), str(graph_file), *map(str, args)], check=True, env=env
        )
        vectors = {}
        for line in out.read_text().splitlines():
            parts = line.split()
            vectors[parts[0]] = np.array([int(x) for x in parts[1:]], dtype=np.int64)
        return vectors

    @pytest.mark.parametrize(
        "strategy", ["lazy", "eager_no_fusion", "eager_with_fusion"]
    )
    def test_sssp(self, toolchain, strategy):
        graph = rmat(8, 10, seed=3)
        source = int(np.argmax(graph.out_degrees()))
        reference = dijkstra_reference(graph, source)
        vectors = self._build_and_run(
            toolchain,
            f"sssp_{strategy}",
            "sssp",
            Schedule(priority_update=strategy, delta=16),
            graph,
            [source],
        )
        assert np.array_equal(vectors["dist"], reference)

    def test_sssp_densepull(self, toolchain):
        graph = rmat(8, 10, seed=5)
        source = int(np.argmax(graph.out_degrees()))
        reference = dijkstra_reference(graph, source)
        vectors = self._build_and_run(
            toolchain,
            "sssp_pull",
            "sssp",
            Schedule(priority_update="lazy", delta=16, direction="DensePull"),
            graph,
            [source],
        )
        assert np.array_equal(vectors["dist"], reference)

    @pytest.mark.parametrize("strategy", ["lazy", "eager_with_fusion"])
    def test_ppsp(self, toolchain, strategy):
        graph = road_grid(14, 16, seed=4)
        reference = dijkstra_reference(graph, 0)
        target = graph.num_vertices - 1
        vectors = self._build_and_run(
            toolchain,
            f"ppsp_{strategy}",
            "ppsp",
            Schedule(priority_update=strategy, delta=512),
            graph,
            [0, target],
        )
        assert vectors["dist"][target] == reference[target]

    @pytest.mark.parametrize(
        "strategy", ["lazy", "lazy_constant_sum", "eager_no_fusion"]
    )
    def test_kcore(self, toolchain, strategy):
        graph = rmat(8, 10, seed=3).symmetrized()
        reference = kcore_reference(graph)
        vectors = self._build_and_run(
            toolchain,
            f"kcore_{strategy}",
            "kcore",
            Schedule(priority_update=strategy),
            graph,
            [],
        )
        assert np.array_equal(vectors["D"], reference)
