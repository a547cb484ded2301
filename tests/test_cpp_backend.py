"""Tests for the C++ backend.

Structural tests verify the generated source reproduces Figure 9's shapes;
when g++ is available the generated programs are built and run on real
graphs as the ``cpp`` slice of the oracle matrix (``tests/oracle_matrix.py``):
their outputs must equal the scalar oracle's.
"""

import pytest

from repro.backend import compile_program
from repro.errors import CompileError
from repro.graph import rmat, road_grid
from repro.lang import ALL_PROGRAMS
from repro.midend import Schedule

from .oracle_matrix import Cell, check

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
