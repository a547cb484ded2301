"""Correctness and behaviour tests for k-core and SetCover (direct API)."""

import numpy as np
import pytest

from repro import compile_program
from repro.algorithms import (
    DEFAULT_SETCOVER_SCHEDULE,
    greedy_setcover_reference,
    kcore,
    kcore_reference,
    setcover,
    unordered_kcore,
)
from repro.backend.extern_library import setcover_externs
from repro.errors import GraphError, SchedulingError
from repro.graph import complete_graph, from_edges, path_graph, rmat, star_graph
from repro.lang.programs import KCORE, SETCOVER
from repro.midend import Schedule

KCORE_STRATEGIES = ["lazy_constant_sum", "lazy", "eager_no_fusion"]


@pytest.fixture(scope="module")
def symmetric():
    graph = rmat(10, 16, seed=3).symmetrized()
    return graph, kcore_reference(graph)


class TestKCore:
    @pytest.mark.parametrize(
        "strategy, execution",
        [
            pytest.param(s, e, id=s if e == "serial" else f"{s}-{e}")
            for e in ("serial", "parallel")
            for s in KCORE_STRATEGIES
        ],
    )
    def test_matches_reference(self, symmetric, strategy, execution):
        graph, reference = symmetric
        result = kcore(
            graph,
            Schedule(priority_update=strategy, num_threads=4, execution=execution),
        )
        assert np.array_equal(result.coreness, reference)

    @pytest.mark.parametrize("strategy", ["lazy", "lazy_constant_sum"])
    def test_empty_bucket_is_not_a_round(self, strategy):
        # The last dequeue of a lazy peel can come back empty (the queue held
        # only a stale copy of a vertex already peeled at a lower k); the
        # apply operator must not count it as a round.
        program = compile_program(KCORE, Schedule(priority_update=strategy))
        stats = program.run(["kcore", "-"], graph=path_graph(5, symmetric=True)).stats
        assert stats.frontier_per_round == [2, 2, 1]
        assert stats.rounds == len(stats.frontier_per_round) == 3
        assert stats.global_syncs == 6

    def test_clique_coreness(self):
        graph = complete_graph(6)
        result = kcore(graph)
        assert np.all(result.coreness == 5)
        assert result.degeneracy == 5

    def test_path_coreness(self):
        graph = path_graph(5, symmetric=True)
        result = kcore(graph)
        assert np.all(result.coreness == 1)

    def test_star_coreness(self):
        graph = star_graph(10)
        result = kcore(graph)
        assert np.all(result.coreness == 1)

    def test_isolated_vertices(self):
        graph = from_edges(4, [(0, 1), (1, 0)])
        result = kcore(graph)
        assert result.coreness.tolist() == [1, 1, 0, 0]

    def test_clique_plus_tail(self):
        # A 4-clique with a pendant path: clique coreness 3, path coreness 1.
        edges = []
        for u in range(4):
            for v in range(4):
                if u != v:
                    edges.append((u, v))
        edges += [(3, 4), (4, 3), (4, 5), (5, 4)]
        graph = from_edges(6, edges)
        result = kcore(graph)
        assert result.coreness.tolist() == [3, 3, 3, 3, 1, 1]

    def test_coarsening_rejected(self, symmetric):
        graph, _ = symmetric
        with pytest.raises(SchedulingError):
            kcore(graph, Schedule(priority_update="lazy", delta=4))

    def test_fusion_rejected(self, symmetric):
        graph, _ = symmetric
        with pytest.raises(SchedulingError):
            kcore(graph, Schedule(priority_update="eager_with_fusion"))

    def test_histogram_avoids_atomics(self, symmetric):
        graph, _ = symmetric
        histogram = kcore(graph, Schedule(priority_update="lazy_constant_sum"))
        plain = kcore(graph, Schedule(priority_update="lazy"))
        assert histogram.stats.atomic_ops == 0
        assert plain.stats.atomic_ops > 0
        assert histogram.stats.histogram_updates > 0

    def test_eager_pays_more_bucket_insertions(self, symmetric):
        graph, _ = symmetric
        eager = kcore(graph, Schedule(priority_update="eager_no_fusion"))
        lazy = kcore(graph, Schedule(priority_update="lazy_constant_sum"))
        # The Table 7 effect: every unit decrement is an eager bucket move.
        assert eager.stats.bucket_inserts > lazy.stats.bucket_inserts

    def test_unordered_matches_but_works_harder(self, symmetric):
        graph, reference = symmetric
        unordered = unordered_kcore(graph, num_threads=4)
        assert np.array_equal(unordered.coreness, reference)
        ordered = kcore(graph)
        assert unordered.stats.total_work > ordered.stats.total_work


class TestSetCover:
    def test_full_coverage(self, symmetric):
        graph, _ = symmetric
        result = setcover(graph, seed=1)
        assert result.fully_covered
        # Every chosen set is a valid vertex.
        assert result.cover.min() >= 0
        assert result.cover.max() < graph.num_vertices

    def test_cover_actually_covers(self, symmetric):
        graph, _ = symmetric
        result = setcover(graph, seed=1)
        covered = np.zeros(graph.num_vertices, dtype=bool)
        for chosen in result.cover.tolist():
            covered[chosen] = True
            covered[graph.out_neighbors(chosen)] = True
        assert covered.all()

    def test_quality_close_to_greedy(self, symmetric):
        graph, _ = symmetric
        result = setcover(graph, seed=1)
        greedy = greedy_setcover_reference(graph)
        assert result.cover_size <= 2 * greedy.size

    def test_deterministic_given_seed(self, symmetric):
        graph, _ = symmetric
        a = setcover(graph, seed=5)
        b = setcover(graph, seed=5)
        assert np.array_equal(a.cover, b.cover)

    def test_star_graph_cover_is_center(self):
        graph = star_graph(12)
        result = setcover(graph, seed=0)
        # The hub covers everything; the cover should be exactly {0}.
        assert result.cover.tolist() == [0]

    def test_rebucketing_happens(self, symmetric):
        graph, _ = symmetric
        result = setcover(graph, seed=1)
        # Lazy re-bucketing traffic is the defining workload property.
        assert result.stats.buffer_appends > 0
        assert result.stats.rounds > 1

    def test_compiled_program_charges_rounds(self, symmetric):
        graph, _ = symmetric
        run = compile_program(SETCOVER, DEFAULT_SETCOVER_SCHEDULE).run(
            ["setcover", "-"], graph=graph, extern_functions=setcover_externs(seed=1)
        )
        assert run.stats.rounds > 1
        assert run.stats.priority_updates > 0
        assert run.stats.global_syncs == 2 * run.stats.rounds

    def test_eager_rejected(self, symmetric):
        graph, _ = symmetric
        with pytest.raises(SchedulingError):
            setcover(graph, Schedule(priority_update="eager_no_fusion"))

    def test_coarsening_rejected(self, symmetric):
        graph, _ = symmetric
        with pytest.raises(SchedulingError):
            setcover(graph, Schedule(priority_update="lazy", delta=2))

    def test_invalid_retention(self, symmetric):
        graph, _ = symmetric
        with pytest.raises(GraphError):
            setcover(graph, retention=0.0)

    def test_empty_graph(self):
        graph = from_edges(0, [])
        result = setcover(graph)
        assert result.cover_size == 0
        assert result.fully_covered
