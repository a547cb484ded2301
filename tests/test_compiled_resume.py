"""The compiled program's resume entry and the strategies it replaced.

``CompiledProgram.run(argv, graph=..., resume=(values, seeds))`` binds the
ordered loop's priority vector to ``values`` in place and seeds the queue
from ``seeds``: the one path behind the library wrappers, incremental
resume and serve sessions.  Also here: the lazy loop's round protocol, the
``relaxed`` (Galois) strategy's sync accounting and its native refusal, and
the Julienne preset's per-round degree-reduction charge.
"""

import numpy as np
import pytest

from repro import Schedule, compile_program
from repro.algorithms import dijkstra_reference, sssp
from repro.algorithms.common import MAX, MIN
from repro.algorithms.frameworks import run_framework
from repro.backend.program import cached_program
from repro.errors import SchedulingError
from repro.graph import rmat
from repro.graph.mutations import Mutation
from repro.incremental import IncrementalSession
from repro.lang.programs import ALL_PROGRAMS
from repro.midend.lint import lint_program

# program -> (value semantics, Δ, output vector)
PATH_PROGRAMS = {
    "sssp": (MIN, 8, "dist"),
    "wbfs": (MIN, 1, "dist"),
    "widest": (MAX, 8, "width"),
}
STRATEGIES = ("lazy", "eager_with_fusion", "relaxed")


@pytest.fixture(scope="module")
def graph():
    return rmat(8, 8, seed=4)


@pytest.fixture(scope="module")
def source(graph):
    return int(np.argmax(graph.out_degrees()))


@pytest.fixture(scope="module")
def reference(graph, source):
    return dijkstra_reference(graph, source)


def run_program(name, schedule, graph, source, resume=None):
    return cached_program(ALL_PROGRAMS[name], schedule).run(
        ["resume", "-", str(source)], graph=graph, resume=resume
    )


def tense_vertices(graph, extremum, values):
    """Tails of the edges whose offer would still improve their head."""
    tails, heads, weights = graph.edge_list()
    offers = extremum.offer(values[tails], weights)
    tense = (values[tails] != extremum.identity) & (
        extremum.reduce(offers, values[heads]) != values[heads]
    )
    return np.unique(tails[tense])


class TestResume:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", sorted(PATH_PROGRAMS))
    def test_half_converged_resume_equals_fresh_run(
        self, graph, source, name, strategy
    ):
        extremum, delta, vector = PATH_PROGRAMS[name]
        schedule = Schedule(priority_update=strategy, delta=delta, num_threads=2)
        values = extremum.fresh(graph.num_vertices, source)
        run_program(name, schedule, graph, source, resume=(values, [source]))
        converged = values.copy()
        # Forget the far half of the answer, then resume from the tense tails.
        reached = np.flatnonzero(values != extremum.identity)
        by_distance = reached[np.argsort(values[reached], kind="stable")]
        if extremum is MAX:
            by_distance = by_distance[::-1]
        values[by_distance[by_distance.size // 2 :]] = extremum.identity
        seeds = tense_vertices(graph, extremum, values)
        assert seeds.size > 0
        result = run_program(name, schedule, graph, source, resume=(values, seeds))
        assert result.globals[vector] is values  # bound in place, not copied
        np.testing.assert_array_equal(values, converged)
        fresh = run_program(name, schedule, graph, source)
        np.testing.assert_array_equal(extremum.publish(values), fresh.globals[vector])

    @pytest.mark.parametrize("name", sorted(PATH_PROGRAMS))
    def test_empty_seed_set_runs_no_round(self, graph, source, name):
        extremum, delta, _ = PATH_PROGRAMS[name]
        schedule = Schedule(priority_update="lazy", delta=delta, num_threads=2)
        values = extremum.fresh(graph.num_vertices, source)
        run_program(name, schedule, graph, source, resume=(values, [source]))
        converged = values.copy()
        result = run_program(name, schedule, graph, source, resume=(values, []))
        assert result.stats.rounds == 0
        np.testing.assert_array_equal(values, converged)

    def test_resume_does_not_compact_the_mutation_overlay(self, graph, source):
        """A compaction makes the next apply about 15x slower, so the
        compiled resume must read the session graph through its overlay."""
        session = IncrementalSession(
            graph.with_weights(graph.weights.copy()),
            "sssp",
            source=source,
            schedule=Schedule(priority_update="lazy", delta=8),
        )
        session.run()
        tail = int(session.graph.out_neighbors(source)[0])
        result = session.apply(
            [Mutation("add", source, 7, 1), Mutation("remove", source, tail)]
        )
        assert result.seeds > 0
        assert session.graph.has_pending_mutations

    def test_reading_the_session_graph_keeps_its_overlay(self, graph, source):
        """Reading ``.indptr`` between two batches must not fold the
        overlay (a fold makes the next apply about 15x slower), and the
        next answer must still equal a fresh run's."""
        schedule = Schedule(priority_update="lazy", delta=8)
        session = IncrementalSession(
            graph.with_weights(graph.weights.copy()), "sssp", source=source, schedule=schedule
        )
        session.run()
        tail = int(session.graph.out_neighbors(source)[0])
        session.apply([Mutation("add", source, 7, 1), Mutation("remove", source, tail)])
        assert session.graph.has_pending_mutations
        session.graph.indptr  # noqa: B018 — the read under test
        assert session.graph.has_pending_mutations
        result = session.apply([Mutation("add", 7, tail, 2)])
        fresh = sssp(session.graph.with_weights(session.graph.weights), source, schedule)
        np.testing.assert_array_equal(result.values, fresh.distances)

    def test_native_program_refuses_to_resume(self, graph, source):
        program = compile_program(ALL_PROGRAMS["sssp"], Schedule(execution="native"))
        values = MIN.fresh(graph.num_vertices, source)
        with pytest.raises(SchedulingError, match="resume"):
            program.run(["p", "-", str(source)], graph=graph, resume=(values, [source]))


class TestLazyLoop:
    """The lazy strategies' round protocol, now the generated while loop."""

    def test_push_pays_two_syncs_per_round(self, graph, source, reference):
        result = sssp(graph, source, Schedule(priority_update="lazy", delta=8))
        np.testing.assert_array_equal(result.distances, reference)
        assert result.stats.global_syncs == 2 * result.stats.rounds

    def test_pull_charges_no_atomics(self, graph, source, reference):
        schedule = Schedule(priority_update="lazy", delta=8, direction="DensePull")
        result = sssp(graph, source, schedule)
        np.testing.assert_array_equal(result.distances, reference)
        assert result.stats.atomic_ops == 0

    def test_julienne_charges_a_degree_reduction_per_round(self, graph, source):
        """Julienne is lazy SSSP plus, per round, one unit per frontier
        vertex spread over the threads and a constant lambda charge."""
        julienne = run_framework("julienne", "sssp", graph, source, num_threads=2)
        schedule = Schedule(priority_update="lazy", delta=8, num_threads=2)
        lazy = sssp(graph, source, schedule).stats
        assert julienne.stats.rounds == lazy.rounds
        extra = np.subtract(julienne.stats.max_work_per_round, lazy.max_work_per_round)
        reduction = np.array(lazy.frontier_per_round) // 2 + 1
        lambda_cost = extra - reduction
        assert lambda_cost.min() == lambda_cost.max() > 0


class TestRelaxed:
    def test_charges_fewer_global_syncs_than_rounds(self, graph, source, reference):
        schedule = Schedule(priority_update="relaxed", delta=64, num_threads=2)
        result = sssp(graph, source, schedule)
        np.testing.assert_array_equal(result.distances, reference)
        assert 0 < result.stats.global_syncs < result.stats.rounds

    def test_native_relaxed_is_a_coded_scheduling_error(self):
        schedule = Schedule(priority_update="relaxed", execution="native")
        with pytest.raises(SchedulingError, match="relaxed"):
            compile_program(ALL_PROGRAMS["sssp"], schedule)
        codes = {d.code for d in lint_program(ALL_PROGRAMS["sssp"], schedule=schedule)}
        assert "S003" in codes

    def test_sum_updates_refuse_relaxed(self):
        with pytest.raises(SchedulingError, match="min/max"):
            compile_program(ALL_PROGRAMS["kcore"], Schedule(priority_update="relaxed"))

    def test_relaxed_is_push_only(self):
        with pytest.raises(SchedulingError, match="SparsePush"):
            Schedule(priority_update="relaxed", direction="DensePull")
