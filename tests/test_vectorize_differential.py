"""Differential tests: vectorized batch kernels vs the scalar interpreter
and vs the hand-written library.

The UDF vectorization pass promises two things.  **Outputs**: for every
algorithm whose apply UDF it classifies as vectorizable, running the
compiled program with ``vectorize=True`` produces the same output vectors,
whole, as the scalar reference interpreter (``vectorize=False``).
**Counters**: the extremal family (SSSP, wBFS, PPSP, widest, A*) scatters
through the library's relax kernel and charges what the library charges, so
its ``deterministic_dict()`` equals the library run's; only the kernels that
are still scalar-exact (k-core's sums, and the Bellman-Ford fallback) keep
the full :class:`RuntimeStats` dump of the scalar interpreter.  These tests
sweep the six evaluated algorithms across the bucketing strategies ×
direction × weighted/unweighted grid and assert exactly that.
"""

import functools

import numpy as np
import pytest

import repro
from repro.backend import compile_program
from repro.backend.extern_library import astar_externs
from repro.graph import from_edges, rmat, road_grid
from repro.lang import ALL_PROGRAMS
from repro.midend import Schedule


def run_both(source, schedule, args, graph, externs=None, scalar_counters=False):
    """Compile once, run scalar and vectorized, assert whole-vector equality
    (and, for the kernels that are still scalar-exact, the full stats dump)."""
    program = compile_program(source, schedule)
    scalar = program.run(
        list(args), graph=graph, extern_functions=externs, vectorize=False
    )
    vector = program.run(
        list(args), graph=graph, extern_functions=externs, vectorize=True
    )
    assert scalar.context.vectorized_applies == 0
    if scalar_counters:
        assert scalar.stats.to_dict() == vector.stats.to_dict()
    for name, value in scalar.globals.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, vector.globals[name]), name
    assert [q.priority_inversions for q in scalar.context.queues] == [
        q.priority_inversions for q in vector.context.queues
    ]
    return scalar, vector


@pytest.fixture(scope="module")
def weighted_graph():
    return rmat(8, 8, seed=3)


@pytest.fixture(scope="module")
def unweighted_graph():
    return rmat(8, 8, seed=3, weights=None)


@pytest.fixture(scope="module")
def symmetric_graph():
    return rmat(8, 8, seed=3, weights=None).symmetrized()


@pytest.fixture(scope="module")
def road():
    return road_grid(12, 12, seed=5)


SSSP_SCHEDULES = {
    "lazy": Schedule(priority_update="lazy", delta=3),
    "lazy_pull": Schedule(priority_update="lazy", direction="DensePull", delta=3),
    "eager": Schedule(priority_update="eager_no_fusion", delta=3),
    "eager_fusion": Schedule(priority_update="eager_with_fusion", delta=3),
}

KCORE_SCHEDULES = {
    "lazy": Schedule(priority_update="lazy"),
    "lazy_constant_sum": Schedule(priority_update="lazy_constant_sum"),
    "eager": Schedule(priority_update="eager_no_fusion"),
}


class TestPriorityMinMaxFamily:
    @pytest.mark.parametrize("sched", sorted(SSSP_SCHEDULES))
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_sssp(self, sched, weighted, weighted_graph, unweighted_graph):
        graph = weighted_graph if weighted else unweighted_graph
        _, vector = run_both(
            ALL_PROGRAMS["sssp"], SSSP_SCHEDULES[sched], ["prog", "-", "0"], graph
        )
        assert vector.context.vectorized_applies > 0
        assert vector.context.scalar_applies == 0

    @pytest.mark.parametrize("sched", sorted(SSSP_SCHEDULES))
    def test_wbfs(self, sched, unweighted_graph):
        # wBFS is SSSP with delta pinned to 1 on an unweighted graph.
        schedule = SSSP_SCHEDULES[sched].with_(delta=1)
        _, vector = run_both(
            ALL_PROGRAMS["wbfs"], schedule, ["prog", "-", "0"], unweighted_graph
        )
        assert vector.context.vectorized_applies > 0

    @pytest.mark.parametrize("sched", sorted(SSSP_SCHEDULES))
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_ppsp(self, sched, weighted, weighted_graph, unweighted_graph):
        graph = weighted_graph if weighted else unweighted_graph
        _, vector = run_both(
            ALL_PROGRAMS["ppsp"],
            SSSP_SCHEDULES[sched],
            ["prog", "-", "0", "99"],
            graph,
        )
        assert vector.context.vectorized_applies > 0

    @pytest.mark.parametrize("sched", sorted(SSSP_SCHEDULES))
    def test_widest(self, sched, weighted_graph):
        # updatePriorityMax / higher_first exercises the write_max kernel
        # (including the null-priority success rule).
        schedule = SSSP_SCHEDULES[sched].with_(delta=1)
        _, vector = run_both(
            ALL_PROGRAMS["widest"], schedule, ["prog", "-", "0"], weighted_graph
        )
        assert vector.context.vectorized_applies > 0


# program -> (library entry point, takes a target, schedule overrides)
LIBRARY = {
    "sssp": (repro.sssp, False, {}),
    "wbfs": (repro.wbfs, False, {"delta": 1}),
    "ppsp": (repro.ppsp, True, {}),
    "widest": (repro.widest_path, False, {"delta": 1}),
    "astar": (repro.astar, True, {"delta": 2}),
}


@pytest.mark.parametrize(
    "algo,sched",
    [
        (algo, sched)
        for algo in sorted(LIBRARY)
        for sched in sorted(SSSP_SCHEDULES)
        # The library's widest path supports push traversal only.
        if (algo, sched) != ("widest", "lazy_pull")
    ],
)
def test_compiled_counters_equal_library(
    algo, sched, weighted_graph, unweighted_graph, road
):
    """One relax kernel, one accounting: a vectorized compiled run charges
    every deterministic counter (work lists included) as the library does."""
    library, targeted, overrides = LIBRARY[algo]
    schedule = SSSP_SCHEDULES[sched].with_(**overrides)
    graph = {"astar": road, "wbfs": unweighted_graph}.get(algo, weighted_graph)
    source = int(np.argmax(graph.out_degrees()))
    points = [source, graph.num_vertices - 1] if targeted else [source]
    compiled = compile_program(ALL_PROGRAMS[algo], schedule).run(
        ["prog", "-", *map(str, points)],
        graph=graph,
        extern_functions=astar_externs() if algo == "astar" else None,
    )
    assert compiled.context.vectorized_applies > 0
    assert (
        compiled.stats.deterministic_dict()
        == library(graph, *points, schedule).stats.deterministic_dict()
    )


class TestGuardedAndSum:
    @pytest.mark.parametrize("sched", ["lazy", "eager"])
    def test_astar(self, sched, road):
        schedule = SSSP_SCHEDULES[sched].with_(delta=2)
        _, vector = run_both(
            ALL_PROGRAMS["astar"],
            schedule,
            ["prog", "-", "0", str(road.num_vertices - 1)],
            road,
            externs=astar_externs(),
        )
        assert vector.context.vectorized_applies > 0

    @pytest.mark.parametrize(
        "sched,threads", [("lazy", 1), ("lazy_pull", 2), ("eager_fusion", 2)]
    )
    def test_astar_inconsistent_heuristic(self, sched, threads, road):
        # Three times the Manhattan distance overestimates wildly: every
        # round inverts, and then the scalar answer depends on the order of
        # writes.  The first-inverted-offer rule and the one-source-at-a-time
        # replay of a chunk that feeds itself keep the batch kernel on it
        # (either alone leaves ``dist`` and ``est`` different here).
        def heuristic(ctx, target):
            coords = ctx.globals["edges"].coordinates
            ctx.globals["h"][:] = 3 * np.abs(coords - coords[int(target)]).sum(axis=1)

        scalar, vector = run_both(
            ALL_PROGRAMS["astar"],
            SSSP_SCHEDULES[sched].with_(num_threads=threads),
            ["prog", "-", "0", str(road.num_vertices - 1)],
            road,
            externs={"computeHeuristic": heuristic},
        )
        assert scalar.context.queues[0].priority_inversions > 0
        assert vector.context.scalar_applies == 0

    @pytest.mark.parametrize("sched", sorted(KCORE_SCHEDULES))
    def test_kcore(self, sched, symmetric_graph):
        _, vector = run_both(
            ALL_PROGRAMS["kcore"],
            KCORE_SCHEDULES[sched],
            ["prog", "-"],
            symmetric_graph,
            scalar_counters=True,
        )
        assert vector.context.vectorized_applies > 0
        assert vector.context.scalar_applies == 0


class TestFallbackAndPlain:
    def test_bellman_ford_falls_back(self, weighted_graph):
        # A whole-edgeset ``edges.apply`` has no batch kernel: the program
        # must still run — on the scalar interpreter — and produce identical
        # results under both flags.
        scalar, vector = run_both(
            ALL_PROGRAMS["bellman_ford"],
            Schedule(priority_update="lazy"),
            ["prog", "-", "0"],
            weighted_graph,
            scalar_counters=True,
        )
        assert vector.context.vectorized_applies == 0
        assert vector.context.scalar_applies > 0

    def test_inverting_min_write_is_reported(self, capsys):
        # 0 -10-> 1 --8-> 2: vertex 2 is offered 2 while bucket 10 is being
        # processed.  The plain kinds do not replay scalar order for such a
        # program; the run must say that it left the guaranteed regime.
        graph = from_edges(3, [(0, 1, 10), (1, 2, -8)])
        scalar, vector = run_both(
            ALL_PROGRAMS["sssp"], Schedule(delta=1), ["prog", "-", "0"], graph
        )
        assert vector.context.inverted_batches == 1
        assert capsys.readouterr().err.count("V102") == 1  # not the oracle run

    def test_vectorize_false_forces_scalar(self, weighted_graph):
        program = compile_program(ALL_PROGRAMS["sssp"], SSSP_SCHEDULES["lazy"])
        result = program.run(["prog", "-", "0"], graph=weighted_graph, vectorize=False)
        assert result.context.vectorized_applies == 0
        assert result.context.scalar_applies > 0


class TestUdfArity:
    def test_partial_udf(self):
        from repro.backend.runtime_support import Context

        context = Context(argv=["prog"], schedule=Schedule(num_threads=2))

        def relax(scale, src, dst, weight):
            return None

        bound = functools.partial(relax, 2)
        # functools.partial has no __code__; inspect.signature sees the
        # remaining positional parameters.
        assert context._udf_arity(bound) == 3
        assert context._udf_arity(lambda s, d: None) == 2
        # Cached on repeat lookups.
        assert context._udf_arity(bound) == 3

    def test_partial_udf_runs_through_apply(self, weighted_graph):
        from repro.backend.runtime_support import Context

        context = Context(argv=["prog"], schedule=Schedule(priority_update="lazy"))
        seen = []

        def record(tag, src, dst, weight):
            seen.append((tag, src, dst, weight))

        context.apply_edges(weighted_graph, functools.partial(record, "w"))
        assert len(seen) == weighted_graph.num_edges
        assert all(entry[0] == "w" for entry in seen)

    def test_callable_object_udf(self):
        from repro.backend.runtime_support import Context

        context = Context(argv=["prog"], schedule=Schedule(num_threads=2))

        class Relax:
            def __call__(self, src, dst, weight):
                return None

        assert context._udf_arity(Relax()) == 3
