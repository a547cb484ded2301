"""Slice of the oracle matrix (``tests/oracle_matrix.py``): vectorized
batch kernels vs the scalar interpreter and vs the library wrappers.

The UDF vectorization pass promises two things.  **Outputs**: for every
algorithm whose apply UDF it classifies as vectorizable, running the
compiled program with ``vectorize=True`` produces the same output vectors,
whole, as the scalar reference interpreter (``vectorize=False``).
**Counters**: the extremal family (SSSP, wBFS, PPSP, widest, A*) charges
one update per vertex improved in a chunk, and the library entry points
(wrappers over the same programs) must pass schedule, vertices and A*'s
heuristic through unchanged, so their ``deterministic_dict()`` equals the
compiled run's; only the kernels that
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
from repro.graph import from_edges
from repro.lang import ALL_PROGRAMS
from repro.midend import Schedule

from .oracle_matrix import Cell, check, graph


def run_both(program, schedule, family, args=("0",), heuristic="", g=None,
             scalar_counters=False):
    """Check one vectorized cell against the scalar oracle; also pin equal
    priority inversions (and, for the scalar-exact kernels, the full stats
    dump).  Returns ``(scalar, vector)`` run results."""
    cell = Cell(program, schedule, "vectorized", graph=family, args=args, heuristic=heuristic)
    scalar, vector = check(cell, g)
    assert scalar.context.vectorized_applies == 0
    if scalar_counters:
        assert scalar.stats.to_dict() == vector.stats.to_dict()
    assert [q.priority_inversions for q in scalar.context.queues] == [
        q.priority_inversions for q in vector.context.queues
    ]
    return scalar, vector


SSSP_SCHEDULES = {
    "lazy": Schedule(priority_update="lazy", delta=3, num_threads=2),
    "lazy_pull": Schedule(priority_update="lazy", direction="DensePull", delta=3, num_threads=2),
    "eager": Schedule(priority_update="eager_no_fusion", delta=3, num_threads=2),
    "eager_fusion": Schedule(priority_update="eager_with_fusion", delta=3, num_threads=2),
}

KCORE_SCHEDULES = {
    "lazy": Schedule(priority_update="lazy", num_threads=2),
    "lazy_constant_sum": Schedule(priority_update="lazy_constant_sum", num_threads=2),
    "eager": Schedule(priority_update="eager_no_fusion", num_threads=2),
}

#: This slice's cells; the generated matrix does not run them again.
CELLS = [
    Cell(program, SSSP_SCHEDULES[name].with_(**fixed), "vectorized")
    for program, fixed, names in (
        ("sssp", {}, SSSP_SCHEDULES),
        ("wbfs", {"delta": 1}, SSSP_SCHEDULES),
        ("ppsp", {}, SSSP_SCHEDULES),
        ("widest", {}, SSSP_SCHEDULES),
        ("astar", {}, ("lazy", "eager")),
    )
    for name in names
] + [Cell("kcore", schedule, "vectorized") for schedule in KCORE_SCHEDULES.values()]


class TestPriorityMinMaxFamily:
    @pytest.mark.parametrize("sched", sorted(SSSP_SCHEDULES))
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_sssp(self, sched, weighted):
        family = "heavy" if weighted else "unweighted"
        _, vector = run_both("sssp", SSSP_SCHEDULES[sched], family)
        assert vector.context.vectorized_applies > 0
        assert vector.context.scalar_applies == 0

    @pytest.mark.parametrize("sched", sorted(SSSP_SCHEDULES))
    def test_wbfs(self, sched):
        # wBFS is SSSP with delta pinned to 1 on an unweighted graph.
        schedule = SSSP_SCHEDULES[sched].with_(delta=1)
        _, vector = run_both("wbfs", schedule, "unweighted")
        assert vector.context.vectorized_applies > 0

    @pytest.mark.parametrize("sched", sorted(SSSP_SCHEDULES))
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_ppsp(self, sched, weighted):
        family = "heavy" if weighted else "unweighted"
        _, vector = run_both("ppsp", SSSP_SCHEDULES[sched], family, ("0", "99"))
        assert vector.context.vectorized_applies > 0

    @pytest.mark.parametrize("sched", sorted(SSSP_SCHEDULES))
    def test_widest(self, sched):
        # updatePriorityMax / higher_first exercises the write_max kernel
        # (including the null-priority success rule).
        _, vector = run_both("widest", SSSP_SCHEDULES[sched], "heavy")
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
        # The widest-path wrapper supports push traversal only.
        if (algo, sched) != ("widest", "lazy_pull")
    ],
)
def test_compiled_counters_equal_library(algo, sched):
    """The library wrapper is the compiled program: every deterministic
    counter (work lists included) equals a direct compiled run's."""
    library, targeted, overrides = LIBRARY[algo]
    schedule = SSSP_SCHEDULES[sched].with_(**overrides)
    g = graph({"astar": "road", "wbfs": "unweighted"}.get(algo, "heavy"))
    source = int(np.argmax(g.out_degrees()))
    points = [source, g.num_vertices - 1] if targeted else [source]
    compiled = compile_program(ALL_PROGRAMS[algo], schedule).run(
        ["prog", "-", *map(str, points)],
        graph=g,
        extern_functions=astar_externs() if algo == "astar" else None,
    )
    assert compiled.context.vectorized_applies > 0
    assert (
        compiled.stats.deterministic_dict()
        == library(g, *points, schedule).stats.deterministic_dict()
    )


class TestGuardedAndSum:
    @pytest.mark.parametrize("sched", ["lazy", "eager"])
    def test_astar(self, sched):
        _, vector = run_both("astar", SSSP_SCHEDULES[sched], "road", ("0", "last"), "euclidean")
        assert vector.context.vectorized_applies > 0

    @pytest.mark.parametrize(
        "sched,threads", [("lazy", 1), ("lazy_pull", 2), ("eager_fusion", 2)]
    )
    def test_astar_inconsistent_heuristic(self, sched, threads):
        # Three times the Manhattan distance overestimates wildly: every
        # round inverts, and then the scalar answer depends on the order of
        # writes.  The first-inverted-offer rule and the one-source-at-a-time
        # replay of a chunk that feeds itself keep the batch kernel on it
        # (either alone leaves ``dist`` and ``est`` different here).
        scalar, vector = run_both(
            "astar",
            SSSP_SCHEDULES[sched].with_(num_threads=threads),
            "road",
            ("0", "last"),
            "manhattan3",
        )
        assert scalar.context.queues[0].priority_inversions > 0
        assert vector.context.scalar_applies == 0

    @pytest.mark.parametrize("sched", sorted(KCORE_SCHEDULES))
    def test_kcore(self, sched):
        _, vector = run_both(
            "kcore", KCORE_SCHEDULES[sched], "symmetric", (), scalar_counters=True
        )
        assert vector.context.vectorized_applies > 0
        assert vector.context.scalar_applies == 0


class TestFallbackAndPlain:
    def test_bellman_ford_falls_back(self):
        # A whole-edgeset ``edges.apply`` has no batch kernel: the program
        # must still run — on the scalar interpreter — and produce identical
        # results under both flags.
        scalar, vector = run_both(
            "bellman_ford", Schedule(priority_update="lazy"), "heavy", scalar_counters=True
        )
        assert vector.context.vectorized_applies == 0
        assert vector.context.scalar_applies > 0

    def test_inverting_min_write_is_reported(self, capsys):
        # 0 -10-> 1 --8-> 2: vertex 2 is offered 2 while bucket 10 is being
        # processed.  The plain kinds do not replay scalar order for such a
        # program; the run must say that it left the guaranteed regime.
        g = from_edges(3, [(0, 1, 10), (1, 2, -8)])
        scalar, vector = run_both("sssp", Schedule(delta=1), "weighted", g=g)
        assert vector.context.inverted_batches == 1
        assert capsys.readouterr().err.count("V102") == 1  # not the oracle run

    def test_vectorize_false_forces_scalar(self):
        program = compile_program(ALL_PROGRAMS["sssp"], SSSP_SCHEDULES["lazy"])
        result = program.run(["prog", "-", "0"], graph=graph("heavy"), vectorize=False)
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

    def test_partial_udf_runs_through_apply(self):
        from repro.backend.runtime_support import Context

        context = Context(argv=["prog"], schedule=Schedule(priority_update="lazy"))
        seen = []

        def record(tag, src, dst, weight):
            seen.append((tag, src, dst, weight))

        g = graph("heavy")
        context.apply_edges(g, functools.partial(record, "w"))
        assert len(seen) == g.num_edges
        assert all(entry[0] == "w" for entry in seen)

    def test_callable_object_udf(self):
        from repro.backend.runtime_support import Context

        context = Context(argv=["prog"], schedule=Schedule(num_threads=2))

        class Relax:
            def __call__(self, src, dst, weight):
                return None

        assert context._udf_arity(Relax()) == 3
