"""Differential tests: the parallel execution engine vs the sequential oracle.

Every compiled program run under ``execution="parallel"`` (real
``concurrent.futures`` workers driving the produce/commit round protocol)
must produce output vectors **bit-identical** to the scalar reference
interpreter (``vectorize=False``) run from the same inputs, and every
deterministic ``RuntimeStats`` counter of the *serial vectorized* run (the
scalar interpreter's per-edge counters are its own) — for the deterministic
strategies (eager, eager+fusion, lazy, lazy-constant-sum).  The relaxed (Galois-style)
strategy commits in completion order, so only its *outputs* are pinned (the
algorithms it supports converge to a unique fixpoint); its work counters
are allowed to differ.

The matrix: six algorithms x the strategies each supports x {1, 2, 4, 8}
workers x weighted/unweighted inputs.  The oracle is recomputed at the same
``num_threads`` as the parallel run because partitioning (and therefore
per-round work accounting) follows the thread count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import ppsp, sssp, widest_path
from repro.backend.program import compile_program
from repro.graph.generators import rmat, road_grid
from repro.lang.programs import ALL_PROGRAMS
from repro.midend.schedule import Schedule

pytestmark = pytest.mark.slow

WORKERS = (1, 2, 4, 8)

# ----------------------------------------------------------------------
# Inputs (module-scoped: built once).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def weighted():
    return rmat(8, 8, seed=3, weights=(1, 4))


@pytest.fixture(scope="module")
def unweighted():
    return rmat(8, 8, seed=3, weights=None)


@pytest.fixture(scope="module")
def symmetric(unweighted):
    return unweighted.symmetrized()


@pytest.fixture(scope="module")
def road():
    return road_grid(12, 12, seed=5)


def _heuristic_extern(ctx, dst_vertex):
    coords = ctx.globals["edges"].coordinates
    h = ctx.globals["h"]
    d = np.abs(coords - coords[int(dst_vertex)]).sum(axis=1)
    h[:] = d.astype(np.int64)


# ----------------------------------------------------------------------
# Core differential driver.
# ----------------------------------------------------------------------


def run_pair(source, schedule, args, graph, externs=None, sanitize=False):
    """Run the scalar oracle, the serial vectorized run and the parallel
    engine (optionally sanitized) from identical inputs."""
    oracle_prog = compile_program(source, schedule)
    oracle, serial = (
        oracle_prog.run(
            list(args), graph=graph, extern_functions=externs, vectorize=vectorize
        )
        for vectorize in (False, True)
    )
    parallel_prog = compile_program(
        source, schedule.with_(execution="parallel", sanitize=sanitize)
    )
    parallel = parallel_prog.run(
        list(args), graph=graph, extern_functions=externs, vectorize=True
    )
    return oracle, serial, parallel


def assert_bit_identical(oracle, serial, parallel, workers):
    for name, value in oracle.globals.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, parallel.globals[name]), (
                f"vector {name} diverged at {workers} workers"
            )
    assert serial.stats.deterministic_dict() == parallel.stats.deterministic_dict(), (
        f"stats diverged at {workers} workers"
    )
    # The engine's own profile must be coherent: one barrier per recorded
    # parallel round, and no parallel rounds at one worker (inline fallback).
    assert parallel.stats.execution == "parallel"
    assert parallel.stats.barrier_waits == parallel.stats.parallel_rounds
    if workers == 1:
        assert parallel.stats.parallel_rounds == 0


# (program, strategy, graph fixture, extra args, externs?) — six algorithms,
# each under every strategy its operators support.  A* runs with a
# Manhattan heuristic that is *not* admissible on this grid, so its run has
# priority inversions (asserted below): an update that lands below the
# current bucket freezes ``est`` at the first such offer in scalar order,
# and the batch kernel must commit that one, not the chunk's best.
CASES = [
    ("sssp", "lazy", "weighted", ["0"], None),
    ("sssp", "eager_no_fusion", "weighted", ["0"], None),
    ("sssp", "eager_with_fusion", "weighted", ["0"], None),
    ("sssp", "lazy", "unweighted", ["0"], None),
    ("ppsp", "lazy", "weighted", ["0", "99"], None),
    ("ppsp", "eager_with_fusion", "weighted", ["0", "99"], None),
    ("widest", "lazy", "weighted", ["0"], None),
    ("widest", "eager_no_fusion", "weighted", ["0"], None),
    ("widest", "eager_with_fusion", "weighted", ["0"], None),
    ("wbfs", "lazy", "weighted", ["0"], None),
    ("wbfs", "eager_with_fusion", "unweighted", ["0"], None),
    ("kcore", "lazy", "symmetric", [], None),
    ("kcore", "lazy_constant_sum", "symmetric", [], None),
    ("kcore", "eager_no_fusion", "symmetric", [], None),
    ("astar", "lazy", "road", ["0", "100"], _heuristic_extern),
    ("astar", "eager_no_fusion", "road", ["0", "100"], _heuristic_extern),
]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize(
    "program,strategy,graph_fixture,extra_args,extern",
    CASES,
    ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in CASES],
)
def test_parallel_matches_oracle(
    program, strategy, graph_fixture, extra_args, extern, workers, request
):
    graph = request.getfixturevalue(graph_fixture)
    delta = 1 if program in ("kcore", "widest") else 3
    schedule = Schedule(
        priority_update=strategy, delta=delta, num_threads=workers
    )
    externs = {"computeHeuristic": extern} if extern else None
    oracle, serial, parallel = run_pair(
        ALL_PROGRAMS[program],
        schedule,
        ["prog", "-", *extra_args],
        graph,
        externs=externs,
    )
    assert_bit_identical(oracle, serial, parallel, workers)
    if program == "astar":
        inversions = [q.priority_inversions for q in oracle.context.queues]
        assert inversions[0] > 0
        assert inversions == [q.priority_inversions for q in parallel.context.queues]
    if program == "widest":
        # The library's widest path shares the Δ-stepping relaxer, so it
        # must honour execution="parallel" too (it used to stay serial).
        serial = widest_path(graph, 0, schedule)
        threaded = widest_path(graph, 0, schedule.with_(execution="parallel"))
        assert np.array_equal(serial.distances, threaded.distances)
        assert serial.stats.deterministic_dict() == threaded.stats.deterministic_dict()
        assert (threaded.stats.parallel_rounds > 0) == (workers > 1)


# ----------------------------------------------------------------------
# Schedule sanitizer under the parallel engine: one representative config
# runs with ``sanitize=True`` on the parallel side.  The instrumented run
# must stay bit-identical to the oracle AND validate real apply scopes,
# proving the effect summaries hold for actual parallel executions.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (1, 4))
def test_sanitized_parallel_matches_oracle(weighted, workers):
    schedule = Schedule(
        priority_update="eager_with_fusion", delta=3, num_threads=workers
    )
    oracle, serial, sanitized = run_pair(
        ALL_PROGRAMS["sssp"], schedule, ["prog", "-", "0"], weighted, sanitize=True
    )
    assert_bit_identical(oracle, serial, sanitized, workers)
    sanitizer = sanitized.context.sanitizer
    assert sanitizer is not None
    assert len(sanitizer.log) > 0
    assert {entry["udf"] for entry in sanitizer.log} == {"updateEdge"}


# ----------------------------------------------------------------------
# Lazy stats invariant: the produce/commit split must not change round
# structure, relaxation totals or update-buffer traffic (Figure 5).
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (2, 4, 8))
@pytest.mark.parametrize("strategy", ("lazy", "lazy_constant_sum"))
def test_lazy_round_and_relaxation_invariant(symmetric, strategy, workers):
    schedule = Schedule(priority_update=strategy, num_threads=workers)
    oracle, _, parallel = run_pair(
        ALL_PROGRAMS["kcore"], schedule, ["prog", "-"], symmetric
    )
    assert oracle.stats.rounds == parallel.stats.rounds
    assert oracle.stats.relaxations == parallel.stats.relaxations
    assert oracle.stats.buffer_appends == parallel.stats.buffer_appends
    assert oracle.stats.dedup_hits == parallel.stats.dedup_hits
    assert oracle.stats.buffer_reductions == parallel.stats.buffer_reductions
    if workers > 1:
        assert parallel.stats.parallel_rounds > 0


# ----------------------------------------------------------------------
# Relaxed (Galois-style) strategy: commits run in completion order under
# the engine lock, so stats may differ — but the supported algorithms
# converge to a unique fixpoint, which must match the oracle.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (1, 2, 4, 8))
def test_relaxed_parallel_is_admissible_sssp(weighted, workers):
    reference = sssp(weighted, 0, Schedule(delta=3, num_threads=workers))
    relaxed = sssp(
        weighted,
        0,
        Schedule(delta=3, num_threads=workers, execution="parallel"),
        relaxed_ordering=True,
    )
    assert np.array_equal(relaxed.distances, reference.distances)
    assert relaxed.stats.execution == "parallel"


@pytest.mark.parametrize("workers", (2, 4))
def test_relaxed_parallel_is_admissible_ppsp(weighted, workers):
    reference = ppsp(weighted, 0, 99, Schedule(delta=3, num_threads=workers))
    relaxed = ppsp(
        weighted,
        0,
        99,
        Schedule(delta=3, num_threads=workers, execution="parallel"),
        relaxed_ordering=True,
    )
    # Point-to-point with relaxed ordering may do different amounts of
    # wasted work, but the target's distance is the unique shortest path.
    assert relaxed.distances[99] == reference.distances[99]
