"""Slice of the oracle matrix (``tests/oracle_matrix.py``): the parallel
execution engine vs the sequential oracle.

Every compiled program run under ``execution="parallel"`` (the worker
thread driving the produce/commit round protocol) must produce output
vectors **bit-identical** to the scalar reference interpreter
(``vectorize=False``) run from the same inputs, and every
deterministic ``RuntimeStats`` counter of the *serial vectorized* run (the
scalar interpreter's per-edge counters are its own) — :func:`check` asserts
both for every ``parallel`` cell.  The relaxed (Galois-style) strategy
commits in completion order, so only its *outputs* are pinned (the
algorithms it supports converge to a unique fixpoint); its work counters
are allowed to differ.

The matrix: six algorithms x the strategies each supports x {1, 2, 4, 8}
threads x weighted/unweighted inputs.  The serial run is recomputed at the
same ``num_threads`` as the parallel run because the cost model's work split
(``max_work_per_round``) follows the thread count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import ppsp, sssp, widest_path
from repro.midend.schedule import Schedule

from .oracle_matrix import Cell, check, graph

pytestmark = pytest.mark.slow

WORKERS = (1, 2, 4, 8)


# (program, strategy, graph family, args) — six algorithms,
# each under every strategy its operators support.  A* runs with a
# Manhattan heuristic that is *not* admissible on this grid, so its run has
# priority inversions (asserted below): an update that lands below the
# current bucket freezes ``est`` at the first such offer in scalar order,
# and the batch kernel must commit that one, not the chunk's best.
CASES = [
    ("sssp", "lazy", "weighted", ("0",)),
    ("sssp", "eager_no_fusion", "weighted", ("0",)),
    ("sssp", "eager_with_fusion", "weighted", ("0",)),
    ("sssp", "lazy", "unweighted", ("0",)),
    ("ppsp", "lazy", "weighted", ("0", "99")),
    ("ppsp", "eager_with_fusion", "weighted", ("0", "99")),
    ("widest", "lazy", "weighted", ("0",)),
    ("widest", "eager_no_fusion", "weighted", ("0",)),
    ("widest", "eager_with_fusion", "weighted", ("0",)),
    ("wbfs", "lazy", "weighted", ("0",)),
    ("wbfs", "eager_with_fusion", "unweighted", ("0",)),
    ("kcore", "lazy", "symmetric", ()),
    ("kcore", "lazy_constant_sum", "symmetric", ()),
    ("kcore", "eager_no_fusion", "symmetric", ()),
    ("astar", "lazy", "road", ("0", "100")),
    ("astar", "eager_no_fusion", "road", ("0", "100")),
]


def _cell(program, strategy, family, args, workers):
    delta = 1 if program in ("kcore", "wbfs") else 3
    schedule = Schedule(priority_update=strategy, delta=delta, num_threads=workers)
    return Cell(program, schedule, "parallel", graph=family, args=args,
                heuristic="manhattan" if program == "astar" else "")


#: This slice's cells; the generated matrix does not run them again.
CELLS = [_cell(*case, workers) for case in CASES for workers in WORKERS] + [
    Cell("kcore", Schedule(priority_update=strategy, num_threads=workers), "parallel")
    for strategy in ("lazy", "lazy_constant_sum")
    for workers in (2, 4, 8)
]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize(
    "program,strategy,family,args", CASES, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in CASES]
)
def test_parallel_matches_oracle(program, strategy, family, args, workers):
    cell = _cell(program, strategy, family, args, workers)
    oracle, parallel = check(cell)
    if program == "astar":
        inversions = [q.priority_inversions for q in oracle.context.queues]
        assert inversions[0] > 0
        assert inversions == [q.priority_inversions for q in parallel.context.queues]
    if program == "widest":
        # The library's widest path shares the Δ-stepping relaxer, so it
        # must honour execution="parallel" too (it used to stay serial).
        g = graph(family)
        serial = widest_path(g, 0, cell.schedule.with_(execution="serial"))
        threaded = widest_path(g, 0, cell.schedule)
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
def test_sanitized_parallel_matches_oracle(workers):
    schedule = Schedule(
        priority_update="eager_with_fusion", delta=3, num_threads=workers
    )
    _, sanitized = check(Cell("sssp", schedule, "sanitized-parallel"))
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
def test_lazy_round_and_relaxation_invariant(strategy, workers):
    schedule = Schedule(priority_update=strategy, num_threads=workers)
    oracle, parallel = check(Cell("kcore", schedule, "parallel"))
    assert oracle.stats.rounds == parallel.stats.rounds
    assert oracle.stats.relaxations == parallel.stats.relaxations
    assert oracle.stats.buffer_appends == parallel.stats.buffer_appends
    assert oracle.stats.dedup_hits == parallel.stats.dedup_hits
    assert oracle.stats.buffer_reductions == parallel.stats.buffer_reductions
    if workers > 1:
        assert parallel.stats.parallel_rounds > 0


# ----------------------------------------------------------------------
# Relaxed (Galois-style) strategy: approximate priority order, so the work
# differs from a strict strategy's — but the supported algorithms converge
# to a unique fixpoint, which must match the oracle.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (1, 2, 4, 8))
def test_relaxed_parallel_is_admissible_sssp(workers):
    weighted = graph("weighted")
    reference = sssp(weighted, 0, Schedule(delta=3, num_threads=workers))
    relaxed = sssp(
        weighted,
        0,
        Schedule(
            priority_update="relaxed",
            delta=3,
            num_threads=workers,
            execution="parallel",
        ),
    )
    assert np.array_equal(relaxed.distances, reference.distances)
    assert relaxed.stats.execution == "parallel"


@pytest.mark.parametrize("workers", (2, 4))
def test_relaxed_parallel_is_admissible_ppsp(workers):
    weighted = graph("weighted")
    reference = ppsp(weighted, 0, 99, Schedule(delta=3, num_threads=workers))
    relaxed = ppsp(
        weighted,
        0,
        99,
        Schedule(
            priority_update="relaxed",
            delta=3,
            num_threads=workers,
            execution="parallel",
        ),
    )
    # Point-to-point with relaxed ordering may do different amounts of
    # wasted work, but the target's distance is the unique shortest path.
    assert relaxed.distances[99] == reference.distances[99]
