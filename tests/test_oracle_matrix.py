"""The generated oracle matrix and its metamorphic checks.

Every cell of :func:`tests.oracle_matrix.generate` (program × one-knob
schedule sweep × vectorized / parallel / native) must be bit-exact against
the scalar oracle; a cell the native, parallel or vectorized slice already
runs (same program, execution and schedule) is left to that slice.  The
metamorphic checks pin what makes one oracle per cell enough: a schedule
never changes a program's answer, every Δ reaches the unordered fixpoint,
and the oracle itself agrees with the independent reference
implementations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.midend import Schedule

from . import test_native_differential, test_parallel_differential, test_vectorize_differential
from .oracle_matrix import (
    DOMAINS,
    EXECUTIONS,
    GENERATED_EXECUTIONS,
    PROGRAMS,
    REFERENCES,
    Cell,
    cell_argv,
    check,
    coverage,
    generate,
    graph,
    oracle,
    oracle_run,
)

pytestmark = pytest.mark.slow

CELLS = generate()

#: Cells a slice already runs, on the slice's own graph: the matrix leaves
#: them to the slice, so no program × schedule × execution point runs twice.
SLICED = {
    cell.key
    for slice_ in (test_native_differential, test_parallel_differential,
                   test_vectorize_differential)
    for cell in slice_.CELLS
}


@pytest.mark.parametrize(
    "cell", [c for c in CELLS if c.key not in SLICED], ids=lambda cell: cell.id
)
def test_cell_matches_scalar_oracle(cell):
    check(cell)


def test_every_schedule_field_has_a_domain():
    """A new Schedule knob must say which values the matrix sweeps."""
    assert set(DOMAINS) == {f.name for f in dataclasses.fields(Schedule)}


def test_generated_cells_cover_every_value():
    """Every value of every knob runs somewhere (here or in a slice);
    ``incremental`` is the mutation axis (``check_history``), not a
    generated schedule."""
    seen = coverage(CELLS)
    seen["sanitize"] |= {e.get("sanitize", False) for e in EXECUTIONS.values()}
    for name, values in DOMAINS.items():
        if name != "incremental":
            assert set(values) <= seen[name], name
    assert {c.execution for c in CELLS} == set(GENERATED_EXECUTIONS)
    assert SLICED & {c.key for c in CELLS}, "no slice shares a cell: SLICED is stale"


def _answer(cell: Cell) -> np.ndarray:
    """What a schedule must not change: the whole output vector, or for a
    point-to-point program (PPSP, A*: early exit) its target's distance."""
    dist = oracle(cell).globals[PROGRAMS[cell.program].vector]
    if len(cell.args) == 2:
        return dist[int(cell_argv(cell, graph(cell.graph))[3])]
    return dist


@pytest.mark.parametrize("program", sorted({c.program for c in CELLS}))
def test_schedules_never_change_answers(program):
    """All oracles of one program agree, so fusion, coarsening, bucket
    count, direction, policy and thread count never change its answer."""
    cells = [c for c in CELLS if c.program == program and c.execution == "vectorized"]
    first = _answer(cells[0])
    for cell in cells[1:]:
        np.testing.assert_array_equal(_answer(cell), first, err_msg=cell.id)


@pytest.mark.parametrize("family", ["weighted", "road", "zero_weight", "extreme"])
@pytest.mark.parametrize("delta", [1, 2, 7, 64, 1 << 40])
def test_ordered_equals_unordered_fixpoint(family, delta):
    """Δ-stepping at every Δ reaches Bellman-Ford's unordered fixpoint."""
    schedule = Schedule(priority_update="lazy", delta=delta)
    ordered = oracle(Cell("sssp", schedule, graph=family)).globals["dist"]
    unordered = oracle(Cell("bellman_ford", Schedule(), graph=family)).globals["dist"]
    np.testing.assert_array_equal(ordered, unordered)


@pytest.mark.parametrize("family", ["weighted", "heavy", "road", "zero_weight", "extreme"])
def test_oracle_matches_reference_implementations(family):
    """Every oracle run is checked against the program's reference
    implementation (inside ``oracle_run``); here on every weighted family."""
    for program in ("sssp", "widest"):
        oracle_run(Cell(program, Schedule(priority_update="lazy", delta=2), graph=family))


def test_an_oracle_off_the_reference_fails(monkeypatch):
    """The anchor is live: an oracle that disagrees with Dijkstra fails."""
    name, dijkstra = REFERENCES["sssp"]
    monkeypatch.setitem(REFERENCES, "sssp", (name, lambda g, points: dijkstra(g, points) + 1))
    with pytest.raises(AssertionError, match="reference"):
        oracle_run(Cell("sssp", Schedule(priority_update="lazy", delta=2)))


EXTREME = [
    Cell(program, Schedule(priority_update=strategy, delta=delta), execution, graph="extreme",
         args=("0", "5") if program == "ppsp" else ("0",))
    for program in ("sssp", "ppsp", "widest")
    for strategy, delta in (("lazy", 1), ("eager_with_fusion", 1 << 57))
    for execution in ("vectorized", "parallel", "native", "cpp")
]


@pytest.mark.parametrize("cell", EXTREME, ids=lambda cell: cell.id)
def test_weights_near_the_sentinels(cell):
    """Distances up to 2**61 and widths above the source's 2**40 stay exact
    on every execution: no int64 sum or bucket order wraps near kIntMax
    (min programs) or kNullHigher (widest)."""
    check(cell)


SANITIZED = [
    Cell("sssp", Schedule(priority_update="eager_with_fusion", delta=3, num_threads=2), "cpp-asan"),
    Cell("sssp", Schedule(priority_update="lazy", delta=3, num_threads=1), "cpp-asan"),
    Cell("ppsp", Schedule(priority_update="lazy", delta=4, num_threads=2), "cpp-asan"),
    Cell("widest", Schedule(priority_update="eager_no_fusion", delta=2, num_threads=2), "cpp-asan"),
    Cell("kcore", Schedule(priority_update="lazy_constant_sum", num_threads=2), "cpp-asan"),
    Cell("kcore", Schedule(priority_update="lazy", num_threads=1), "cpp-asan"),
    # The run-stamped transpose statics of the pull direction.
    Cell("sssp", Schedule(priority_update="lazy", delta=3, direction="DensePull",
                          num_threads=2), "cpp-asan"),
    # The prebinning of the all-vertices queue form.
    Cell("kcore", Schedule(priority_update="eager_no_fusion", num_threads=2), "cpp-asan"),
    # The map bins of higher_first under fusion.
    Cell("widest", Schedule(priority_update="eager_with_fusion", delta=2, num_threads=2),
         "cpp-asan"),
]


@pytest.mark.parametrize("cell", SANITIZED, ids=lambda cell: cell.id)
def test_cpp_under_address_and_undefined_sanitizers(cell):
    """The emitted C++ — the shipped native kernel plus the standalone
    driver — runs clean under ASan + UBSan (any report aborts the binary)
    in both kernel modes, and still matches the oracle."""
    check(cell)
