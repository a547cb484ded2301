"""Slice of the oracle matrix (``tests/oracle_matrix.py``): incremental
recomputation along mutation histories.

Every test converges a session, applies mutation batches, and requires the
resumed vector to **bit-match the scalar oracle** run on a clean CSR
rebuilt from the mutated graph's edge list (:func:`check_history`), so an
overlay bug cannot hide by affecting the session and its oracle alike.

Coverage axes:

- algorithm x bucketing strategy (sssp / wbfs / widest-path / k-core
  under lazy / eager / relaxed / histogram strategies),
- mutation kind (insert, delete, weight moves in both directions, mixed),
- batch size (single mutation up to 16 per batch),
- adversarial shapes (self-loops, parallel edges, zero-weight edges,
  disconnecting deletions, mutations at the source).

The I001 eligibility gate (schedules requesting incremental resume on
non-extremal programs) is tested near the bottom, then native sessions:
a native cold run with interpreted resumes must equal a serial session.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.graph.mutations import Mutation, parse_mutation_script
from repro.incremental import IncrementalSession
from repro.lang.programs import ALL_PROGRAMS
from repro.midend.diagnostics import Severity
from repro.midend.lint import lint_program
from repro.midend.schedule import Schedule

from .oracle_matrix import HAS_CXX, check_history

# ---------------------------------------------------------------------------
# The strategy matrix: (algorithm, label) -> schedule
# ---------------------------------------------------------------------------

STRATEGIES: dict[tuple[str, str], Schedule] = {
    ("sssp", "lazy"): Schedule(priority_update="lazy", delta=3),
    ("sssp", "eager"): Schedule(priority_update="eager_no_fusion", delta=3),
    ("sssp", "relaxed"): Schedule(priority_update="relaxed", delta=3),
    ("wbfs", "lazy"): Schedule(priority_update="lazy", delta=1),
    ("wbfs", "eager"): Schedule(priority_update="eager_no_fusion", delta=1),
    ("widest_path", "lazy"): Schedule(priority_update="lazy", delta=8),
    ("widest_path", "fusion"): Schedule(priority_update="eager_with_fusion", delta=8),
    ("kcore", "lazy"): Schedule(priority_update="lazy", delta=1),
    ("kcore", "eager"): Schedule(priority_update="eager_no_fusion", delta=1),
    ("kcore", "histogram"): Schedule(priority_update="lazy_constant_sum", delta=1),
}

LAZY = Schedule(priority_update="lazy")


def make_graph(algorithm: str, seed: int = 3) -> CSRGraph:
    if algorithm == "kcore":
        return rmat(7, 8, seed=seed).symmetrized()
    if algorithm == "wbfs":
        return rmat(7, 8, seed=seed, weights=(1, 3))
    return rmat(7, 8, seed=seed, weights=(1, 9))


def history(algorithm: str, label: str, graph: CSRGraph, batches, also=()):
    schedule = STRATEGIES[(algorithm, label)]
    return check_history(algorithm, schedule, graph, batches, also=also)


def random_batches(rng, sizes, kinds, unit: bool):
    """Batches over live edges (remove / update) and random pairs (add),
    drawn from the session's graph as it is when each batch is asked for."""

    def draw(session):
        for size in sizes:
            sources, dests, weights = session.graph.edge_list()
            n = session.graph.num_vertices
            batch: list[Mutation] = []
            seen: set[tuple[int, int]] = set()
            while len(batch) < size:
                kind = kinds[int(rng.integers(len(kinds)))]
                if kind in ("add", "insert"):
                    weight = 1 if unit else int(rng.integers(1, 10))
                    batch.append(
                        Mutation("add", int(rng.integers(n)), int(rng.integers(n)), weight)
                    )
                    continue
                i = int(rng.integers(sources.size))
                src, dst = int(sources[i]), int(dests[i])
                if (src, dst) in seen or (unit and (dst, src) in seen):
                    continue
                seen.add((src, dst))
                if kind in ("remove", "delete"):
                    batch.append(Mutation("remove", src, dst))
                elif kind == "weight_up":
                    batch.append(Mutation("update", src, dst, int(weights[i]) + 3))
                elif kind == "weight_down":
                    batch.append(Mutation("update", src, dst, max(1, int(weights[i]) - 3)))
                else:
                    batch.append(Mutation("update", src, dst, int(rng.integers(1, 10))))
            yield batch

    return draw


def mixed_kinds(algorithm: str) -> tuple[str, ...]:
    return ("add", "remove") if algorithm == "kcore" else ("add", "remove", "update")


# ---------------------------------------------------------------------------
# 1. The full matrix: algorithm x strategy, mixed batches, growing sizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm,label", sorted(STRATEGIES), ids=lambda v: str(v))
def test_differential_matrix(algorithm: str, label: str) -> None:
    batches = random_batches(
        np.random.default_rng(11), (1, 4, 8, 16), mixed_kinds(algorithm), algorithm == "kcore"
    )
    _, results = history(algorithm, label, make_graph(algorithm), batches)
    assert len(results) == 4 and all(result.incremental for result in results)


# ---------------------------------------------------------------------------
# 2. Single-kind batches: inserts only, deletes only, weight moves each way
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["sssp", "wbfs", "widest_path", "kcore"])
@pytest.mark.parametrize("kind", ["insert", "delete", "weight_up", "weight_down"])
def test_single_mutation_kinds(algorithm: str, kind: str) -> None:
    if algorithm == "kcore" and kind.startswith("weight"):
        pytest.skip("k-core is weight-agnostic; update batches are no-ops")
    batches = random_batches(np.random.default_rng(23), (5,) * 4, (kind,), algorithm == "kcore")
    history(algorithm, "lazy", make_graph(algorithm, seed=5), batches)


# ---------------------------------------------------------------------------
# 3. The plain runner on the rebuilt graph: overlay bugs cannot hide
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["sssp", "wbfs", "widest_path", "kcore"])
def test_matches_plain_runner_on_rebuilt_graph(algorithm: str) -> None:
    batches = random_batches(
        np.random.default_rng(41), (6, 6, 6), mixed_kinds(algorithm), algorithm == "kcore"
    )
    history(algorithm, "lazy", make_graph(algorithm, seed=9), batches, also=("library",))


# ---------------------------------------------------------------------------
# 4. Adversarial shapes
# ---------------------------------------------------------------------------


class TestAdversarialShapes:
    def test_self_loops(self) -> None:
        graph = from_edges(6, [(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 4, 9), (4, 3, 1)])
        check_history("sssp", LAZY, graph, [
            [Mutation("add", 2, 2, 1)],  # self-loop insert
            [Mutation("update", 2, 2, 5)],
            [Mutation("remove", 2, 2)],
            [Mutation("add", 0, 0, 1), Mutation("remove", 0, 1)],
        ])

    def test_parallel_edges(self) -> None:
        # Duplicate copies of 1 -> 2; remove deletes *every* copy at once,
        # update rewrites every copy.
        graph = from_edges(5, [(0, 1, 1), (1, 2, 4), (1, 2, 7), (2, 3, 1), (0, 3, 9)])
        check_history("sssp", LAZY, graph, [
            [Mutation("add", 1, 2, 2)],  # third parallel copy, tighter
            [Mutation("update", 1, 2, 6)],  # all copies move to 6
            [Mutation("remove", 1, 2)],  # every copy disappears
        ])

    def test_zero_weight_edges(self) -> None:
        # A zero-weight cycle keeps both members mutually supported: the
        # invalidation cone must clear the whole cycle, not trust it.
        graph = from_edges(6, [(0, 1, 0), (1, 2, 0), (2, 1, 0), (2, 3, 1), (0, 3, 5)])
        check_history("sssp", LAZY, graph, [
            [Mutation("remove", 0, 1)],  # cycle loses outside support
            [Mutation("add", 0, 1, 0)],
            [Mutation("update", 0, 1, 2)],
        ])

    def test_disconnecting_mutation(self) -> None:
        # Removing the only bridge must drive the far side back to the
        # identity (unreachable), not leave stale finite values; then
        # reconnect through a different bridge.
        graph = from_edges(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        _, (cut, _) = check_history("sssp", LAZY, graph, [
            [Mutation("remove", 1, 2)],
            [Mutation("add", 0, 2, 7)],
        ])
        unreachable = cut.values[2]
        assert cut.values[3] == unreachable and cut.values[4] == unreachable

    def test_mutations_at_the_source(self) -> None:
        graph = from_edges(5, [(0, 1, 3), (1, 2, 3), (0, 2, 9), (3, 0, 2)])
        check_history("sssp", LAZY, graph, [
            [Mutation("add", 1, 0, 1)],  # edge back into the source
            [Mutation("remove", 0, 1)],  # source loses its tight edge
            [Mutation("add", 0, 1, 2), Mutation("update", 0, 2, 4)],
        ])

    def test_add_then_remove_in_one_batch(self) -> None:
        graph = from_edges(4, [(0, 1, 2), (1, 2, 2)])
        check_history("sssp", LAZY, graph, [[
            Mutation("add", 0, 3, 1),
            Mutation("remove", 0, 3),
            Mutation("add", 2, 3, 1),
        ]])

    @pytest.mark.parametrize("algorithm", ["sssp", "widest_path"])
    def test_improve_then_remove_in_one_batch(self, algorithm) -> None:
        # The values were converged on the pre-batch weight: after an
        # improving update, removing (or worsening) the same edge must
        # still invalidate its head.
        graph = from_edges(3, [(0, 1, 4), (1, 2, 4), (2, 0, 1)])
        better = 2 if algorithm == "sssp" else 9
        worse = 9 if algorithm == "sssp" else 2
        check_history(algorithm, LAZY, graph, [
            [Mutation("update", 0, 1, better), Mutation("remove", 0, 1)],
            [Mutation("add", 0, 1, 4)],
            [Mutation("update", 0, 1, better), Mutation("update", 0, 1, worse)],
        ])


# ---------------------------------------------------------------------------
# 5. Resume profile counters
# ---------------------------------------------------------------------------


def test_stats_counters_accumulate() -> None:
    graph = make_graph("sssp")
    batches = random_batches(np.random.default_rng(2), (8,), mixed_kinds("sssp"), False)
    _, (result,) = history("sssp", "lazy", graph, batches)
    stats = result.stats
    assert stats.incremental_runs == 1
    assert stats.incremental_mutations == 8
    assert stats.incremental_seeds == result.seeds
    assert stats.incremental_invalidated == result.invalidated
    assert stats.incremental_vertices_touched == result.vertices_touched
    assert 0 <= result.vertices_touched <= graph.num_vertices
    assert result.seeds <= graph.num_vertices


def test_empty_cone_is_a_noop_resume() -> None:
    """Worsening a slack (non-supporting) edge must not invalidate anyone."""
    graph = from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (0, 3, 9)])
    _, (result,) = check_history("sssp", LAZY, graph, [[Mutation("update", 0, 3, 10)]])
    assert result.invalidated == 0
    assert result.seeds == 0


# ---------------------------------------------------------------------------
# 6. Mutation scripts drive the same engine (the CLI path)
# ---------------------------------------------------------------------------


def test_mutation_script_batches() -> None:
    script = """
    # grow, then prune
    add 0 2 4
    add 2 3 1
    flush
    update 0 2 2
    flush
    remove 0 2
    """
    batches = parse_mutation_script(script)
    assert [len(b) for b in batches] == [2, 1, 1]
    graph = from_edges(5, [(0, 1, 1), (1, 2, 1), (3, 4, 2)])
    check_history("sssp", LAZY, graph, batches)


# ---------------------------------------------------------------------------
# 7. The I001 eligibility gate
# ---------------------------------------------------------------------------


class TestIncrementalEligibility:
    def test_sum_program_is_ineligible(self) -> None:
        """k-core's updatePrioritySum cannot seed a resume: I001."""
        diags = lint_program(
            ALL_PROGRAMS["kcore"], schedule=Schedule(incremental=True)
        )
        codes = {d.code for d in diags if d.severity is Severity.ERROR}
        assert "I001" in codes

    def test_extremal_program_is_eligible(self) -> None:
        diags = lint_program(
            ALL_PROGRAMS["sssp"],
            schedule=Schedule(priority_update="lazy", incremental=True),
        )
        assert not [d for d in diags if d.code == "I001"]

    def test_plan_rejects_ineligible_schedule(self) -> None:
        from repro.errors import IncrementalityError
        from repro.lang.parser import parse
        from repro.midend.transforms.lowering import plan_program

        with pytest.raises(IncrementalityError, match="not eligible"):
            plan_program(
                parse(ALL_PROGRAMS["kcore"]), Schedule(incremental=True)
            )

    def test_plan_carries_verdict_without_request(self) -> None:
        from repro.lang.parser import parse
        from repro.midend.analysis.effects import classify_incremental_eligibility
        from repro.midend.transforms.lowering import plan_program

        plan = plan_program(
            parse(ALL_PROGRAMS["kcore"]), Schedule(priority_update="lazy")
        )
        verdict = classify_incremental_eligibility(plan.facts)
        assert not verdict.eligible
        assert any("history" in reason for reason in verdict.reasons)

        plan = plan_program(
            parse(ALL_PROGRAMS["sssp"]),
            Schedule(priority_update="lazy", incremental=True),
        )
        verdict = classify_incremental_eligibility(plan.facts)
        assert verdict.eligible
        assert verdict.kind == "min"
        assert verdict.relaxation_shape == "dist_plus_weight"

    def test_native_execution_rejects_incremental(self) -> None:
        with pytest.raises(SchedulingError, match="native"):
            Schedule(execution="native", incremental=True)


# ---------------------------------------------------------------------------
# 8. Native sessions: a native cold run seeds interpreted resumes
# ---------------------------------------------------------------------------

NATIVE_CASES = {
    "sssp-lazy": ("sssp", Schedule(priority_update="lazy", delta=3), (1, 4)),
    "sssp-eager_with_fusion": (
        "sssp", Schedule(priority_update="eager_with_fusion", delta=3), (1, 4)
    ),
    "wbfs": ("wbfs", Schedule(priority_update="lazy", delta=1), (1, 4)),
    "widest": ("widest_path", Schedule(priority_update="lazy", delta=8), (1, 4)),
    # Zero weights: the kernel's width reads 0 where the interpreter keeps
    # its identity or a zero bottleneck, which the session re-derives.
    "widest-zero-weights": (
        "widest_path", Schedule(priority_update="lazy", delta=8), (0, 4)
    ),
}


def native_pair(case: str):
    """A serial session and its native twin over copies of one graph,
    driven through the stats golden's three-batch script."""
    from . import test_stats_golden as golden

    algorithm, schedule, weights = NATIVE_CASES[case]
    native = replace(schedule, execution="native", num_threads=1)
    sessions = [
        IncrementalSession(
            rmat(10, 16, seed=0, weights=weights), algorithm, golden.SOURCE, s
        )
        for s in (schedule, native)
    ]
    return sessions, parse_mutation_script(golden.MUTATION_SCRIPT)


def assert_same_state(serial: IncrementalSession, native: IncrementalSession) -> None:
    np.testing.assert_array_equal(native.values, serial.values)
    np.testing.assert_array_equal(native._values, serial._values)


@pytest.mark.skipif(not HAS_CXX, reason="no C++ toolchain")
@pytest.mark.parametrize("case", sorted(NATIVE_CASES))
def test_native_session_matches_serial(case: str) -> None:
    (serial, native), batches = native_pair(case)
    serial.run()
    native.run()
    assert native.execution == "native"
    assert_same_state(serial, native)
    for batch in batches:
        serial.apply(batch)
        native.apply(batch)
        assert native.execution == "serial"
        assert_same_state(serial, native)


def test_native_session_without_toolchain_falls_back(monkeypatch, capsys) -> None:
    """No compiler: the cold run takes the N101 fallback, once."""
    from repro.backend.native import reset_toolchain_cache
    from repro.backend.program import cached_program

    cached_program.cache_clear()  # no program remembers an earlier refusal
    reset_toolchain_cache()
    monkeypatch.setenv("REPRO_NATIVE_CXX", "/nonexistent/repro-no-cxx")
    try:
        for case in ("sssp-lazy", "widest-zero-weights"):
            (serial, native), batches = native_pair(case)
            serial.run()
            native.run()
            assert native.execution == "serial"
            assert_same_state(serial, native)
            for batch in batches:
                serial.apply(batch)
                native.apply(batch)
                assert_same_state(serial, native)
    finally:
        reset_toolchain_cache()
    assert capsys.readouterr().err.count("N101") == 2  # one per program
