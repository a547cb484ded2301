"""Slice of the oracle matrix (``tests/oracle_matrix.py``): adversarial
and randomized stress for the parallel engine.

Three layers of defense:

1. **Adversarial topologies** — stars (one giant frontier chunk vs many
   empty ones), chains (every frontier is a single vertex, so every round
   takes the engine's single-chunk fast path), duplicate-heavy multigraphs
   (the same destination hammered from one chunk), and zero-weight edges
   (same-bucket cascades) — each checked bit-identical (outputs against
   the scalar oracle, counters against the serial vectorized run) at
   several worker counts.

2. **Property-based fuzz** (hypothesis, derandomized for CI stability):
   arbitrary small multigraphs under arbitrary strategy/worker
   combinations must stay bit-identical to the oracle.

3. **Race-injection regression** — the R-family race analysis must keep
   catching an unguarded shared write when the schedule actually requests
   real parallel execution, end to end through ``lint_program``, and the
   generated Python must pin its execution mode via
   ``ctx.declare_execution``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.program import compile_program
from repro.graph.builder import from_edges
from repro.lang.programs import ALL_PROGRAMS
from repro.midend.diagnostics import Severity
from repro.midend.lint import lint_program
from repro.midend.schedule import Schedule

from .oracle_matrix import Cell, check

pytestmark = pytest.mark.slow


def check_sssp(family, strategy, delta, workers, g=None):
    """Outputs against the scalar oracle, counters against the serial
    vectorized run (both inside :func:`check`)."""
    schedule = Schedule(priority_update=strategy, delta=delta, num_threads=workers)
    return check(Cell("sssp", schedule, "parallel", graph=family), g)


# ----------------------------------------------------------------------
# 1. Adversarial topologies
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (2, 4, 8))
@pytest.mark.parametrize("strategy", ("lazy", "eager_with_fusion"))
class TestAdversarialTopologies:
    def test_star(self, strategy, workers):
        """One hub, hundreds of leaves: the first round is one giant
        frontier, every later round is empty-ish."""
        check_sssp("star", strategy, 2, workers)

    def test_chain(self, strategy, workers):
        """A directed path: every frontier is exactly one vertex.  A round
        is one chunk whatever its size, so each round is one barrier on
        the worker thread; fused runs, gathered on the coordinator, add
        none."""
        _, parallel = check_sssp("chain", strategy, 4, workers)
        assert parallel.stats.parallel_rounds == parallel.stats.rounds

    def test_duplicate_heavy_multigraph(self, strategy, workers):
        """Many parallel edges between the same endpoints: one commit sees
        the same destination dozens of times, stressing the dedup/ordering
        guarantees of the batch relaxation."""
        check_sssp("multigraph", strategy, 1, workers)

    def test_zero_weight_edges(self, strategy, workers):
        """Zero-weight edges keep relaxed vertices inside the current
        bucket — the same-priority cascade where eager fusion churns."""
        check_sssp("zero_weight", strategy, 2, workers)


# ----------------------------------------------------------------------
# 2. Property-based fuzz (derandomized: same cases on every run)
# ----------------------------------------------------------------------

_edges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.integers(min_value=0, max_value=23),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=80,
)


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edges=_edges_strategy,
    strategy=st.sampled_from(("lazy", "eager_no_fusion", "eager_with_fusion")),
    workers=st.sampled_from((2, 4, 8)),
    delta=st.sampled_from((1, 3)),
)
def test_fuzz_parallel_matches_oracle(edges, strategy, workers, delta):
    graph = from_edges(24, [(u, v, w) for u, v, w in edges if u != v])
    if graph.num_edges == 0:
        return
    check_sssp("", strategy, delta, workers, graph)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    workers=st.sampled_from((2, 4)),
)
def test_fuzz_kcore_constant_sum(seed, workers):
    """Random symmetric graphs through the histogram (constant-sum) path."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 30))
    m = int(rng.integers(n, 4 * n))
    edges = [
        (int(u), int(v))
        for u, v in zip(rng.integers(0, n, m), rng.integers(0, n, m))
        if u != v
    ]
    if not edges:
        return
    schedule = Schedule(priority_update="lazy_constant_sum", num_threads=workers)
    check(Cell("kcore", schedule, "parallel"), from_edges(n, edges).symmetrized())


# ----------------------------------------------------------------------
# 3. Race-injection regression (R-family, end to end)
# ----------------------------------------------------------------------

RACY_SSSP = ALL_PROGRAMS["sssp"].replace(
    "    pq.updatePriorityMin(dst, dist[dst], new_dist);",
    "    dist[dst] = new_dist;\n"
    "    pq.updatePriorityMin(dst, dist[dst], new_dist);",
)
assert RACY_SSSP != ALL_PROGRAMS["sssp"]


class TestInjectedRaceIsCaught:
    def test_r001_under_parallel_schedule(self):
        """The injected unguarded shared write must be flagged R001 when the
        schedule requests the real-thread engine."""
        schedule = Schedule(
            priority_update="eager_with_fusion",
            delta=3,
            num_threads=4,
            execution="parallel",
        )
        diags = lint_program(RACY_SSSP, schedule=schedule, filename="racy.gt")
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert [d.code for d in errors] == ["R001"]

    def test_clean_program_stays_clean_under_parallel_schedule(self):
        schedule = Schedule(
            priority_update="lazy", num_threads=4, execution="parallel"
        )
        assert lint_program(ALL_PROGRAMS["sssp"], schedule=schedule) == []

    def test_generated_python_pins_execution_mode(self):
        """End to end: the Python backend must bake the schedule's execution
        mode into the generated program so a run can never silently use the
        wrong engine."""
        program = compile_program(
            ALL_PROGRAMS["sssp"],
            Schedule(priority_update="lazy", num_threads=4, execution="parallel"),
        )
        assert "ctx.declare_execution('parallel')" in program.source_text
