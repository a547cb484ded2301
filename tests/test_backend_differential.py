"""Slice of the oracle matrix (``tests/oracle_matrix.py``): the standalone
C++ program vs the Python backend vs the scalar oracle.

Each strategy's C++ program is built with g++ once and then driven over a
family of random graphs at three OpenMP threads; its output, and the
vectorized Python backend's, must equal the scalar oracle on every input.
The two code generators share only the frontend and the plan.
"""

from dataclasses import replace

import pytest

from repro.graph import rmat, road_grid
from repro.midend import Schedule

from .oracle_matrix import Cell, check

pytestmark = pytest.mark.slow

SSSP_STRATEGIES = ("lazy", "eager_no_fusion", "eager_with_fusion")
KCORE_STRATEGIES = ("lazy", "lazy_constant_sum", "eager_no_fusion")


def check_both(cell, graphs):
    for g in graphs:
        check(cell, g)
        check(replace(cell, execution="vectorized"), g)


@pytest.mark.parametrize("strategy", SSSP_STRATEGIES)
def test_sssp_differential_fuzz(strategy):
    schedule = Schedule(priority_update=strategy, delta=8, num_threads=3)
    check_both(
        Cell("sssp", schedule, "cpp", args=("hub",)),
        (rmat(7, 6, seed=seed) for seed in range(6)),
    )


@pytest.mark.parametrize("strategy", KCORE_STRATEGIES)
def test_kcore_differential_fuzz(strategy):
    check_both(
        Cell("kcore", Schedule(priority_update=strategy, num_threads=3), "cpp"),
        (rmat(6, 6, seed=100 + seed).symmetrized() for seed in range(6)),
    )


def test_ppsp_differential_on_roads():
    schedule = Schedule(priority_update="eager_with_fusion", delta=256, num_threads=3)
    check_both(
        Cell("ppsp", schedule, "cpp", args=("0", "last")),
        (road_grid(9, 11, seed=seed) for seed in range(4)),
    )
