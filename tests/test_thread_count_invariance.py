"""The interpreter runs one chunk per round, whatever the thread knobs say.

``num_threads``, ``parallelization`` and ``chunk_size`` only move the cost
model's split of each relax call's work (``max_work_per_round``): every
output and every other deterministic counter is the same under all of
them.  A spy on the batch-kernel entry points pins the structure itself —
one kernel call per round plus one per fused run — so a frontier can
never again be dealt into per-thread chunks.
"""

import itertools

import numpy as np
import pytest

from repro import Schedule, compile_program
from repro.backend import runtime_support
from repro.backend.runtime_support import Context
from repro.graph import rmat, road_grid
from repro.lang.programs import ALL_PROGRAMS
from repro.runtime import PARALLELIZATION_POLICIES

GRAPHS = {
    "rmat": lambda: rmat(10, 16, seed=0, weights=(1, 4)),
    "road": lambda: road_grid(20, 20, seed=3),
}

# name -> (program, output vector, schedule fields)
CELLS = {
    "sssp_lazy": ("sssp", "dist", dict(priority_update="lazy", delta=3)),
    "sssp_eager_with_fusion": (
        "sssp",
        "dist",
        dict(priority_update="eager_with_fusion", delta=3),
    ),
    "kcore": ("kcore", "D", dict(priority_update="lazy_constant_sum")),
}

# What the cost model's split may move.
COST_MODEL_FIELDS = ("num_threads", "max_work_per_round")


def run_counted(monkeypatch, cell, graph, num_threads, policy):
    """Run ``cell`` serially; return (output, stats, kernel calls)."""
    program, vector, fields = CELLS[cell]
    calls = []
    if program == "kcore":
        graph = graph.symmetrized()
        argv = ["t", "-"]
        original = runtime_support.histogram_counts

        def spy(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(runtime_support, "histogram_counts", spy)
    else:
        argv = ["t", "-", str(int(np.argmax(graph.out_degrees())))]
        original = Context._dispatch_stream

        def spy(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(Context, "_dispatch_stream", spy)
    schedule = Schedule(
        num_threads=num_threads, parallelization=policy, execution="serial", **fields
    )
    result = compile_program(ALL_PROGRAMS[program], schedule).run(argv, graph=graph)
    monkeypatch.undo()
    return result.globals[vector].copy(), result.stats, len(calls)


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_thread_knobs_change_only_the_cost_split(monkeypatch, cell, family):
    graph = GRAPHS[family]()
    baseline = None
    for num_threads, policy in itertools.product((1, 2, 8), PARALLELIZATION_POLICIES):
        output, stats, calls = run_counted(monkeypatch, cell, graph, num_threads, policy)
        assert stats.rounds > 0
        assert calls == stats.rounds + stats.fused_rounds, (
            f"{cell} on {family} at {num_threads} threads ({policy}): "
            f"{calls} kernel calls for {stats.rounds} rounds + "
            f"{stats.fused_rounds} fused runs"
        )
        counters = stats.deterministic_dict()
        for name in COST_MODEL_FIELDS:
            counters.pop(name)
        if baseline is None:
            baseline = (output, counters)
            continue
        np.testing.assert_array_equal(output, baseline[0])
        assert counters == baseline[1], (
            f"{cell} on {family}: {num_threads} threads ({policy}) moved a counter"
        )
