"""Golden deterministic counters: the paper's Table 6/7 quantities, pinned.

Every counter in ``RuntimeStats.deterministic_dict()`` (rounds, global
syncs, relaxations, priority updates, bucket inserts, per-round frontier
shape, ...) is a pure function of (program, schedule, graph), so it is
pinned exactly under ``tests/goldens/stats/`` — no clock is read, and a
counter that drifts by one fails.  A drift means the *behaviour* of the
compiler or runtime changed, not the machine; timing lives in
``bench/run.py``.

Four things are pinned on ``rmat(10, 16, seed=0, weights=(1, 4))``:

- the serial vectorized run of each compiled cell (SSSP lazy, SSSP eager
  with fusion, k-core lazy constant-sum) — for SSSP these are the
  library's counters, one priority update per vertex improved in a chunk;
- the ``vectorize=False`` run of the same cell under ``"scalar"``: the
  scalar interpreter's per-edge counters are its own, and stay pinned
  (k-core's sum kernels are still scalar-exact, so there the two agree);
- that the real-thread engine at 2 workers reproduces the serial dict bit
  for bit, plus its own ``parallel_rounds`` / ``barrier_waits``;
- the resume profile (seeds, invalidated, vertices touched, and the rest
  of the resumed run's counters) of an incremental SSSP session after
  each batch of one fixed mutation script.

Regenerate after an intentional runtime change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_stats_golden.py
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import Schedule, compile_program
from repro.graph import rmat
from repro.graph.mutations import parse_mutation_script
from repro.incremental import IncrementalSession
from repro.lang.programs import ALL_PROGRAMS

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "stats"

# name -> (program, schedule, needs a symmetric graph)
CELLS = {
    "sssp_lazy": (
        "sssp", Schedule(priority_update="lazy", delta=3, num_threads=2), False
    ),
    "sssp_eager_with_fusion": (
        "sssp",
        Schedule(priority_update="eager_with_fusion", delta=3, num_threads=2),
        False,
    ),
    "kcore_lazy_constant_sum": (
        "kcore",
        Schedule(priority_update="lazy_constant_sum", num_threads=2),
        True,
    ),
}

# Vertex 104 is the max-out-degree vertex of the graph below; the edges
# named here exist in it (a ``remove``/``update`` of a missing edge raises).
SOURCE = 104
MUTATION_SCRIPT = """\
# worsening: cut two shortest-path-tree edges at the source, raise a third
remove 104 0
remove 104 87
update 104 18 4
flush
# improving: shortcuts to the farthest vertices, reach an unreached one
add 104 88 1
add 104 5 2
add 470 3 1
flush
# mixed
remove 104 43
update 104 187 1
add 739 104 1
add 104 0 3
"""


def make_graph():
    return rmat(10, 16, seed=0, weights=(1, 4))


def check_golden(name: str, document: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    assert path.exists(), (
        f"missing golden {path}; run with REPRO_REGEN_GOLDENS=1 to create it"
    )
    golden = json.loads(path.read_text())
    assert document == golden, (
        f"deterministic counters for {name} drifted from the golden; if "
        "the change is intentional regenerate with REPRO_REGEN_GOLDENS=1"
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_compiled_cell_counters_match_golden(cell: str) -> None:
    program_name, schedule, symmetric = CELLS[cell]
    graph = make_graph()
    assert int(np.argmax(graph.out_degrees())) == SOURCE
    argv = ["golden", "-"] if program_name == "kcore" else ["golden", "-", str(SOURCE)]
    if symmetric:
        graph = graph.symmetrized()

    def run(execution: str, vectorize: bool = True):
        program = compile_program(
            ALL_PROGRAMS[program_name], schedule.with_(execution=execution)
        )
        return program.run(argv, graph=graph, vectorize=vectorize).stats

    serial = run("serial").deterministic_dict()
    scalar = run("serial", vectorize=False).deterministic_dict()
    assert (scalar == serial) == (program_name == "kcore")
    parallel = run("parallel")
    assert parallel.deterministic_dict() == serial, (
        f"{cell}: the 2-worker parallel engine diverged from the serial "
        "run on a deterministic counter"
    )
    assert parallel.parallel_rounds > 0, "the parallel engine never engaged"
    check_golden(
        cell,
        {
            "serial": serial,
            "scalar": scalar,
            "parallel": {
                "parallel_rounds": parallel.parallel_rounds,
                "barrier_waits": parallel.barrier_waits,
            },
        },
    )


def test_incremental_resume_counters_match_golden() -> None:
    session = IncrementalSession(
        make_graph(),
        "sssp",
        source=SOURCE,
        schedule=Schedule(priority_update="lazy", delta=3),
    )
    document = {"initial": session.run().stats.deterministic_dict()}
    batches = parse_mutation_script(MUTATION_SCRIPT)
    assert len(batches) == 3
    for index, batch in enumerate(batches):
        result = session.apply(batch)
        stats = result.stats.deterministic_dict()
        assert (
            stats["incremental_seeds"],
            stats["incremental_invalidated"],
            stats["incremental_vertices_touched"],
        ) == (result.seeds, result.invalidated, result.vertices_touched)
        assert result.vertices_touched > 0, f"batch {index} resumed nothing"
        document[f"batch_{index}"] = stats
    check_golden("incremental_sssp", document)


def test_no_stale_goldens() -> None:
    expected = set(CELLS) | {"incremental_sssp"}
    stale = [p.name for p in GOLDEN_DIR.glob("*.json") if p.stem not in expected]
    assert not stale, f"goldens without a matching case: {stale}"
