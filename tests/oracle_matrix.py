"""One oracle matrix behind every differential suite.

The paper's contract is that a schedule changes speed and never answers.
A :class:`Cell` is one point of program × schedule × execution × graph
family; :func:`check` runs it and asserts its output vectors bit-exact
against the **scalar oracle**: the same program at the same schedule, run
serially by the ``vectorize=False`` interpreter.  Every oracle run is in
turn checked against the program's reference implementation
(:data:`REFERENCES`: Dijkstra, the widest-path heap, peeling), so a bug
the oracle shares with the cell still fails.  :func:`check_history`
adds the fifth axis, a mutation history: after every batch an
:class:`~repro.incremental.IncrementalSession` must equal the scalar oracle
on a clean CSR rebuilt from the mutated graph's edge list.

The schedule axis is generated, not listed.  :data:`DOMAINS` gives every
:class:`~repro.midend.Schedule` field its values, taking the enumerated
ones from the module that validates them, and :func:`generate` varies one
knob at a time around each strategy the compiler accepts for a program,
skipping a knob that lint rule S002 calls dead under the cell's schedule.
A new strategy, direction, policy or execution mode is therefore covered
without touching a test, and a deleted one loses its cells by deletion.

``test_oracle_matrix.py`` runs the generated cells; the older suites
(``test_*_differential.py``, ``test_parallel_stress.py``,
``test_property_based.py``, ``test_incremental_fuzz.py`` and the
differential classes of ``test_cpp_backend.py``, ``test_sanitizer.py`` and
``test_diagnostics.py``) are named slices that call :func:`check` /
:func:`check_history` with hand-picked cells.  The native, parallel and
vectorized slices list theirs in ``CELLS``; a generated cell with the same
:attr:`Cell.key` is left to the slice.
``python -m tests.oracle_matrix [--cells]`` prints the generated matrix.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import dijkstra_reference, kcore_reference
from repro.algorithms.widest_path import widest_path_reference
from repro.backend import compile_program
from repro.backend.extern_library import astar_externs
from repro.backend.native.runner import generate_for_plan
from repro.errors import GraphItError
from repro.graph import from_edges, rmat, road_grid, save_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import path_graph, star_graph
from repro.incremental import IncrementalSession
from repro.lang import ALL_PROGRAMS
from repro.lang.parser import parse
from repro.midend import Schedule
from repro.midend.diagnostics import _dead_knob_rules
from repro.midend.schedule import (
    EXECUTION_MODES,
    PRIORITY_UPDATE_STRATEGIES,
    TRAVERSAL_DIRECTIONS,
)
from repro.midend.transforms.lowering import plan_program
from repro.runtime.threads import PARALLELIZATION_POLICIES

HAS_CXX = any(shutil.which(c) for c in ("g++", "clang++", "c++"))
GXX = shutil.which("g++")

# ---------------------------------------------------------------------------
# Axis 1: schedules, generated from Schedule's fields
# ---------------------------------------------------------------------------

#: Every :class:`Schedule` field and the values the matrix sweeps.
#: Enumerated knobs take their whole domain; numeric knobs take values
#: that change code shape: Δ above every weight, one lazy bucket, a fusion
#: threshold of one, one thread.
DOMAINS: dict[str, tuple] = {
    "priority_update": PRIORITY_UPDATE_STRATEGIES,
    "delta": (1, 3, 64),
    "bucket_fusion_threshold": (1, 1000),
    "num_buckets": (1, 128),
    "direction": TRAVERSAL_DIRECTIONS,
    "parallelization": PARALLELIZATION_POLICIES,
    "num_threads": (1, 2, 8),
    "chunk_size": (1, 64),
    "execution": EXECUTION_MODES,
    "sanitize": (False, True),
    "incremental": (False, True),
}

#: The base of the one-knob-at-a-time sweep: Schedule's defaults, except a
#: Δ that coarsens and two threads (both kernel modes stay one knob away).
BASE = dict(
    {f.name: f.default for f in dataclasses.fields(Schedule)}, delta=3, num_threads=2
)

#: Fields that select *how* a cell runs; the execution axis sets them.
_EXECUTION_FIELDS = ("execution", "sanitize", "incremental")

#: The execution axis: name -> the Schedule fields it sets.  ``cpp`` is the
#: standalone C++ program (the native kernel plus its driver) built with g++
#: and run at ``num_threads`` OpenMP threads (``cpp-asan`` with ASan + UBSan),
#: ``library`` the hand-written entry points (``repro.sssp`` ...).
EXECUTIONS: dict[str, dict] = {
    "vectorized": dict(execution="serial"),
    "parallel": dict(execution="parallel"),
    "native": dict(execution="native"),
    "sanitized": dict(execution="serial", sanitize=True),
    "sanitized-parallel": dict(execution="parallel", sanitize=True),
    "cpp": dict(execution="serial"),
    "cpp-asan": dict(execution="serial"),
    "library": dict(execution="serial"),
}

#: Executions :func:`generate` sweeps the whole schedule axis under.
GENERATED_EXECUTIONS = ("vectorized", "parallel", "native")

# ---------------------------------------------------------------------------
# Axis 2: graph families
# ---------------------------------------------------------------------------


def _multigraph() -> CSRGraph:
    """Every ordered pair of 8 vertices joined five times (weights 1-3)."""
    return from_edges(
        8,
        [(u, v, w) for u in range(8) for v in range(8) if u != v for w in (1, 1, 2, 2, 3)],
    )


def _zero_weight() -> CSRGraph:
    """A zero-weight chain plus a weight-2 scramble: same-bucket cascades."""
    edges = [(v, v + 1, 0) for v in range(30)]
    edges += [(v, (v * 7 + 3) % 31, 2) for v in range(31)]
    return from_edges(31, edges)


def _extreme() -> CSRGraph:
    """Weights near the sentinels: distances reach 2**61 and widths pass the
    source width 2**40, so every int64 sum and bucket order is far from 0."""
    big = 1 << 58
    return from_edges(
        6,
        [(0, 1, big), (1, 2, big), (0, 2, 3 * big), (2, 3, big), (3, 4, big),
         (1, 4, 1 << 59), (4, 5, 1), (0, 5, (1 << 61) - 1)],
    )


GRAPHS = {
    "weighted": lambda: rmat(8, 8, seed=3, weights=(1, 4)),
    "heavy": lambda: rmat(8, 8, seed=3),
    "unweighted": lambda: rmat(8, 8, seed=3, weights=None),
    "symmetric": lambda: rmat(8, 8, seed=3, weights=None).symmetrized(),
    "road": lambda: road_grid(12, 12, seed=5),
    "social": lambda: rmat(10, 16, seed=3, weights=(1, 4)),
    "social_symmetric": lambda: rmat(10, 16, seed=3, weights=(1, 4)).symmetrized(),
    "star": lambda: star_graph(257, weight=2, symmetric=True),
    "chain": lambda: path_graph(96, weight=3),
    "multigraph": _multigraph,
    "zero_weight": _zero_weight,
    "extreme": _extreme,
}


@functools.lru_cache(maxsize=None)
def graph(family: str) -> CSRGraph:
    return GRAPHS[family]()


# ---------------------------------------------------------------------------
# Axis 3: programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProgramSpec:
    graph: str
    args: tuple[str, ...]
    vector: str
    fixed: tuple = ()  # Schedule fields the program pins (wBFS: Δ = 1)


#: The ordered programs and their default graph family and arguments.
#: ``hub`` is the highest out-degree vertex, ``last`` the highest id.
PROGRAMS = {
    "sssp": ProgramSpec("weighted", ("0",), "dist"),
    "wbfs": ProgramSpec("unweighted", ("0",), "dist", (("delta", 1),)),
    "ppsp": ProgramSpec("weighted", ("0", "99"), "dist"),
    "widest": ProgramSpec("weighted", ("0",), "width"),
    "astar": ProgramSpec("road", ("0", "last"), "dist"),
    "kcore": ProgramSpec("symmetric", (), "D", (("delta", 1),)),
}


def _manhattan(scale: int):
    """``scale`` × the Manhattan distance: not admissible on the road grid's
    diagonals, and wildly inconsistent at 3, so A* runs invert priorities."""

    def compute(ctx, target):
        coords = ctx.globals["edges"].coordinates
        d = np.abs(coords - coords[int(target)]).sum(axis=1)
        ctx.globals["h"][:] = (scale * d).astype(np.int64)

    return compute


#: A* heuristics by name; a cell names one so its oracle can be cached.
HEURISTICS = {
    "euclidean": lambda: astar_externs(),
    "manhattan": lambda: {"computeHeuristic": _manhattan(1)},
    "manhattan3": lambda: {"computeHeuristic": _manhattan(3)},
}

#: The library entry point behind each program (the ``library`` execution).
LIBRARY = {
    "sssp": lambda g, points, s: repro.sssp(g, *points, s).distances,
    "wbfs": lambda g, points, s: repro.wbfs(g, *points, s).distances,
    "ppsp": lambda g, points, s: repro.ppsp(g, *points, s).distances,
    "widest": lambda g, points, s: repro.widest_path(g, *points, s).distances,
    "astar": lambda g, points, s: repro.astar(g, *points, s).distances,
    "kcore": lambda g, points, s: repro.kcore(g, s).coreness,
}

# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One point of the matrix.  ``graph`` and ``args`` default to the
    program's; ``heuristic`` names an A* extern (default ``euclidean``)."""

    program: str
    schedule: Schedule
    execution: str = "vectorized"
    graph: str = ""
    args: tuple[str, ...] | None = None
    heuristic: str = ""

    def __post_init__(self) -> None:
        spec = PROGRAMS.get(self.program)
        if not self.graph:
            object.__setattr__(self, "graph", spec.graph if spec else "weighted")
        if self.args is None:
            object.__setattr__(self, "args", spec.args if spec else ("0",))
        if self.program == "astar" and not self.heuristic:
            object.__setattr__(self, "heuristic", "euclidean")
        fields = {"sanitize": False, "incremental": False, **EXECUTIONS[self.execution]}
        object.__setattr__(self, "schedule", self.schedule.with_(**fields))

    @property
    def id(self) -> str:
        changed = [
            f"{f.name}={getattr(self.schedule, f.name)}"
            for f in dataclasses.fields(Schedule)
            if f.name not in _EXECUTION_FIELDS
            and getattr(self.schedule, f.name) != f.default
        ]
        return "-".join([self.program, self.execution, self.graph, *changed])

    @property
    def key(self) -> tuple:
        """The cell without its graph and arguments: cells with one key run
        the same compiled code (natively, the same kernel)."""
        return (self.program, self.execution, self.schedule, self.heuristic)


def cell_argv(cell: Cell, g: CSRGraph) -> list[str]:
    """The program's argv for ``cell`` on ``g``, with vertex tokens resolved."""
    tokens = {
        "hub": str(int(np.argmax(g.out_degrees())) if g.num_vertices else 0),
        "last": str(g.num_vertices - 1),
    }
    return ["prog", "-", *(tokens.get(t, t) for t in cell.args)]


def _externs(cell: Cell):
    return HEURISTICS[cell.heuristic]() if cell.heuristic else None


@functools.lru_cache(maxsize=512)
def compiled(program: str, schedule: Schedule):
    return compile_program(ALL_PROGRAMS[program], schedule)


def vectors(globals_: dict) -> dict[str, np.ndarray]:
    return {k: v for k, v in globals_.items() if isinstance(v, np.ndarray)}


_DIJKSTRA = ("dist", lambda g, points: dijkstra_reference(g, points[0]))

#: Independent sequential answers: program -> (output vector, reference on
#: (graph, vertex arguments)).  A* has none: an inadmissible heuristic
#: changes its answer.
REFERENCES = {
    "sssp": _DIJKSTRA,
    "wbfs": _DIJKSTRA,
    "ppsp": _DIJKSTRA,
    "bellman_ford": _DIJKSTRA,
    "widest": ("width", lambda g, points: widest_path_reference(g, points[0])),
    "kcore": ("D", lambda g, points: kcore_reference(g)),
}


def assert_reference(cell: Cell, g: CSRGraph, globals_: dict) -> None:
    """The oracle's answer equals the program's reference implementation
    (Dijkstra, the widest-path heap, Matula-Beck peeling), which shares no
    code with the compiler or the runtime.  A point-to-point program is
    compared at its target (early exit leaves the rest unfinished); a
    negative weight leaves Dijkstra's regime, so such a graph is checked
    against the scalar oracle only."""
    if cell.program not in REFERENCES or (g.num_edges and g.weights.min() < 0):
        return
    name, reference = REFERENCES[cell.program]
    points = [int(a) for a in cell_argv(cell, g)[2:]]
    expected, actual = reference(g, points), globals_[name]
    if len(points) == 2:
        expected, actual = expected[points[1]], actual[points[1]]
    np.testing.assert_array_equal(
        actual, expected, err_msg=f"{cell.id}: the scalar oracle differs from the reference"
    )


def oracle_run(cell: Cell, g: CSRGraph | None = None):
    """The scalar oracle's RunResult for ``cell`` (uncached), checked
    against the program's reference implementation."""
    g = graph(cell.graph) if g is None else g
    schedule = cell.schedule.with_(execution="serial", sanitize=False)
    result = compiled(cell.program, schedule).run(
        cell_argv(cell, g), graph=g, extern_functions=_externs(cell), vectorize=False
    )
    assert_reference(cell, g, result.globals)
    return result


#: Oracle runs by cell key.  Sharing them across tests is safe: no caller
#: writes to a RunResult, and the oracle never runs natively.
_ORACLES: dict[tuple, object] = {}


def oracle(cell: Cell):
    """The scalar oracle for a cell on its named graph family (cached: the
    cells of one schedule share it across executions)."""
    key = (cell.program, cell.schedule.with_(execution="serial", sanitize=False),
           cell.graph, cell.args, cell.heuristic)
    if key not in _ORACLES:
        _ORACLES[key] = oracle_run(cell)
    return _ORACLES[key]


def assert_same_vectors(actual: dict, expected: dict, where: str = "") -> None:
    compared = 0
    for name, value in actual.items():
        assert name in expected, f"{where}: unexpected output {name!r}"
        np.testing.assert_array_equal(
            value, expected[name], err_msg=f"{where}: vector {name!r} diverged"
        )
        compared += 1
    assert compared, f"{where}: no output vectors to compare"


def run(cell: Cell, g: CSRGraph | None = None):
    """Execute ``cell``; returns ``(vectors, RunResult or None)``."""
    g = graph(cell.graph) if g is None else g
    argv = cell_argv(cell, g)
    if cell.execution == "library":
        points = [int(a) for a in argv[2:]]
        values = LIBRARY[cell.program](g, points, cell.schedule)
        return {PROGRAMS[cell.program].vector: values}, None
    if cell.execution.startswith("cpp"):
        return run_standalone(cell, g, argv), None
    program = compiled(cell.program, cell.schedule)
    result = program.run(argv, graph=g, extern_functions=_externs(cell))
    if cell.execution == "native":
        assert program.native_fallback_reason is None, program.native_fallback_reason
    return vectors(result.globals), result


def check(cell: Cell, g: CSRGraph | None = None):
    """Run ``cell`` and assert every output vector equals the scalar oracle's.

    Returns ``(oracle RunResult, cell RunResult or None)`` for a slice's
    own extra assertions.  ``g`` overrides the cell's graph family (then
    the oracle is not cached).
    """
    if cell.execution == "native" and not HAS_CXX:
        pytest.skip("no C++ toolchain (g++/clang++/c++)")
    if cell.execution.startswith("cpp") and GXX is None:
        pytest.skip("g++ not available")
    expected = oracle(cell) if g is None else oracle_run(cell, g)
    actual, result = run(cell, g)
    assert_same_vectors(actual, vectors(expected.globals), cell.id)
    if cell.schedule.execution == "parallel" and result is not None:
        _assert_engine_counters(cell, result, g)
    return expected, result


def _assert_engine_counters(cell: Cell, parallel, g: CSRGraph | None = None) -> None:
    """A thread count never changes what a deterministic strategy charges:
    the parallel run's counters equal the serial vectorized run's, and its
    profile is coherent (one barrier per parallel round, none at 1 worker)."""
    serial_cell = dataclasses.replace(cell, execution="vectorized")
    _, serial = run(serial_cell, g)
    assert serial.stats.deterministic_dict() == parallel.stats.deterministic_dict(), (
        f"{cell.id}: counters diverged from the serial run"
    )
    assert parallel.stats.execution == "parallel"
    assert parallel.stats.barrier_waits == parallel.stats.parallel_rounds
    if cell.schedule.num_threads == 1:
        assert parallel.stats.parallel_rounds == 0


# ---------------------------------------------------------------------------
# The standalone C++ program (``cpp`` / ``cpp-asan``)
# ---------------------------------------------------------------------------

_SANITIZE_FLAGS = (
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
    "-fno-omit-frame-pointer",
)


@functools.lru_cache(maxsize=64)
def _standalone_binary(program: str, schedule: Schedule, sanitized: bool) -> Path:
    text = compile_program(ALL_PROGRAMS[program], schedule, backend="cpp").source_text
    workdir = Path(
        tempfile.mkdtemp(prefix="repro-cpp-", dir=os.environ.get("REPRO_KERNEL_CACHE"))
    )
    (workdir / "main.cpp").write_text(text)
    flags = ["-O1", *_SANITIZE_FLAGS] if sanitized else ["-O2"]
    subprocess.run(
        [GXX, *flags, "-std=c++17", "-fopenmp", "-o", str(workdir / "main"),
         str(workdir / "main.cpp")],
        check=True,
        capture_output=True,
    )
    return workdir / "main"


def run_standalone(cell: Cell, g: CSRGraph, argv: list[str]) -> dict[str, np.ndarray]:
    """Build (once per program and schedule) and run the standalone C++
    program on ``g`` through files, at ``num_threads`` OpenMP threads."""
    exe = _standalone_binary(
        cell.program, cell.schedule, cell.execution == "cpp-asan"
    )
    with tempfile.TemporaryDirectory(prefix="repro-run-") as tmp:
        graph_file, out_file = Path(tmp) / "input.el", Path(tmp) / "output.txt"
        save_edge_list(g, graph_file)
        env = dict(
            os.environ,
            REPRO_OUTPUT=str(out_file),
            OMP_NUM_THREADS=str(cell.schedule.num_threads),
            ASAN_OPTIONS="detect_leaks=0",
        )
        subprocess.run([str(exe), str(graph_file), *argv[2:]], check=True, env=env)
        lines = out_file.read_text().splitlines()
    return {
        parts[0]: np.array([int(x) for x in parts[1:]], dtype=np.int64)
        for parts in (line.split() for line in lines)
    }


# ---------------------------------------------------------------------------
# Axis 5: mutation histories
# ---------------------------------------------------------------------------

#: Session algorithm name -> the DSL program that is its oracle.
SESSION_PROGRAMS = {"sssp": "sssp", "wbfs": "wbfs", "widest_path": "widest", "kcore": "kcore"}


def _clean_copy(g: CSRGraph) -> CSRGraph:
    """A fresh CSR built from ``g``'s edge list: no overlay, so an overlay
    bug cannot hide by affecting a session and its oracle alike."""
    sources, dests, weights = g.edge_list()
    return from_edges(g.num_vertices, zip(sources.tolist(), dests.tolist(), weights.tolist()))


def check_history(
    algorithm: str,
    schedule: Schedule,
    g: CSRGraph,
    batches,
    source: int = 0,
    also: tuple[str, ...] = (),
):
    """Converge a session on ``g``, then apply each batch; after the run and
    after every batch the session's vector must equal the scalar oracle on
    a clean rebuild of the mutated graph, and so must each execution named
    in ``also`` run on that rebuild.  ``batches`` may be a callable
    ``session -> iterable`` (a generator that reads the live graph).
    Returns ``(session, per-batch results)``."""
    session = IncrementalSession(g, algorithm, source=source, schedule=schedule)
    session.run()
    program = SESSION_PROGRAMS[algorithm]
    cell = Cell(program, schedule, args=() if program == "kcore" else (str(source),))

    def expect(where: str, values: np.ndarray) -> None:
        clean = _clean_copy(session.graph)
        expected = oracle_run(cell, clean).globals[PROGRAMS[program].vector]
        assert np.array_equal(values, expected), (
            f"{algorithm}: {where} diverged at {np.flatnonzero(values != expected)[:10]}"
        )
        for execution in also:
            actual, _ = run(dataclasses.replace(cell, execution=execution), clean)
            assert_same_vectors(actual, {PROGRAMS[program].vector: expected}, execution)

    expect("the converged run", session.values)
    results = []
    for batch_no, batch in enumerate(batches(session) if callable(batches) else batches):
        if not batch:
            continue
        result = session.apply(list(batch))
        expect(f"batch {batch_no}", result.values)
        assert 0 <= result.vertices_touched <= session.graph.num_vertices
        results.append(result)
    return session, results


# ---------------------------------------------------------------------------
# The generated matrix
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parsed(program: str):
    return parse(ALL_PROGRAMS[program])


def _feasible(program: str, schedule: Schedule) -> bool:
    """Whether the compiler accepts the pair (and, for native, lowers it to
    a kernel instead of falling back with N101)."""
    try:
        plan = plan_program(_parsed(program), schedule)
        if schedule.execution == "native":
            generate_for_plan(plan)
    except GraphItError:
        return False
    return True


def _live(knob: str, schedule: Schedule) -> bool:
    return not any(name == knob and dead(schedule) for name, dead, _ in _dead_knob_rules())


def _schedules(program: str, execution: str):
    """The one-knob-at-a-time sweep for one (program, execution): every
    strategy at the base values, then every other value of every knob,
    each on the first strategy where the knob is live and feasible."""
    fixed = dict(PROGRAMS[program].fixed)
    base = {**BASE, **fixed, **EXECUTIONS[execution]}
    strategies = []
    for strategy in DOMAINS["priority_update"]:
        schedule = Schedule(**{**base, "priority_update": strategy})
        if _feasible(program, schedule):
            strategies.append(schedule)
            yield schedule
    for knob, values in DOMAINS.items():
        if knob in ("priority_update", *_EXECUTION_FIELDS, *fixed):
            continue
        for value in values:
            if value == BASE[knob]:
                continue
            for schedule in strategies:
                try:
                    varied = schedule.with_(**{knob: value})
                except GraphItError:
                    continue
                if _live(knob, varied) and _feasible(program, varied):
                    yield varied
                    break


def generate() -> list[Cell]:
    """Every generated cell, in a stable order."""
    return [
        Cell(program, schedule, execution)
        for program in PROGRAMS
        for execution in GENERATED_EXECUTIONS
        for schedule in _schedules(program, execution)
    ]


def coverage(cells) -> dict[str, set]:
    """Schedule field -> the values some cell runs it at."""
    seen: dict[str, set] = {name: set() for name in DOMAINS}
    for cell in cells:
        for name in DOMAINS:
            seen[name].add(getattr(cell.schedule, name))
    return seen


def main(argv: list[str]) -> None:
    """Print cells per (program, execution); ``--cells`` lists every id."""
    cells = generate()
    print(f"{len(cells)} generated cells (schedules per program and execution)")
    print("program".ljust(10) + "".join(e.rjust(12) for e in GENERATED_EXECUTIONS))
    for program in PROGRAMS:
        counts = [sum(c.program == program and c.execution == e for c in cells)
                  for e in GENERATED_EXECUTIONS]
        print(program.ljust(10) + "".join(str(n).rjust(12) for n in counts))
    if "--cells" in argv:
        print("\n".join(cell.id for cell in cells))


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
