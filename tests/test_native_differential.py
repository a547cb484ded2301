"""Slice of the oracle matrix (``tests/oracle_matrix.py``): the native
(compiled shared-library) execution.

Every row runs ``Schedule(execution="native")`` and must produce output
vectors **bit-identical** to the scalar oracle.  Interpreter statistics
are interpreter-only by design and are never compared.

Without a C++ toolchain every oracle check here **skips** (never fails) —
the same machines get the runtime's graceful ``N101`` degradation, which
has its own tests below that run everywhere.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.backend import compile_program
from repro.backend.native import (
    ABI_VERSION,
    NativeUnavailable,
    discover_toolchain,
    execute_native,
    generate_native_cpp,
    kernel_cache_dir,
    kernel_key,
    native_output_names,
    reset_toolchain_cache,
)
from repro.backend.native.abi import RUN_PARAMETERS
from repro.backend.native.runner import generate_for_plan
from repro.errors import CompileError, GraphItError, SchedulingError
from repro.graph import from_edges, rmat
from repro.lang import ALL_PROGRAMS
from repro.lang.parser import parse
from repro.midend import Schedule
from repro.midend.analysis.diagnostics import _dead_knob_rules
from repro.midend.transforms.lowering import plan_program

from .oracle_matrix import (
    DOMAINS,
    HAS_CXX,
    Cell,
    assert_same_vectors,
    check,
    graph,
    oracle_run,
    vectors,
)

needs_toolchain = pytest.mark.skipif(
    not HAS_CXX, reason="no C++ toolchain (g++/clang++/c++); native tests skip"
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def social():
    return graph("social")


@pytest.fixture(scope="module")
def social_start(social):
    return int(np.argmax(social.out_degrees()))


def sssp_oracle(schedule, g, start):
    return vectors(oracle_run(Cell("sssp", schedule, args=(str(start),)), g).globals)


MATRIX = [
    ("sssp", Schedule(priority_update="lazy", delta=3)),
    ("sssp", Schedule(priority_update="eager_no_fusion", delta=3)),
    ("sssp", Schedule(priority_update="eager_with_fusion", delta=3)),
    ("sssp", Schedule(priority_update="lazy", delta=3, direction="DensePull")),
    ("wbfs", Schedule(priority_update="lazy", delta=1)),
    ("wbfs", Schedule(priority_update="eager_no_fusion", delta=1)),
    ("widest", Schedule(priority_update="lazy", delta=3)),
    ("widest", Schedule(priority_update="eager_no_fusion", delta=3)),
    ("kcore", Schedule(priority_update="lazy_constant_sum")),
    ("ppsp", Schedule(priority_update="eager_with_fusion", delta=3)),
    # Unsorted lazy buckets under an early exit.
    ("ppsp", Schedule(priority_update="lazy", delta=3)),
]


def _matrix_params():
    """Every row at two threads (the atomic path) and at one thread (the
    serial kernel: no atomic RMW, no parallel region).  The two-thread row
    keeps the row's plain id."""
    hub = int(np.argmax(graph("social").out_degrees()))
    args = {"kcore": (), "ppsp": (str(hub), str((hub + 7) % graph("social").num_vertices))}
    for name, schedule in MATRIX:
        tag = schedule.priority_update
        if schedule.direction != "SparsePush":
            tag += f"-{schedule.direction}"
        for threads, suffix in ((2, ""), (1, "-1thread")):
            yield pytest.param(
                Cell(
                    name,
                    schedule.with_(num_threads=threads),
                    "native",
                    graph="social_symmetric" if name == "kcore" else "social",
                    args=args.get(name, ("hub",)),
                ),
                id=f"{name}-{tag}{suffix}",
            )


PARAMS = list(_matrix_params())

#: This slice's cells; the generated matrix does not run them again.
CELLS = [param.values[0] for param in PARAMS]


@pytest.mark.parametrize("cell", PARAMS)
def test_native_matches_scalar_oracle(cell):
    check(cell)


EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.gt")
)


@needs_toolchain
@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_every_example_native_matches_oracle(example, social, social_start):
    """Acceptance bar: every checked-in .gt example is bit-identical to the
    scalar oracle under its own inline schedule, run natively."""
    source = example.read_text()
    base = compile_program(source, None).schedule
    graph = social.symmetrized() if "kcore" in example.stem else social
    args = ["prog", "-", str(social_start)]
    oracle = compile_program(source, base).run(args, graph=graph, vectorize=False)
    native_prog = compile_program(source, base.with_(execution="native"))
    native = native_prog.run(args, graph=graph)
    assert native_prog.native_fallback_reason is None
    assert_same_vectors(vectors(native.globals), vectors(oracle.globals), example.stem)


@needs_toolchain
def test_repeated_runs_and_graph_swap(social, social_start):
    """Per-process kernel state (transpose caches, queue globals) must be
    re-derived on every entry call, including for a different graph."""
    schedule = Schedule(
        priority_update="lazy", delta=4, direction="DensePull", execution="native"
    )
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    other = rmat(9, 16, seed=7, weights=(1, 4))
    other_start = int(np.argmax(other.out_degrees()))
    # Same compiled program object, different graph, then back: the
    # run-stamped transpose must be rebuilt, not reused.
    for g, start in ((social, social_start), (other, other_start), (social, social_start)):
        assert_same_vectors(
            vectors(program.run(["prog", "-", str(start)], graph=g).globals),
            sssp_oracle(schedule, g, start),
        )


@needs_toolchain
def test_second_invocation_hits_kernel_cache(social, social_start, monkeypatch):
    """A repeated (program, schedule) pair must spawn **no** compiler
    subprocess — the disk cache serves the kernel."""
    import repro.backend.native.build as build_mod

    schedule = Schedule(priority_update="lazy", delta=3, execution="native")
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    args = ["prog", "-", str(social_start)]
    first = program.run(args, graph=social)
    assert program.native_fallback_reason is None

    def no_subprocess(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("cache hit must not spawn a compiler subprocess")

    monkeypatch.setattr(build_mod.subprocess, "run", no_subprocess)
    second = program.run(args, graph=social)
    assert_same_vectors(vectors(second.globals), vectors(first.globals))


@needs_toolchain
def test_native_runs_from_graph_file(tmp_path, social, social_start):
    """The CLI-style path: graph loaded from argv[1] instead of in-memory."""
    from repro.graph import save_edge_list

    graph_file = tmp_path / "g.el"
    save_edge_list(social, graph_file)
    schedule = Schedule(priority_update="lazy", delta=4, execution="native")
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    from_file = program.run(["prog", str(graph_file), str(social_start)])
    assert program.native_fallback_reason is None
    assert_same_vectors(
        vectors(from_file.globals),
        sssp_oracle(schedule, social, social_start),
    )


@needs_toolchain
def test_kcore_session_accepts_native(social, monkeypatch):
    """``repro.kcore`` runs the compiled program, so a native schedule runs
    the kernel; a k-core session's mutations use the h-index fixpoint and
    never touch a queue, so the session accepts the schedule too."""
    from repro.algorithms import kcore, kcore_reference
    from repro.backend.program import CompiledProgram
    from repro.graph.mutations import parse_mutation_script
    from repro.incremental import IncrementalSession

    schedule = Schedule(priority_update="lazy_constant_sum", execution="native")
    programs = []
    real_run = CompiledProgram.run

    def spy(self, *args, **kwargs):
        programs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(CompiledProgram, "run", spy)
    graph = social.symmetrized()
    result = kcore(graph, schedule)
    assert [p.native_fallback_reason for p in programs] == [None]
    np.testing.assert_array_equal(result.coreness, kcore_reference(graph))

    session = IncrementalSession(social.symmetrized(), "kcore", schedule=schedule)
    session.run()
    assert programs[-1].native_fallback_reason is None
    hub = int(np.argmax(graph.out_degrees()))
    a, b = (int(v) for v in np.unique(graph.out_neighbors(hub))[-2:])
    script = f"remove {hub} {a}\nadd 3 5 1\nflush\nremove {hub} {b}\nadd 7 9 1\n"
    for batch in parse_mutation_script(script):
        session.apply(batch)
    np.testing.assert_array_equal(session.values, kcore_reference(session.graph))


# ---------------------------------------------------------------------------
# Degradation ladder (these run with or without a toolchain)
# ---------------------------------------------------------------------------


@pytest.fixture
def no_toolchain(monkeypatch):
    """Simulate a compiler-less machine via the exclusive CXX override."""
    reset_toolchain_cache()
    monkeypatch.setenv("REPRO_NATIVE_CXX", "/nonexistent/repro-no-cxx")
    yield
    reset_toolchain_cache()


def test_no_toolchain_falls_back_with_n101(
    no_toolchain, social, social_start, capsys
):
    schedule = Schedule(priority_update="lazy", delta=4, execution="native")
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    args = ["prog", "-", str(social_start)]
    result = program.run(args, graph=social)
    assert program.native_fallback_reason is not None
    assert "toolchain" in program.native_fallback_reason
    assert "N101" in capsys.readouterr().err
    # The fallback is the serial vectorized Python path: same fixpoint.
    assert_same_vectors(
        vectors(result.globals), sssp_oracle(schedule, social, social_start)
    )


def test_unordered_program_falls_back_with_n101(social, social_start, capsys):
    """bellman_ford has no priority queue — the C++ backend cannot lower it,
    so native mode degrades instead of erroring."""
    schedule = Schedule(execution="native")
    program = compile_program(ALL_PROGRAMS["bellman_ford"], schedule)
    result = program.run(["prog", "-", str(social_start)], graph=social)
    assert program.native_fallback_reason is not None
    assert "N101" in capsys.readouterr().err
    assert isinstance(result.globals.get("dist"), np.ndarray)


def test_generate_for_unordered_raises_native_unavailable():
    from repro.backend.native.runner import generate_for_plan

    program = compile_program(ALL_PROGRAMS["bellman_ford"], Schedule())
    with pytest.raises(NativeUnavailable):
        generate_for_plan(program.plan)


def test_sanitize_plus_native_rejected():
    with pytest.raises(SchedulingError, match="sanitiz"):
        Schedule(execution="native", sanitize=True)


def test_native_output_names_follow_declaration_order():
    """The ABI's out-buffer order is the program's vector declaration
    order — the runner and the kernel must agree on it."""
    program = compile_program(
        ALL_PROGRAMS["widest"], Schedule(priority_update="lazy", delta=2)
    )
    names = native_output_names(program.plan)
    assert "width" in names


def test_generated_source_embeds_effect_summary():
    program = compile_program(
        ALL_PROGRAMS["sssp"], Schedule(priority_update="lazy", delta=4)
    )
    text = generate_native_cpp(program.plan)
    assert f"abi_version: {ABI_VERSION}" in text
    assert "effect_summary:" in text
    assert 'extern "C" int64_t repro_native_run(' in text
    assert "repro_native_abi_version" in text


def test_dead_knobs_under_native_flagged():
    """parallelization / chunk_size only steer the Python runtime; under
    execution=native they are dead and lint says so (S002)."""
    from repro.lang.parser import parse
    from repro.midend.analysis.diagnostics import check_schedule_compat
    from repro.midend.schedule import SchedulingProgram

    scheduling = (
        SchedulingProgram()
        .config_execution("s1", "native")
        .config_apply_parallelization("s1", "static-vertex-parallel")
        .config_chunk_size("s1", 32)
    )
    diags = check_schedule_compat(parse(ALL_PROGRAMS["sssp"]), scheduling)
    s002 = [d for d in diags if d.code == "S002"]
    messages = " | ".join(d.message for d in s002)
    assert "parallelization" in messages
    assert "chunk_size" in messages


def test_diamond_exact_distances():
    """Tiny deterministic graph with known answers, through the whole
    native path when a toolchain exists, otherwise via the N101 fallback —
    either way the answers must be exact."""
    graph = from_edges(
        5, [(0, 1, 2), (0, 2, 7), (1, 2, 3), (2, 3, 1), (1, 3, 10), (3, 4, 1)]
    )
    schedule = Schedule(priority_update="lazy", delta=2, execution="native")
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    result = program.run(["prog", "-", "0"], graph=graph)
    np.testing.assert_array_equal(result.vector("dist"), [0, 2, 5, 6, 7])
    if HAS_CXX:
        assert program.native_fallback_reason is None


@needs_toolchain
def test_toolchain_probe_is_cached(monkeypatch):
    """discover_toolchain probes once per process."""
    reset_toolchain_cache()
    first = discover_toolchain()
    assert first is not None

    import repro.backend.native.toolchain as tc_mod

    def no_probe(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("cached probe must not re-run the compiler")

    monkeypatch.setattr(tc_mod.subprocess, "run", no_probe)
    assert discover_toolchain() is first


# ---------------------------------------------------------------------------
# One build per (program, strategy, direction)
# ---------------------------------------------------------------------------


#: Programs the native lowering never accepts: unordered, or needing externs.
NEVER_NATIVE = ("bellman_ford", "astar", "setcover")


def _native_text(program: str, schedule: Schedule) -> str | None:
    """The native kernel text, or None when the native lowering refuses."""
    try:
        return generate_for_plan(plan_program(parse(ALL_PROGRAMS[program]), schedule))
    except GraphItError:
        return None


def _code_shapes(program: str):
    """``(schedule, text)`` for every strategy x direction the native
    lowering accepts for ``program``, at Schedule's default numbers."""
    for strategy in DOMAINS["priority_update"]:
        for direction in DOMAINS["direction"]:
            try:
                schedule = Schedule(
                    priority_update=strategy, direction=direction, execution="native"
                )
            except SchedulingError:
                continue
            text = _native_text(program, schedule)
            if text is not None:
                yield schedule, text


def _assert_text_ignores(program: str, schedule: Schedule, text: str, knob: str) -> int:
    """The kernel text is byte-identical at every DOMAINS value of ``knob``
    the lowering accepts; returns how many values were compared."""
    compared = 0
    for value in DOMAINS[knob]:
        try:
            varied = schedule.with_(**{knob: value})
        except SchedulingError:
            continue
        varied_text = _native_text(program, varied)
        if varied_text is None:
            continue  # e.g. Δ > 1 on a queue that disallows coarsening
        assert varied_text == text, f"{program} {schedule.priority_update}: {knob}={value!r}"
        compared += 1
    return compared


def test_abi_is_version_two():
    assert ABI_VERSION == 2
    assert RUN_PARAMETERS == ("num_threads", "delta", "bucket_fusion_threshold", "num_buckets")
    lazy = {
        delta: _native_text("sssp", Schedule(priority_update="lazy", delta=delta, execution="native"))
        for delta in (8, 512)
    }
    assert lazy[8] is not None and lazy[8] == lazy[512]


@pytest.mark.parametrize("program", sorted(ALL_PROGRAMS))
def test_run_parameters_do_not_reach_native_text(program):
    """Δ, the fusion threshold, num_buckets and the thread count are run
    parameters: one kernel text per (program, strategy, direction)."""
    shapes = list(_code_shapes(program))
    if program in NEVER_NATIVE:
        assert not shapes
        return
    assert shapes
    for schedule, text in shapes:
        for knob in RUN_PARAMETERS:
            assert _assert_text_ignores(program, schedule, text, knob) >= 1


@pytest.mark.parametrize("program", sorted(ALL_PROGRAMS))
def test_knobs_dead_natively_do_not_reach_native_text(program):
    """Every knob S002 calls dead under a native schedule leaves the kernel
    text (and so the kernel cache key) byte-identical, so changing it never
    costs a compiler run.  The knobs come from S002's own table."""
    dead_seen = set()
    for schedule, text in _code_shapes(program):
        for knob, is_dead, _ in _dead_knob_rules():
            if is_dead(schedule):
                dead_seen.add(knob)
                _assert_text_ignores(program, schedule, text, knob)
    if program not in NEVER_NATIVE:
        assert {"chunk_size", "parallelization"} <= dead_seen


def test_no_coarsening_refusal_still_fires():
    """k-core's queue disallows coarsening: Δ stays out of the kernel text,
    yet a Δ other than 1 is still refused, natively and on the fallback."""
    for strategy in ("lazy", "lazy_constant_sum"):
        schedule = Schedule(priority_update=strategy, delta=2, execution="native")
        plan = plan_program(parse(ALL_PROGRAMS["kcore"]), schedule)
        with pytest.raises(CompileError, match="disallows coarsening"):
            generate_native_cpp(plan)
    program = compile_program(
        ALL_PROGRAMS["kcore"],
        Schedule(priority_update="lazy_constant_sum", delta=2, execution="native"),
    )
    with pytest.raises(SchedulingError, match="disallows coarsening"):
        program.run(["prog", "-"], graph=graph("social_symmetric"))
    assert "disallows coarsening" in program.native_fallback_reason


@pytest.fixture
def fresh_kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache and a probed toolchain, so every compiler
    subprocess from here on is a kernel build."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    toolchain = discover_toolchain()
    assert toolchain is not None
    return toolchain


@needs_toolchain
def test_schedule_number_sweep_builds_one_kernel_per_strategy(fresh_kernel_cache, monkeypatch):
    """A Δ sweep over both SSSP code shapes, plus the fusion threshold and
    num_buckets, spawns exactly two compiler subprocesses; every answer is
    bit-exact against the scalar oracle at its own schedule."""
    import repro.backend.native.build as build_mod

    builds = []
    real_run = build_mod.subprocess.run

    def spy(command, *args, **kwargs):
        builds.append(command)
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(build_mod.subprocess, "run", spy)
    schedules = [
        Schedule(priority_update=strategy, delta=delta, num_threads=1)
        for delta in (1, 2, 3, 8, 512)
        for strategy in ("lazy", "eager_with_fusion")
    ]
    schedules += [
        Schedule(priority_update="eager_with_fusion", delta=3, bucket_fusion_threshold=t)
        for t in (1, 1000)
    ]
    schedules += [Schedule(priority_update="lazy", delta=3, num_buckets=b) for b in (1, 128)]
    for schedule in schedules:
        check(Cell("sssp", schedule, "native", graph="social", args=("hub",)))
    assert len(builds) == 2, builds
    assert len(list(kernel_cache_dir().glob("*.so"))) == 2


_ABI_V1_KERNEL = """
#include <cstdint>
extern "C" int64_t repro_native_abi_version() { return 1; }
extern "C" int64_t repro_native_num_outputs() { return 1; }
extern "C" int64_t repro_native_num_args_required() { return 1; }
extern "C" int64_t repro_native_run(
    const int64_t *, const int64_t *, const int64_t *, int64_t, int64_t,
    const int64_t *, int64_t, int64_t **, int64_t, int64_t num_threads) {
  return 99;  // a call would surface as status 99
}
"""


@needs_toolchain
def test_stale_abi_v1_kernel_is_never_called(fresh_kernel_cache, tmp_path, social, social_start):
    """An ABI-v1 library sitting at the kernel's cache key is reported as
    NativeUnavailable (the N101 fallback), never called."""
    toolchain = fresh_kernel_cache
    schedule = Schedule(priority_update="lazy", delta=3, execution="native")
    program = compile_program(ALL_PROGRAMS["sssp"], schedule)
    key = kernel_key(generate_native_cpp(program.plan), toolchain)
    source = tmp_path / "v1.cpp"
    source.write_text(_ABI_V1_KERNEL)
    kernel_cache_dir().mkdir(parents=True)
    subprocess.run(
        [toolchain.cxx, *toolchain.flags, "-o", str(kernel_cache_dir() / f"{key}.so"), str(source)],
        check=True,
    )
    args = ["prog", "-", str(social_start)]
    with pytest.raises(NativeUnavailable, match="ABI version 1"):
        execute_native(program, args, graph=social)
    result = program.run(args, graph=social)
    assert "ABI version 1" in program.native_fallback_reason
    assert_same_vectors(vectors(result.globals), sssp_oracle(schedule, social, social_start))


@needs_toolchain
def test_one_kernel_shared_by_concurrent_schedules(social, social_start):
    """Schedules that differ only in Δ share one loaded kernel, whose state
    is global; ctypes drops the GIL during the call, so concurrent runs
    from several threads must still each see their own Δ and queue."""
    args = ["prog", "-", str(social_start)]
    programs = [
        compile_program(
            ALL_PROGRAMS["sssp"],
            Schedule(priority_update="lazy", delta=delta, num_threads=1, execution="native"),
        )
        for delta in (1, 3, 64, 512)
    ]
    expected = sssp_oracle(programs[0].schedule, social, social_start)
    programs[0].run(args, graph=social)  # build once, before the threads race
    failures = []

    def worker(program):
        try:
            for _ in range(10):
                got = vectors(program.run(args, graph=social).globals)
                assert_same_vectors(got, expected, f"delta={program.schedule.delta}")
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(p,)) for p in programs * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert len({p._native_kernel.key for p in programs}) == 1
