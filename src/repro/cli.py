"""Command-line interface: ``python -m repro <command>``.

Mirrors the GraphIt compiler's command-line workflow:

- ``compile`` — compile a DSL program (a ``.gt`` file or one of the built-in
  benchmark programs) under a schedule, to Python or C++ source.
- ``run`` — compile with the Python backend and execute on a graph file,
  printing the execution profile and result summary.
- ``generate`` — produce a synthetic graph file (R-MAT or road grid) in the
  edge-list format both backends load.
- ``autotune`` — search for a schedule for an algorithm/graph pair.
- ``lint`` — run the midend diagnostics engine (race/atomicity analysis,
  IR validator, schedule–program compatibility) over one or more programs
  and print structured ``file:line:col: severity[CODE]: message`` findings
  (``--format json`` emits a machine-readable document instead).
- ``analyze`` — print the whole-program effect analysis (per-UDF
  read/write/index sets, monotonicity verdicts with schedule
  admissibility, pairwise fusion-safety) as text or JSON.
- ``trace`` — compile and run a program under the tracer and write a
  Chrome-trace-format JSON (loadable in Perfetto / ``chrome://tracing``).
- ``profile`` — same traced run, printed as a self-time profile table.
- ``metrics`` — run a program and print the always-on metrics registry
  (JSON or Prometheus text); ``--workload`` also writes the workload
  profile (the paper's crossover axes) for the autotuner.
- ``last-run`` — inspect the crash flight recorder's forensics dump from
  the most recent failed invocation.
- ``trace-diff`` — attribute the wall-time delta between two trace /
  profile / benchmark span artifacts to compiler and runtime phases.
- ``serve`` — long-running query service: load a graph once, answer
  concurrent point queries over HTTP/JSON with a result cache, request
  coalescing, admission control, and ``/mutate`` support.

Performance is measured outside this CLI, by ``python3 bench/run.py``
(see ``bench/README.md``).

Examples::

    python -m repro generate rmat --scale 10 -o social.el
    python -m repro compile sssp --priority-update lazy --delta 4 --backend cpp -o sssp.cpp
    python -m repro run sssp social.el 0 --priority-update eager_with_fusion --delta 32
    python -m repro autotune sssp social.el --trials 30
    python -m repro lint sssp kcore examples/my_prog.gt --werror
    python -m repro analyze sssp widest --format json
    python -m repro trace examples/sssp_delta.gt --out trace.json
    python -m repro profile sssp --execution parallel --threads 4
    python -m repro metrics sssp social.el 0 --format prom
    python -m repro metrics sssp --workload profile.json
    python -m repro last-run
    python -m repro trace-diff bench/.out/spans-A.json bench/.out/spans-B.json
    python -m repro serve --graph social.el --port 8732
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .autotune import autotune
from .backend import compile_program
from .errors import GraphItError, SchedulingError
from .graph.generators import rmat, road_grid
from .graph.io import load_edge_list, load_npz, save_edge_list
from .lang.programs import ALL_PROGRAMS
from .midend.schedule import PRIORITY_UPDATE_STRATEGIES, Schedule

__all__ = ["main"]


def _add_schedule_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("schedule (Table 2)")
    group.add_argument(
        "--priority-update",
        default="eager_no_fusion",
        choices=PRIORITY_UPDATE_STRATEGIES,
        help="bucket update strategy (configApplyPriorityUpdate)",
    )
    group.add_argument(
        "--delta", type=int, default=1, help="priority coarsening factor Δ"
    )
    group.add_argument(
        "--fusion-threshold",
        type=int,
        default=1000,
        help="bucket fusion size threshold (configBucketFusionThreshold)",
    )
    group.add_argument(
        "--num-buckets",
        type=int,
        default=128,
        help="materialized buckets for the lazy strategies (configNumBuckets)",
    )
    group.add_argument(
        "--direction",
        default="SparsePush",
        choices=("SparsePush", "DensePull"),
        help="edge traversal direction (configApplyDirection)",
    )
    group.add_argument(
        "--threads",
        type=int,
        default=8,
        help="OpenMP threads under native execution; the cost model's "
        "virtual threads otherwise",
    )
    group.add_argument(
        "--execution",
        default="serial",
        choices=("serial", "parallel", "native"),
        help="run each round inline (serial, the bit-exact oracle), with "
        "its edge gather on a worker thread (parallel), or as a compiled "
        "shared-library kernel (native; falls back to serial vectorized "
        "Python with an N101 note when no C++ toolchain is available) "
        "(configExecution)",
    )


def _schedule_from_args(args: argparse.Namespace) -> Schedule:
    return Schedule(
        priority_update=args.priority_update,
        delta=args.delta,
        bucket_fusion_threshold=args.fusion_threshold,
        num_buckets=args.num_buckets,
        direction=args.direction,
        num_threads=args.threads,
        execution=getattr(args, "execution", "serial"),
        sanitize=getattr(args, "sanitize", False),
        incremental=getattr(args, "incremental", False),
    )


def _load_source(program: str) -> str:
    if program in ALL_PROGRAMS:
        return ALL_PROGRAMS[program]
    if os.path.exists(program):
        with open(program, "r", encoding="utf-8") as handle:
            return handle.read()
    raise GraphItError(
        f"{program!r} is neither a built-in program "
        f"({', '.join(sorted(ALL_PROGRAMS))}) nor a readable file"
    )


def _load_graph(path: str):
    if path.endswith(".npz"):
        return load_npz(path)
    return load_edge_list(path)


def _cmd_compile(args: argparse.Namespace) -> int:
    source = _load_source(args.program)
    program = compile_program(source, _schedule_from_args(args), backend=args.backend)
    if args.output:
        program.write(args.output)
        print(f"wrote {args.backend} source to {args.output}")
    else:
        sys.stdout.write(program.source_text)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if getattr(args, "incremental", False):
        return _cmd_run_incremental(args)
    source = _load_source(args.program)
    program = compile_program(source, _schedule_from_args(args))
    result = program.run([args.program, args.graph, *args.args])
    stats = result.stats
    if (
        program.schedule.execution == "native"
        and program.native_fallback_reason is None
    ):
        # Interpreter counters (rounds, relaxations, ...) are collected by
        # the Python runtime only; the compiled kernel produces the output
        # vectors but no instrumentation (documented in DESIGN.md §11).
        print("native kernel executed (interpreter counters unavailable)")
    else:
        print(
            f"rounds={stats.rounds} fused={stats.fused_rounds} "
            f"syncs={stats.global_syncs} relaxations={stats.relaxations} "
            f"simulated_time={stats.simulated_time():.0f}"
        )
    sanitizer = result.context.sanitizer
    if sanitizer is not None:
        udfs = sorted({entry["udf"] for entry in sanitizer.log})
        print(
            f"sanitizer: {len(sanitizer.log)} apply scopes validated "
            f"against the static effect summary (udfs: {', '.join(udfs)})"
        )
    for name, value in sorted(result.globals.items()):
        if isinstance(value, np.ndarray):
            finite = value[np.abs(value) < 2**62]
            summary = (
                f"min={finite.min()} max={finite.max()}" if finite.size else "empty"
            )
            print(f"vector {name}: size={value.size} {summary}")
    return 0


def _cmd_run_incremental(args: argparse.Namespace) -> int:
    """``repro run --incremental``: converge, mutate, resume, verify.

    The program is compiled first so the I001 eligibility gate runs on the
    actual DSL (ineligible programs — the k-core peel, extern processors —
    fail at plan time with the analysis's reasons).  The recognized
    relaxation shape then routes onto the interpreted incremental engine;
    after every mutation batch from the script the resumed vector is
    checked bit-for-bit against a from-scratch run on the mutated graph
    (disable with ``--no-verify``).
    """
    from .graph.mutations import parse_mutation_script
    from .incremental import IncrementalSession
    from .midend.analysis.effects import classify_incremental_eligibility

    if not args.mutations:
        raise GraphItError("--incremental requires --mutations <script>")
    source = _load_source(args.program)
    schedule = _schedule_from_args(args)
    program = compile_program(source, schedule)
    verdict = classify_incremental_eligibility(program.plan.facts)
    if not verdict.eligible:  # pragma: no cover - plan gate
        raise GraphItError("program is not eligible for incremental resume")
    if verdict.relaxation_shape == "unrecognized":
        raise GraphItError(
            "the program's ordered loop is an extremal fixpoint, but its "
            "relaxation body is not one the incremental engine implements "
            "(expected vec[src] + weight under min, or min(vec[src], "
            "weight) under max)"
        )
    algorithm = "sssp" if verdict.kind == "min" else "widest_path"

    graph = _load_graph(args.graph)
    source_vertex = int(args.args[0]) if args.args else 0
    with open(args.mutations, "r", encoding="utf-8") as handle:
        batches = parse_mutation_script(handle.read())
    if not batches:
        raise GraphItError(f"mutation script {args.mutations!r} is empty")

    session = IncrementalSession(
        graph, algorithm, source=source_vertex, schedule=schedule
    )
    base = session.run()
    print(
        f"converged from scratch: rounds={base.stats.rounds} "
        f"relaxations={base.stats.relaxations}"
    )
    verify = not args.no_verify
    for index, batch in enumerate(batches):
        result = session.apply(batch)
        line = (
            f"batch {index}: mutations={len(batch)} seeds={result.seeds} "
            f"invalidated={result.invalidated} "
            f"touched={result.vertices_touched}/{graph.num_vertices} "
            f"relaxations={result.stats.relaxations}"
        )
        if verify:
            oracle = IncrementalSession(
                session.graph, algorithm, source=source_vertex, schedule=schedule
            )
            if not np.array_equal(result.values, oracle.run().values):
                print(line + " verify=MISMATCH")
                print(
                    "run --incremental: resumed vector diverged from the "
                    "full re-run oracle"
                )
                return 1
            line += " verify=ok"
        print(line)
    values = session.values
    finite = values[np.abs(values) < 2**62]
    summary = f"min={finite.min()} max={finite.max()}" if finite.size else "empty"
    print(f"final vector: size={values.size} {summary}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "rmat":
        graph = rmat(args.scale, args.edge_factor, seed=args.seed)
    else:
        side = max(2, int(round((1 << args.scale) ** 0.5)))
        graph = road_grid(side, side, seed=args.seed)
    save_edge_list(graph, args.output)
    print(
        f"wrote {args.kind} graph ({graph.num_vertices} vertices, "
        f"{graph.num_edges} edges) to {args.output}"
    )
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    result = autotune(
        args.algorithm,
        graph,
        source=args.source,
        target=args.target,
        max_trials=args.trials,
        num_threads=args.threads,
        seed=args.seed,
    )
    best = result.best_schedule
    print(
        f"best schedule after {result.num_trials} trials "
        f"(space ~{result.space_size:,}):"
    )
    print(
        f"  priority_update={best.priority_update} delta={best.delta} "
        f"direction={best.direction} fusion_threshold="
        f"{best.bucket_fusion_threshold} num_buckets={best.num_buckets}"
    )
    print(f"  simulated cost: {result.best_cost:,.0f}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .midend.diagnostics import Severity, render_diagnostic
    from .midend.lint import lint_program

    as_json = getattr(args, "format", "text") == "json"
    findings: list[dict] = []
    total_errors = 0
    total_warnings = 0
    for name in args.programs:
        source = _load_source(name)
        try:
            schedule = _flag_schedule(args, source, name)
        except SchedulingError as error:
            diagnostics = [_rejected_flags(error, name)]
        else:
            diagnostics = lint_program(
                source,
                schedule=schedule,
                filename=name,
                include_info=args.info,
            )
        for diagnostic in diagnostics:
            if as_json:
                findings.append(
                    {
                        "code": diagnostic.code,
                        "severity": str(diagnostic.severity),
                        "span": {
                            "file": diagnostic.span.file or name,
                            "line": diagnostic.span.line,
                            "column": diagnostic.span.column,
                        },
                        "message": diagnostic.message,
                    }
                )
            else:
                print(render_diagnostic(diagnostic))
        total_errors += sum(
            1 for d in diagnostics if d.severity is Severity.ERROR
        )
        total_warnings += sum(
            1 for d in diagnostics if d.severity is Severity.WARNING
        )

    failed = bool(total_errors or (args.werror and total_warnings))
    checked = len(args.programs)
    if as_json:
        import json

        print(
            json.dumps(
                {
                    "diagnostics": findings,
                    "checked": checked,
                    "errors": total_errors,
                    "warnings": total_warnings,
                    "werror": bool(args.werror),
                    "ok": not failed,
                },
                indent=2,
            )
        )
    else:
        print(
            f"checked {checked} program{'s' if checked != 1 else ''}: "
            f"{total_errors} error(s), {total_warnings} warning(s)"
            + (" [-Werror]" if args.werror and total_warnings else "")
        )
    return 1 if failed else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analyze import build_analysis_document, render_analysis_text
    from .midend.diagnostics import render_diagnostic

    sources = {name: _load_source(name) for name in args.programs}
    schedules = {}
    for name, source in sources.items():
        try:
            schedules[name] = _flag_schedule(args, source, name)
        except SchedulingError as error:
            print(render_diagnostic(_rejected_flags(error, name)), file=sys.stderr)
            return 1
    document = build_analysis_document(sources, schedules)
    if args.format == "json":
        import json

        print(json.dumps(document, indent=2))
    else:
        sys.stdout.write(render_analysis_text(document))
    return 0


# Maps each schedule CLI flag to its Schedule field and argparse default;
# ``trace``/``profile`` apply only the flags the user actually changed, so the
# program's own inline ``schedule:`` block stays in charge of the rest.
_SCHEDULE_ARG_DEFAULTS = {
    "priority_update": ("priority_update", "eager_no_fusion"),
    "delta": ("delta", 1),
    "fusion_threshold": ("bucket_fusion_threshold", 1000),
    "num_buckets": ("num_buckets", 128),
    "direction": ("direction", "SparsePush"),
    "threads": ("num_threads", 8),
    "execution": ("execution", "serial"),
}


# ``lint`` / ``analyze`` take only these three schedule flags.
_ANALYSIS_ARG_DEFAULTS = {
    "priority_update": ("priority_update", None),
    "delta": ("delta", 1),
    "direction": ("direction", "SparsePush"),
}


def _schedule_with_overrides(
    base: Schedule, args: argparse.Namespace, flags=_SCHEDULE_ARG_DEFAULTS
) -> Schedule:
    overrides = {}
    for arg_name, (field_name, default) in flags.items():
        value = getattr(args, arg_name)
        if value != default:
            overrides[field_name] = value
    return base.with_(**overrides) if overrides else base


def _flag_schedule(args: argparse.Namespace, source: str, name: str):
    """``lint`` / ``analyze``: the schedule flags the user set, overlaid on
    the program's own schedule, or ``None`` when none is set.  Raises
    :class:`SchedulingError` when the result is not a valid schedule."""
    if all(
        getattr(args, arg_name) == default
        for arg_name, (_, default) in _ANALYSIS_ARG_DEFAULTS.items()
    ):
        return None
    try:
        base = compile_program(source, None).schedule
    except GraphItError:
        base = Schedule()  # the program's own rejection is reported as usual
    return _schedule_with_overrides(base, args, _ANALYSIS_ARG_DEFAULTS)


def _rejected_flags(error: SchedulingError, name: str):
    """A rejected command-line schedule, as a located S003 diagnostic."""
    from .midend.diagnostics import Diagnostic, Severity, located_span

    return Diagnostic(
        code="S003",
        severity=Severity.ERROR,
        message=f"the command-line schedule is invalid: {error}",
        span=located_span(None, name),
    )


def _traced_run(args: argparse.Namespace):
    """Compile and run ``args.program`` under a fresh tracer.

    Returns ``(tracer, result, schedule, graph_name)``.  The schedule
    resolution compiles once *outside* the tracer to pick up the program's
    inline ``schedule:`` block, then overlays only the schedule flags the
    user set explicitly.
    """
    from .obs import tracing

    source = _load_source(args.program)
    base_schedule = compile_program(source, None).schedule
    schedule = _schedule_with_overrides(base_schedule, args)
    if args.graph is None or args.graph == "-":
        graph = rmat(10, 16, seed=0, weights=(1, 4))
        graph_name = "rmat(scale=10,edge_factor=16,seed=0)"
    else:
        graph = _load_graph(args.graph)
        graph_name = args.graph
    program_args = list(args.args) if args.args else ["0"]
    with tracing() as tracer:
        program = compile_program(source, schedule)
        result = program.run(
            [args.program, graph_name, *program_args], graph=graph
        )
    return tracer, result, schedule, graph_name


def _trace_metadata(args, schedule: Schedule, graph_name: str) -> dict:
    return {
        "program": args.program,
        "graph": graph_name,
        "schedule": {
            "priority_update": schedule.priority_update,
            "delta": schedule.delta,
            "direction": schedule.direction,
            "bucket_fusion_threshold": schedule.bucket_fusion_threshold,
            "num_buckets": schedule.num_buckets,
            "num_threads": schedule.num_threads,
            "execution": schedule.execution,
        },
    }


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import write_chrome_trace

    tracer, result, schedule, graph_name = _traced_run(args)
    write_chrome_trace(
        args.out, tracer, metadata=_trace_metadata(args, schedule, graph_name)
    )
    stats = result.stats
    spans = sum(1 for e in tracer.events if e.get("ph") == "X")
    print(
        f"wrote {len(tracer.events)} trace events ({spans} spans) "
        f"to {args.out}"
    )
    print(
        f"rounds={stats.rounds} relaxations={stats.relaxations} "
        f"execution={schedule.execution}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import format_profile, self_profile, write_chrome_trace

    tracer, result, schedule, graph_name = _traced_run(args)
    rows = self_profile(tracer.events)
    print(format_profile(rows, top=args.top))
    if args.out:
        write_chrome_trace(
            args.out,
            tracer,
            metadata=_trace_metadata(args, schedule, graph_name),
        )
        print(f"wrote trace to {args.out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics``: run once, print the always-on metrics registry.

    The registry is process-wide and always on, so the snapshot covers the
    compile and the run the command just performed — no tracer needed.
    ``--workload`` additionally writes the run's workload profile (frontier
    shape, bucket occupancy, redundant-update ratio — the crossover axes)
    for the autotuner.
    """
    import json

    from .obs import metrics as metrics_registry
    from .obs import workload_profile, write_workload_profile

    source = _load_source(args.program)
    base_schedule = compile_program(source, None).schedule
    schedule = _schedule_with_overrides(base_schedule, args)
    if args.graph is None or args.graph == "-":
        graph = rmat(10, 16, seed=0, weights=(1, 4))
        graph_name = "rmat(scale=10,edge_factor=16,seed=0)"
    else:
        graph = _load_graph(args.graph)
        graph_name = args.graph
    program_args = list(args.args) if args.args else ["0"]
    program = compile_program(source, schedule)
    result = program.run([args.program, graph_name, *program_args], graph=graph)

    snap = metrics_registry.snapshot()
    if args.format == "prom":
        text = metrics_registry.prometheus_text()
    else:
        text = json.dumps(snap, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote metrics ({args.format}) to {args.out}")
    else:
        sys.stdout.write(text)
    if args.workload:
        profile = workload_profile(
            result.stats, schedule, graph, metrics_snapshot=snap
        )
        write_workload_profile(args.workload, profile)
        print(f"wrote workload profile to {args.workload}")
    return 0


def _cmd_last_run(args: argparse.Namespace) -> int:
    """``repro last-run``: show the last crash dump (a Chrome trace of the
    always-on span ring plus the error, run context and metrics)."""
    import json

    from .obs import last_run_path

    path = args.path or last_run_path()
    if not os.path.exists(path):
        print(
            f"no forensics dump at {path!r} (written when a repro command "
            "fails)"
        )
        return 1
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if args.raw:
        print(json.dumps(document, indent=2))
        return 0
    error = document.get("error") or {}
    print(f"forensics dump: {path}")
    print(f"written_at: {document.get('written_at')}")
    print(f"argv: {' '.join(document.get('argv') or []) or '(unknown)'}")
    print(f"error: {error.get('type')}: {error.get('message')}")
    context = document.get("context") or {}
    if context:
        print(f"context: {json.dumps(context, sort_keys=True)}")
    events = [
        event
        for event in document.get("traceEvents") or []
        if event.get("ph") != "M"
    ]
    print(f"{len(events)} recorded span(s); most recent last:")
    for event in events[-args.tail:]:
        name = f"{event.get('cat')}:{event.get('name')}"
        mark = " [raised]" if (event.get("args") or {}).get("error") else ""
        print(
            f"  {event.get('ts', 0):>10.0f}us "
            f"{name:<34} {event.get('dur', 0):>9.0f}us{mark}"
        )
    trace = error.get("traceback") or ""
    if isinstance(trace, list):
        trace = "".join(trace)
    trace = trace.strip()
    if trace and args.traceback:
        print("traceback:")
        for line in trace.splitlines():
            print(f"  {line}")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    """``repro trace-diff A B``: attribute a wall-time delta to phases."""
    import json

    from .obs import format_trace_diff, trace_diff

    try:
        diff = trace_diff(args.baseline, args.fresh)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        raise GraphItError(f"trace-diff: {error}")
    if args.format == "json":
        print(json.dumps(diff, indent=2))
    else:
        print(format_trace_diff(diff, top=args.top))
    return 0


def _resolve_serve_graph(spec: str):
    """A graph for the query service: a file path or an ``rmat:`` spec.

    ``rmat:scale=10,edge_factor=16,seed=0`` generates a synthetic graph
    in-process — the CI smoke job and local experiments boot without a
    fixture file on disk.
    """
    if spec.startswith("rmat:"):
        params = {"scale": 10, "edge_factor": 16, "seed": 0}
        for part in spec[len("rmat:"):].split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            if not sep or name.strip() not in params:
                raise GraphItError(
                    f"bad rmat spec component {part!r}; expected "
                    "scale=/edge_factor=/seed="
                )
            try:
                params[name.strip()] = int(value)
            except ValueError:
                raise GraphItError(f"rmat spec {name.strip()!r} must be an integer")
        graph = rmat(
            params["scale"], params["edge_factor"], seed=params["seed"],
            weights=(1, 4),
        )
        name = (
            f"rmat(scale={params['scale']},"
            f"edge_factor={params['edge_factor']},seed={params['seed']})"
        )
        return graph, name
    return _load_graph(spec), spec


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: load the graph once, answer queries until killed."""
    import asyncio

    from .serve import QueryServer, ServeEngine

    graph, name = _resolve_serve_graph(args.graph)
    engine = ServeEngine(
        graph,
        graph_name=name,
        max_pending=args.max_pending,
        cache_capacity=args.cache_capacity,
        workers=args.threads,
    )
    server = QueryServer(engine, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        print(
            f"serving {name} ({graph.num_vertices} vertices, "
            f"{graph.num_edges} edges) on "
            f"http://{server.host}:{server.port}",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("serve: shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphIt priority-extension reproduction (CGO 2020)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compile_parser = commands.add_parser(
        "compile", help="compile a DSL program to Python or C++ source"
    )
    compile_parser.add_argument(
        "program", help=f"a .gt file or one of: {', '.join(sorted(ALL_PROGRAMS))}"
    )
    compile_parser.add_argument(
        "--backend", default="python", choices=("python", "cpp")
    )
    compile_parser.add_argument("-o", "--output", help="output file (default stdout)")
    _add_schedule_arguments(compile_parser)
    compile_parser.set_defaults(handler=_cmd_compile)

    run_parser = commands.add_parser(
        "run", help="compile (Python backend) and run on a graph file"
    )
    run_parser.add_argument("program")
    run_parser.add_argument("graph", help="edge-list (.el) or .npz graph file")
    run_parser.add_argument(
        "args", nargs="*", help="extra argv for the program (e.g. start vertex)"
    )
    _add_schedule_arguments(run_parser)
    run_parser.add_argument(
        "--sanitize",
        action="store_true",
        help="validate every apply operator against the static effect "
        "summary at runtime (fails loudly on any unreported access)",
    )
    run_parser.add_argument(
        "--incremental",
        action="store_true",
        help="after the converged run, apply the --mutations script batch "
        "by batch and resume the ordered engine from a seeded frontier "
        "instead of recomputing (requires an I001-eligible program)",
    )
    run_parser.add_argument(
        "--mutations",
        default=None,
        help="mutation script: lines of 'add SRC DST [W]' / 'remove SRC "
        "DST' / 'update SRC DST W', with 'flush' separating batches",
    )
    run_parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the per-batch bit-exact comparison against a "
        "from-scratch run on the mutated graph",
    )
    run_parser.set_defaults(handler=_cmd_run)

    generate_parser = commands.add_parser(
        "generate", help="generate a synthetic graph file"
    )
    generate_parser.add_argument("kind", choices=("rmat", "road"))
    generate_parser.add_argument("--scale", type=int, default=10)
    generate_parser.add_argument("--edge-factor", type=int, default=16)
    generate_parser.add_argument("--seed", type=int, default=0)
    generate_parser.add_argument("-o", "--output", required=True)
    generate_parser.set_defaults(handler=_cmd_generate)

    autotune_parser = commands.add_parser(
        "autotune", help="search for a schedule for an algorithm/graph pair"
    )
    autotune_parser.add_argument(
        "algorithm",
        choices=("sssp", "wbfs", "ppsp", "astar", "kcore", "setcover"),
    )
    autotune_parser.add_argument("graph")
    autotune_parser.add_argument("--source", type=int, default=0)
    autotune_parser.add_argument("--target", type=int, default=None)
    autotune_parser.add_argument("--trials", type=int, default=40)
    autotune_parser.add_argument("--threads", type=int, default=8)
    autotune_parser.add_argument("--seed", type=int, default=0)
    autotune_parser.set_defaults(handler=_cmd_autotune)

    lint_parser = commands.add_parser(
        "lint",
        help="run the midend diagnostics engine over one or more programs",
    )
    lint_parser.add_argument(
        "programs",
        nargs="+",
        help=f".gt files and/or built-ins: {', '.join(sorted(ALL_PROGRAMS))}",
    )
    lint_parser.add_argument(
        "--werror",
        action="store_true",
        help="treat warnings as errors (nonzero exit on any warning)",
    )
    lint_parser.add_argument(
        "--info",
        action="store_true",
        help="also print informational race-classification notes (R002/R003)",
    )
    lint_group = lint_parser.add_argument_group(
        "schedule to lint under (default: the program's own / a feasible one)"
    )
    lint_group.add_argument(
        "--priority-update",
        default=None,
        choices=PRIORITY_UPDATE_STRATEGIES,
    )
    lint_group.add_argument("--delta", type=int, default=1)
    lint_group.add_argument(
        "--direction", default="SparsePush", choices=("SparsePush", "DensePull")
    )
    lint_parser.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="text prints file:line:col diagnostics; json emits one "
        "machine-readable document (code, severity, span, message)",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    analyze_parser = commands.add_parser(
        "analyze",
        help="print the whole-program effect analysis: per-UDF read/write "
        "sets, monotonicity verdicts, and the fusion-safety matrix",
    )
    analyze_parser.add_argument(
        "programs",
        nargs="+",
        help=f".gt files and/or built-ins: {', '.join(sorted(ALL_PROGRAMS))}",
    )
    analyze_parser.add_argument(
        "--format", default="text", choices=("text", "json")
    )
    analyze_group = analyze_parser.add_argument_group(
        "schedule to analyze under (default: the program's own / a feasible one)"
    )
    analyze_group.add_argument(
        "--priority-update",
        default=None,
        choices=PRIORITY_UPDATE_STRATEGIES,
    )
    analyze_group.add_argument("--delta", type=int, default=1)
    analyze_group.add_argument(
        "--direction", default="SparsePush", choices=("SparsePush", "DensePull")
    )
    analyze_parser.set_defaults(handler=_cmd_analyze)

    trace_parser = commands.add_parser(
        "trace",
        help="run a program under the tracer and write Chrome-trace JSON "
        "(open in Perfetto / chrome://tracing)",
    )
    trace_parser.add_argument(
        "program", help=f"a .gt file or one of: {', '.join(sorted(ALL_PROGRAMS))}"
    )
    trace_parser.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="edge-list (.el) or .npz graph file; '-' or omitted for a "
        "synthetic R-MAT (scale 10)",
    )
    trace_parser.add_argument(
        "args", nargs="*", help="extra argv for the program (default: '0')"
    )
    trace_parser.add_argument(
        "--out", default="trace.json", help="output trace file"
    )
    _add_schedule_arguments(trace_parser)
    trace_parser.set_defaults(handler=_cmd_trace)

    profile_parser = commands.add_parser(
        "profile",
        help="run a program under the tracer and print a self-time profile",
    )
    profile_parser.add_argument(
        "program", help=f"a .gt file or one of: {', '.join(sorted(ALL_PROGRAMS))}"
    )
    profile_parser.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="edge-list (.el) or .npz graph file; '-' or omitted for a "
        "synthetic R-MAT (scale 10)",
    )
    profile_parser.add_argument(
        "args", nargs="*", help="extra argv for the program (default: '0')"
    )
    profile_parser.add_argument(
        "--top", type=int, default=15, help="rows to print (default 15)"
    )
    profile_parser.add_argument(
        "--out", default=None, help="also write the Chrome-trace JSON here"
    )
    _add_schedule_arguments(profile_parser)
    profile_parser.set_defaults(handler=_cmd_profile)

    metrics_parser = commands.add_parser(
        "metrics",
        help="run a program and print the always-on metrics registry "
        "(JSON or Prometheus text exposition)",
    )
    metrics_parser.add_argument(
        "program", help=f"a .gt file or one of: {', '.join(sorted(ALL_PROGRAMS))}"
    )
    metrics_parser.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="edge-list (.el) or .npz graph file; '-' or omitted for a "
        "synthetic R-MAT (scale 10)",
    )
    metrics_parser.add_argument(
        "args", nargs="*", help="extra argv for the program (default: '0')"
    )
    metrics_parser.add_argument(
        "--format",
        default="json",
        choices=("json", "prom"),
        help="json dumps the snapshot; prom emits Prometheus text "
        "exposition format",
    )
    metrics_parser.add_argument(
        "--out", default=None, help="write the metrics here instead of stdout"
    )
    metrics_parser.add_argument(
        "--workload",
        default=None,
        metavar="PATH",
        help="also write the run's workload profile (frontier shape, "
        "bucket occupancy, redundant-update ratio) as JSON",
    )
    _add_schedule_arguments(metrics_parser)
    metrics_parser.set_defaults(handler=_cmd_metrics)

    last_run_parser = commands.add_parser(
        "last-run",
        help="inspect the flight recorder forensics dump from the most "
        "recent failed invocation",
    )
    last_run_parser.add_argument(
        "--path",
        default=None,
        help="forensics file (default: $REPRO_STATE_DIR or "
        ".repro/last_run.json)",
    )
    last_run_parser.add_argument(
        "--raw", action="store_true", help="print the raw JSON document"
    )
    last_run_parser.add_argument(
        "--tail",
        type=int,
        default=20,
        help="recorded spans to show (default 20)",
    )
    last_run_parser.add_argument(
        "--traceback",
        action="store_true",
        help="also print the recorded Python traceback",
    )
    last_run_parser.set_defaults(handler=_cmd_last_run)

    diff_parser = commands.add_parser(
        "trace-diff",
        help="attribute the wall-time delta between two runs to phases "
        "(inputs: chrome traces, phase profiles, or bench/run.py span files)",
    )
    diff_parser.add_argument(
        "baseline", help="baseline artifact (trace/profile/span JSON)"
    )
    diff_parser.add_argument(
        "fresh", help="fresh artifact to attribute against the baseline"
    )
    diff_parser.add_argument(
        "--top", type=int, default=10, help="phases to print (default 10)"
    )
    diff_parser.add_argument(
        "--format", default="text", choices=("text", "json")
    )
    diff_parser.set_defaults(handler=_cmd_trace_diff)

    serve_parser = commands.add_parser(
        "serve",
        help="long-running query service: load a graph once, answer "
        "concurrent point queries over HTTP/JSON",
    )
    serve_parser.add_argument(
        "--graph",
        required=True,
        help="graph file (.el/.npz) or an in-process generator spec like "
        "rmat:scale=10,edge_factor=16,seed=0",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8732, help="0 picks an ephemeral port"
    )
    serve_parser.add_argument(
        "--threads",
        type=int,
        default=2,
        help="worker threads running traversals (default 2)",
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission budget: fresh traversals beyond this many pending "
        "are rejected with 429 + Retry-After (cache hits and coalesced "
        "joins are always admitted)",
    )
    serve_parser.add_argument(
        "--cache-capacity",
        type=int,
        default=128,
        help="result-cache capacity in traversals (default 128)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    effective_argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.handler(args)
    except GraphItError as error:
        _dump_forensics_quietly(error, effective_argv)
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception as error:
        # Unexpected crash: preserve the traceback for the caller, but
        # dump the flight recorder first so `repro last-run` has the
        # spans leading up to it.
        _dump_forensics_quietly(error, effective_argv)
        raise


def _dump_forensics_quietly(error: BaseException, argv: list[str]) -> None:
    """Write the flight-recorder dump, never masking the original error."""
    from .obs import dump_forensics

    path = dump_forensics(error, argv=argv)
    if path is not None:
        print(
            f"forensics written to {path} (inspect with `repro last-run`)",
            file=sys.stderr,
        )
