"""``native``: the same three cells with ``execution="native"`` on both graphs.

Set-up pays every cold cost once: each distinct kernel is built by a *cold
query* (DSL text and ``.npz`` on disk, empty kernel cache entry -> verified
answer), which also leaves the cache warm for the timed section.  The timed
section is warm queries only, alternating the two graphs.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np

from common import (
    Config,
    Tally,
    best,
    csr_mb,
    flat,
    kcore_oracle,
    mean,
    median,
    peak_rss_mb,
    pick_sources,
    ratio,
    sssp_oracle,
)
from spec import CELLS
from wl_interp import (
    cell_program,
    cell_query,
    cell_schedules,
    compile_layer_metrics,
    compile_layers,
    grid_side,
    make_graph,
)

FAMILIES = (("social", 8), ("road", 512))
SOURCES = 2
TRACED_BUNDLES = 6  # per graph, per pass


def compile_sweep(spans) -> list[dict]:
    """Every built-in program under every strategy legal for it."""
    from repro import Schedule
    from repro.errors import GraphItError
    from repro.lang.programs import ALL_PROGRAMS

    rows = []
    for name, text in ALL_PROGRAMS.items():
        for strategy in ("lazy", "eager_with_fusion", "lazy_constant_sum"):
            delta = 1 if name in ("kcore", "setcover", "wbfs") or strategy == "lazy_constant_sum" else 8
            try:
                schedule = Schedule(priority_update=strategy, delta=delta)
                rows.append(compile_layers(spans, text, schedule, qid=f"{name}/{strategy}"))
            except GraphItError:
                continue  # the compiler rejects the combination (e.g. constant-sum on sssp)
    return rows


def run(cfg: Config) -> dict:
    from repro import compile_program, obs
    from repro.graph import load_npz, save_npz

    spans, tally = cfg.spans, Tally()
    # One thread: with two OpenMP threads on the two vCPUs this is gated on,
    # k-core ran 3-4x and lazy SSSP 2x slower than with one, and a few queries
    # in a thousand ran at the one-thread speed, so their fastest was not steady.
    threads = 1
    timings: dict[str, list[float]] = {"generate_s": [], "symmetrize_s": [], "cold_ms": [], "load_npz_ms": []}
    fallbacks = 0

    def answer_ok(side, cell: str, source: int, result, program) -> bool:
        nonlocal fallbacks
        if program.native_fallback_reason is not None:
            fallbacks += 1
            return tally.check(False, f"N101 fallback {side.family}/{cell}: {program.native_fallback_reason}")
        expect = side.ref_core if cell == "kcore" else side.ref_dist[source]
        return tally.check(
            np.array_equal(result.globals[cell_query(cell, source)[1]], expect),
            f"native {side.family}/{cell} source={source}",
        )

    # Inputs first (graph generation is set-up), references next (excluded),
    # then the cold queries that finish set-up.
    setup_start = time.perf_counter()
    sides = []
    for family, delta in FAMILIES:
        # One graph family: graphs, .npz paths, warm programs, sources, references.
        side = SimpleNamespace(family=family, delta=delta)
        with spans.span("generate", "graph") as sp:
            side.graph = make_graph(family, cfg.seed, cfg.smoke)
        timings["generate_s"].append(sp.s)
        with spans.span("symmetrized", "graph") as sp:
            side.symmetric = side.graph.symmetrized()
        timings["symmetrize_s"].append(sp.s)
        side.paths = {}
        for label, graph in (("directed", side.graph), ("symmetric", side.symmetric)):
            if label == "symmetric" and family == "social":
                continue  # the k-core kernel is shared; its one cold query runs on road
            side.paths[label] = cfg.workdir / "data" / f"{family}-{label}.npz"
            with spans.span("save_npz", "graph"):
                save_npz(graph, side.paths[label])
        side.schedules = cell_schedules(delta, execution="native", num_threads=threads)
        sides.append(side)
    setup_s = time.perf_counter() - setup_start

    ref_start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    for side in sides:
        side.sources, side.ref_dist = pick_sources(side.graph, rng, SOURCES, grid_side(side.family, side.graph))
        side.ref_core = kcore_oracle(side.symmetric.indptr, side.symmetric.indices)
    reference_s = time.perf_counter() - ref_start

    setup_start = time.perf_counter()
    built: set = set()
    qid = 0
    for side in reversed(sides):  # road first: it holds the symmetric .npz for the k-core cold query
        side.programs = {}
        for cell in CELLS:
            schedule = side.schedules[cell]
            key = (cell_program(cell), schedule)
            label = "symmetric" if cell == "kcore" else "directed"
            cold = key not in built and label in side.paths
            built.add(key)
            source = side.sources[0]
            with spans.span(f"cold.{cell}" if cold else f"first.{cell}", "native", f"cold{qid}") as whole:
                with spans.span("compile_program", "backend", f"cold{qid}"):
                    program = compile_program(cell_program(cell), schedule)
                if cold:
                    with spans.span("load_npz", "graph", f"cold{qid}") as sp_load:
                        graph = load_npz(side.paths[label])
                else:
                    graph = side.symmetric if cell == "kcore" else side.graph
                with spans.span(f"run.{cell}", "native", f"cold{qid}"):
                    result = program.run(cell_query(cell, source)[0], graph=graph)
            qid += 1
            if answer_ok(side, cell, source, result, program) and cold:
                timings["cold_ms"].append(whole.ms)
                timings["load_npz_ms"].append(sp_load.ms)
            side.programs[cell] = program
    setup_s += time.perf_counter() - setup_start

    # (graph, class) -> source -> times in ms
    samples = {(side.family, c): {s: [] for s in side.sources} for side in sides for c in CELLS}
    traced_samples = {key: {s: [] for s in by_source} for key, by_source in samples.items()}

    def bundle(side, index: int, into: dict, traced: bool = False) -> None:
        source = side.sources[index % len(side.sources)]
        for cell in CELLS:
            graph = side.symmetric if cell == "kcore" else side.graph
            program = side.programs[cell]
            with obs.tracing() if traced else nullcontext():
                with spans.span(f"run.{cell}", "native", f"{side.family}{index}") as sp:
                    result = program.run(cell_query(cell, source)[0], graph=graph)
            if answer_ok(side, cell, source, result, program):
                into[(side.family, cell)][source].append(sp.ms)

    layers: dict[str, float] = {}
    start = time.perf_counter()
    if not cfg.trace:
        done = 0
        while done < len(sides[0].sources) or (not cfg.smoke and time.perf_counter() - start < cfg.seconds):
            for side in sides:
                bundle(side, done, samples)
            done += 1
    else:
        bundles = 2 if cfg.smoke else TRACED_BUNDLES
        for index in range(bundles):
            for side in sides:
                bundle(side, index, samples)
        for index in range(bundles):
            for side in sides:
                bundle(side, index, traced_samples, traced=True)
        layers["obs.trace_overhead_share"] = mean(
            ratio(best(traced_samples[key]) - best(samples[key]), best(samples[key]))
            for key in samples
        )
    sweep = compile_sweep(spans)
    rss = peak_rss_mb()

    e2e = {"setup_s": setup_s, "peak_rss_mb": rss}
    for cell in CELLS:
        # The two graphs' times differ by design; their mean weighs both.
        e2e[f"{cell}_ms"] = mean(best(samples[(side.family, cell)]) for side in sides)
    # Input edges of one query of each class on each graph over the time the six take.
    bundle_edges = sum(2 * side.graph.num_edges + side.symmetric.num_edges for side in sides)
    extras = {
        "medges_per_s": ratio(bundle_edges / 1e3, sum(best(v) for v in samples.values())),
        "cold_query_ms": mean(timings["cold_ms"]),
        "compile_ms": median(r["compile_ms"] for r in sweep),
    }

    if cfg.trace:
        layers.update(compile_layer_metrics(sweep))
        layers.update(_native_probes(cfg, tally))
        layers["native.cold_query_ms"] = extras["cold_query_ms"]
        layers["native.fallbacks"] = float(fallbacks)
        layers["graph.load_npz_ms"] = median(timings["load_npz_ms"])
        layers["graph.generate_s"] = sum(timings["generate_s"])
        layers["graph.symmetrize_s"] = sum(timings["symmetrize_s"])
        layers["graph.csr_mb"] = csr_mb(*(g for side in sides for g in (side.graph, side.symmetric)))
        layers["bench.reference_s"] = reference_s
        layers["bench.medges_per_s"] = extras["medges_per_s"]

    return {
        "e2e": e2e,
        "extras": extras,
        "layers": layers,
        "tally": tally,
        "config": {
            "graphs": {
                side.family: {"num_vertices": int(side.graph.num_vertices), "num_edges": int(side.graph.num_edges), "delta": side.delta}
                for side in sides
            },
            "num_threads": threads,
            "cold_queries": len(timings["cold_ms"]),
            "compiles_in_sweep": len(sweep),
            "per_graph_ms": {f"{f}/{c}": round(best(v), 3) for (f, c), v in samples.items()},
            "samples_per_cell": {f"{f}/{c}": len(flat(v)) for (f, c), v in samples.items()},
            "median_ms": {f"{f}/{c}": round(median(flat(v)), 3) for (f, c), v in samples.items()},
            "timed_section_s": time.perf_counter() - start,
            "execution": "native",
        },
    }


def _native_probes(cfg: Config, tally: Tally) -> dict:
    """Build, cache-hit, first-run and dispatch-floor costs of one kernel,
    on an empty cache directory of its own."""
    from repro import compile_program
    from repro.backend.native import build_kernel, discover_toolchain, generate_native_cpp
    from repro.graph import road_grid

    spans = cfg.spans
    previous = os.environ["REPRO_KERNEL_CACHE"]
    os.environ["REPRO_KERNEL_CACHE"] = str(cfg.workdir / "kernels-probe")
    try:
        schedule = cell_schedules(4, execution="native", num_threads=1)["sssp_eager"]
        program = compile_program(cell_program("sssp_eager"), schedule)
        toolchain = discover_toolchain()
        with spans.span("generate_native_cpp", "native"):
            text = generate_native_cpp(program.plan)
        with spans.span("build_kernel.miss", "native") as build:
            library = build_kernel(text, toolchain)
        hits = []
        for _ in range(50):
            with spans.span("build_kernel.hit", "native") as sp:
                build_kernel(text, toolchain)
            hits.append(sp.ms * 1e3)
        tiny = road_grid(4, 4, seed=cfg.seed)
        with spans.span("run.first", "native") as first:
            result = program.run(["bench", "-", "0"], graph=tiny)
        src, dst, w = tiny.edge_list()
        expect = sssp_oracle(tiny.num_vertices, src, dst, w, [0])[0]
        tally.check(
            program.native_fallback_reason is None and np.array_equal(result.globals["dist"], expect),
            "native probe kernel",
        )
        floor = []
        for _ in range(200):
            with spans.span("run.floor", "native") as sp:
                program.run(["bench", "-", "0"], graph=tiny)
            floor.append(sp.ms * 1e3)
        return {
            "native.build_ms": build.ms,
            "native.cache_hit_us": median(hits),
            "native.first_run_ms": first.ms,
            "native.dispatch_floor_us": median(floor),
            "native.so_kb": library.stat().st_size / 1024.0,
        }
    finally:
        os.environ["REPRO_KERNEL_CACHE"] = previous
