"""``social_interp`` / ``road_interp``: compiled DSL on the Python runtime.

One *bundle* is the three compiled cells plus the direct-API ``repro.sssp``
for one source.  The untraced run repeats bundles over the seeded source
list until ``--seconds`` is spent, so every class is sampled across the
whole timed section, and reports per class the mean over the sources of
each source's fastest query (``common.best``: few sources, many repeats).
The traced run makes one fixed pass without and one with
``repro.obs.tracing()`` so its counts repeat exactly.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

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
    nproc,
    peak_rss_mb,
    pick_sources,
    ratio,
    repeat_setup,
)
from spec import CELLS

PARAMS = {
    # traced_bundles: the fixed query list of the traced run, per pass
    "social_interp": dict(family="social", delta=8, sources=2, traced_bundles=4, setup_repeats=3),
    "road_interp": dict(family="road", delta=512, sources=1, traced_bundles=3, setup_repeats=3),
}


def make_graph(family: str, seed: int, smoke: bool, size: str = "large"):
    """The two structural extremes, at the sizes each workload names."""
    from repro.graph import rmat, road_grid

    if family == "social":
        scale = 10 if smoke else {"large": 17, "medium": 16, "small": 12}[size]
        high = 100 if size == "small" else 1000
        return rmat(scale, 16, weights=(1, high), seed=seed)
    side = 40 if smoke else {"large": 500, "medium": 300}[size]
    return road_grid(side, side, seed=seed)


def grid_side(family: str, graph) -> int:
    """Side of the square road grid (vertex = row * side + column), else 0."""
    return round(graph.num_vertices ** 0.5) if family == "road" else 0


def cell_schedules(delta: int, **common) -> dict:
    from repro import Schedule

    return {
        "sssp_lazy": Schedule(priority_update="lazy", delta=delta, **common),
        "sssp_eager": Schedule(priority_update="eager_with_fusion", delta=delta, **common),
        "kcore": Schedule(priority_update="lazy_constant_sum", **common),
    }


def cell_program(cell: str) -> str:
    from repro.lang.programs import ALL_PROGRAMS

    return ALL_PROGRAMS["kcore" if cell == "kcore" else "sssp"]


def cell_query(cell: str, source: int) -> tuple[list[str], str]:
    """``argv`` for one query of ``cell`` and the vector that holds its answer."""
    if cell == "kcore":
        return ["bench", "-"], "D"
    return ["bench", "-", str(source)], "dist"


def compile_layers(spans, text: str, schedule, qid=None) -> dict:
    """Time each public compiler stage for one (program, schedule)."""
    from repro import compile_program
    from repro.backend import generate_python
    from repro.backend.cpp_backend import generate_cpp
    from repro.lang.parser import parse
    from repro.midend.transforms.lowering import plan_program

    with spans.span("compile_program", "backend", qid) as whole:
        compile_program(text, schedule)
    with spans.span("parse", "lang", qid) as sp_parse:
        tree = parse(text)
    with spans.span("plan_program", "midend", qid) as sp_plan:
        plan = plan_program(tree, schedule)
    with spans.span("generate_python", "backend", qid) as sp_py:
        python_text = generate_python(plan)
    with spans.span("generate_cpp", "backend", qid) as sp_cpp:
        cpp_text = generate_cpp(plan)
    return {
        "compile_ms": whole.ms,
        "parse_us": sp_parse.ms * 1e3,
        "plan_us": sp_plan.ms * 1e3,
        "codegen_python_us": sp_py.ms * 1e3,
        "codegen_cpp_us": sp_cpp.ms * 1e3,
        # compile_program = parse + plan + generate_python + exec of the text
        "load_module_us": max(0.0, (whole.ms - sp_parse.ms - sp_plan.ms - sp_py.ms) * 1e3),
        "python_lines": python_text.count("\n") + 1,
        "cpp_lines": cpp_text.count("\n") + 1,
    }


def compile_layer_metrics(rows: list[dict]) -> dict:
    return {
        "lang.parse_us": median(r["parse_us"] for r in rows),
        "midend.plan_us": median(r["plan_us"] for r in rows),
        "backend.codegen_python_us": median(r["codegen_python_us"] for r in rows),
        "backend.codegen_python_lines": float(sum(r["python_lines"] for r in rows)),
        "backend.codegen_cpp_us": median(r["codegen_cpp_us"] for r in rows),
        "backend.codegen_cpp_lines": float(sum(r["cpp_lines"] for r in rows)),
        "backend.load_module_us": median(r["load_module_us"] for r in rows),
        "backend.compile_ms": median(r["compile_ms"] for r in rows),
    }


def busy_split(profile: dict) -> tuple[float, float, float]:
    """(bucket, apply, other) self time in ms of one traced ``program.run``."""
    bucket = apply = other = 0.0
    for phase in profile["phases"]:
        self_ms = phase["self_us"] / 1e3
        if phase["name"].startswith("bucket."):
            bucket += self_ms
        elif phase["name"].startswith("apply."):
            apply += self_ms
        else:
            other += self_ms
    return bucket, apply, other


def run(cfg: Config) -> dict:
    from repro import Schedule, compile_program, obs, sssp

    P = PARAMS[cfg.workload]
    spans, tally = cfg.spans, Tally()
    delta = P["delta"]
    schedules = cell_schedules(delta)
    lib_schedule = Schedule(priority_update="eager_with_fusion", delta=delta)
    timings: dict[str, float] = {}

    def setup():
        with spans.span("generate", "graph") as sp:
            graph = make_graph(P["family"], cfg.seed, cfg.smoke)
        timings["generate_s"] = sp.s
        with spans.span("symmetrized", "graph") as sp:
            symmetric = graph.symmetrized()
        timings["symmetrize_s"] = sp.s
        with spans.span("compile_program", "backend"):
            programs = {c: compile_program(cell_program(c), schedules[c]) for c in CELLS}
        return graph, symmetric, programs

    setup_s, (graph, symmetric, programs) = repeat_setup(
        setup, 1 if cfg.smoke else P["setup_repeats"]
    )

    # Sources and reference answers, outside every metric.
    ref_start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    sources, ref_dist = pick_sources(graph, rng, P["sources"], grid_side(P["family"], graph))
    ref_core = kcore_oracle(symmetric.indptr, symmetric.indices)
    reference_s = time.perf_counter() - ref_start

    # One-time initialisation (lazy imports, numpy dispatch tables) is paid
    # on a toy graph, not on the first timed query.
    toy = make_graph(P["family"], cfg.seed, smoke=True)
    for c in CELLS:
        programs[c].run(cell_query(c, 0)[0], graph=toy.symmetrized() if c == "kcore" else toy)
    sssp(toy, 0, lib_schedule)

    # class -> source -> times in ms
    samples: dict[str, dict[int, list[float]]] = {c: {s: [] for s in sources} for c in (*CELLS, "lib_sssp")}
    counts = {c: dict(rounds=0, fused_rounds=0, relaxations=0, priority_updates=0, bucket_inserts=0) for c in CELLS}
    # Second pass of the traced run: per-query time under repro.obs.tracing()
    # and the (bucket, apply, other) self times its phase profile gives.
    traced: dict[str, list[float]] = {c: [] for c in CELLS}
    busy = {c: ([], [], []) for c in CELLS}

    def bundle(qid: int, source: int, second_pass: bool = False) -> None:
        for c in CELLS:
            argv, vector = cell_query(c, source)
            target = symmetric if c == "kcore" else graph
            with obs.tracing() if second_pass else nullcontext() as tracer:
                with spans.span(f"run.{c}", "runtime", qid) as sp:
                    result = programs[c].run(argv, graph=target)
            if second_pass:
                for total, part in zip(busy[c], busy_split(obs.phase_profile(tracer))):
                    total.append(part)
            expect = ref_core if c == "kcore" else ref_dist[source]
            if not tally.check(np.array_equal(result.globals[vector], expect), f"{c} source={source}"):
                continue
            if second_pass:
                traced[c].append(sp.ms)
                continue
            samples[c][source].append(sp.ms)
            for key in counts[c]:
                counts[c][key] += int(getattr(result.stats, key))
        if second_pass:
            return
        with spans.span("sssp", "algorithms", qid) as sp:
            lib = sssp(graph, source, lib_schedule)
        if tally.check(np.array_equal(lib.distances, ref_dist[source]), f"lib_sssp source={source}"):
            samples["lib_sssp"][source].append(sp.ms)

    layers: dict[str, float] = {}
    start = time.perf_counter()
    if not cfg.trace:
        done = 0
        while done < len(sources) or (not cfg.smoke and time.perf_counter() - start < cfg.seconds):
            bundle(done, sources[done % len(sources)])
            done += 1
    else:
        bundles = 1 if cfg.smoke else P["traced_bundles"]
        for qid in range(bundles):
            bundle(qid, sources[qid % len(sources)])
        for qid in range(bundles):
            bundle(bundles + qid, sources[qid % len(sources)], second_pass=True)
        layers["obs.trace_overhead_share"] = mean(
            ratio(median(traced[c]) - median(flat(samples[c])), median(flat(samples[c]))) for c in CELLS
        )
        for c in CELLS:
            layers[f"buckets.busy_ms.{c}"] = mean(busy[c][0])
            layers[f"backend.apply_busy_ms.{c}"] = mean(busy[c][1])
            layers[f"runtime.other_busy_ms.{c}"] = mean(busy[c][2])
    rss = peak_rss_mb()

    e2e = {"setup_s": setup_s, "peak_rss_mb": rss}
    for c in CELLS:
        e2e[f"{c}_ms"] = best(samples[c])
    # Input edges of one query of each class over the time the three take.
    bundle_edges = 2 * graph.num_edges + symmetric.num_edges
    extras = {
        "lib_sssp_ms": best(samples["lib_sssp"]),
        "medges_per_s": ratio(bundle_edges / 1e3, sum(e2e[f"{c}_ms"] for c in CELLS)),
    }

    if cfg.trace:
        layers.update(_traced_probes(cfg, graph, symmetric, sources, ref_dist, ref_core, tally, schedules, delta))
        for c in CELLS:
            k = counts[c]
            wall_ns = sum(flat(samples[c])) * 1e6
            for key, value in k.items():
                layers[f"runtime.{key}.{c}"] = float(value)
            layers[f"runtime.ns_per_relaxation.{c}"] = ratio(wall_ns, k["relaxations"])
            layers[f"runtime.us_per_round.{c}"] = ratio(wall_ns / 1e3, k["rounds"] + k["fused_rounds"])
            layers[f"runtime.useful_update_share.{c}"] = ratio(k["priority_updates"], k["relaxations"])
        layers["graph.generate_s"] = timings["generate_s"]
        layers["graph.symmetrize_s"] = timings["symmetrize_s"]
        layers["graph.csr_mb"] = csr_mb(graph, symmetric)
        layers["algorithms.lib_sssp_ms"] = extras["lib_sssp_ms"]
        layers["algorithms.over_compiled"] = ratio(extras["lib_sssp_ms"], e2e["sssp_eager_ms"])
        layers["runtime.parallel_over_serial"] = ratio(layers["runtime.parallel_sssp_ms"], e2e["sssp_lazy_ms"])
        layers["bench.reference_s"] = reference_s
        layers["bench.medges_per_s"] = extras["medges_per_s"]

    return {
        "e2e": e2e,
        "extras": extras,
        "layers": layers,
        "tally": tally,
        "config": {
            "graph": P["family"],
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "symmetrized_edges": int(symmetric.num_edges),
            "delta": delta,
            "sources": sources,
            "samples_per_cell": {c: len(flat(v)) for c, v in samples.items()},
            "median_ms": {c: round(median(flat(v)), 3) for c, v in samples.items()},
            "timed_section_s": time.perf_counter() - start,
            "execution": "serial",
        },
    }


def _traced_probes(cfg, graph, symmetric, sources, ref_dist, ref_core, tally, schedules, delta) -> dict:
    """Direct-API and thread-engine timings plus the compile stage split."""
    from repro import Schedule, compile_program, kcore, sssp

    spans = cfg.spans
    out: dict[str, float] = {}
    lazy_ms = []
    for source in sources:
        with spans.span("sssp.lazy", "algorithms") as sp:
            lib = sssp(graph, source, schedules["sssp_lazy"])
        if tally.check(np.array_equal(lib.distances, ref_dist[source]), f"lib lazy source={source}"):
            lazy_ms.append(sp.ms)
    out["algorithms.sssp_lazy_ms"] = median(lazy_ms)
    with spans.span("kcore", "algorithms") as sp:
        lib_core = kcore(symmetric, schedules["kcore"])
    tally.check(np.array_equal(lib_core.coreness, ref_core), "lib kcore")
    out["algorithms.kcore_ms"] = sp.ms

    parallel = compile_program(
        cell_program("sssp_lazy"),
        Schedule(priority_update="lazy", delta=delta, execution="parallel", num_threads=nproc()),
    )
    parallel_ms = []
    for source in sources:
        with spans.span("run.parallel", "runtime") as sp:
            result = parallel.run(["bench", "-", str(source)], graph=graph)
        if tally.check(np.array_equal(result.globals["dist"], ref_dist[source]), f"parallel source={source}"):
            parallel_ms.append(sp.ms)
    out["runtime.parallel_sssp_ms"] = median(parallel_ms)

    rows = [compile_layers(spans, cell_program(c), schedules[c]) for c in CELLS]
    out.update(compile_layer_metrics(rows))
    return out
