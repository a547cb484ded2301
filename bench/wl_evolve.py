"""``evolve``: mutation batches against warm incremental sessions.

Per graph, two warm ``IncrementalSession("sssp")`` (lazy and eager+fusion)
share one source; each batch of 64 valid edits is applied to both, to a
third copy of the graph that a *fresh* session then recomputes from
scratch (timed, and the bit-exact cross-check), and — mirrored — to a
symmetric copy on which k-core is recomputed.  The class metrics here are
"time until the answer is current again": ``session.apply`` for the two
SSSP schedules, a fresh k-core run for k-core (the incremental k-core
resume costs seconds per edit at these sizes and is sampled, one edit at a
time, in the traced run only).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np

from common import (
    Config,
    Shadow,
    Tally,
    copy_graph,
    csr_mb,
    csr_arrays,
    kcore_oracle,
    mean,
    median,
    peak_rss_mb,
    ratio,
    repeat_setup,
    sssp_oracle,
    to_mutations,
)
from wl_interp import cell_schedules, grid_side, make_graph

FAMILIES = (("social", 8), ("road", 512))
EDITS = 64
FULL_EVERY = 4  # batches per recompute + k-core run
TRACED_BATCHES = 8  # per graph, per pass


def run(cfg: Config) -> dict:
    from repro import obs
    from repro.graph import apply_mutations
    from repro.incremental import IncrementalSession

    spans, tally = cfg.spans, Tally()
    rng = np.random.default_rng(cfg.seed)
    timings: dict = {"init_ms": {}}

    def setup():
        sides = []
        timings["generate_s"], timings["symmetrize_s"] = [], []
        for family, delta in FAMILIES:
            # One graph family: sessions, graph copies, bench-side shadows, samples.
            side = SimpleNamespace(family=family)
            with spans.span("generate", "graph") as sp:
                base = make_graph(family, cfg.seed, cfg.smoke, size="medium")
            timings["generate_s"].append(sp.s)
            with spans.span("symmetrized", "graph") as sp:
                side.symmetric = base.symmetrized()
            timings["symmetrize_s"].append(sp.s)
            side.base = base
            # A source that reaches the graph, found without an oracle (this is
            # timed set-up): the grid's quarter point, the best-connected vertex.
            side_len = grid_side(family, base)
            side.source = (side_len // 4) * (side_len + 1) if side_len else int(np.argmax(base.out_degrees()))
            schedules = cell_schedules(delta)
            side.schedules = schedules
            side.sessions = {}
            for cell in ("sssp_lazy", "sssp_eager"):
                with spans.span(f"session_init.{cell}", "incremental") as sp:
                    session = IncrementalSession(copy_graph(base), "sssp", side.source, schedules[cell])
                    session.run()
                side.sessions[cell] = session
                timings["init_ms"][(family, cell)] = sp.ms
            side.recompute_graph = copy_graph(base)
            sides.append(side)
        return sides

    setup_s, sides = repeat_setup(setup, 1 if cfg.smoke else 2)

    for side in sides:
        weights = (1, 1000)
        side.shadow = Shadow(side.base, weights)
        side.sym_shadow = Shadow(side.symmetric, weights, symmetric=True)
        side.samples = {k: [] for k in ("sssp_lazy", "sssp_eager", "kcore", "recompute", "apply_mutations")}
        side.traced = {k: [] for k in ("sssp_lazy", "sssp_eager", "kcore")}
        side.profile = dict(seeds=0, invalidated=0, vertices_touched=0)
        side.edges_done = 0
        del side.base
    reference_s = 0.0

    def step(side, index: int, second_pass: bool = False) -> None:
        """One batch on one graph.  Every batch is applied to both sessions
        (timed and verified); every ``FULL_EVERY``-th is also recomputed from
        scratch and followed by a k-core run, so that the applies — whose
        cost varies tenfold with where a batch lands in the shortest-path
        tree — get most of the samples.  ``second_pass`` is the traced run's
        repeat under ``repro.obs.tracing()``: verified, timed into
        ``side.traced``, and left out of every other sample and count."""
        nonlocal reference_s
        full = index % FULL_EVERY == FULL_EVERY - 1
        mutations = to_mutations(side.shadow.batch(rng, EDITS))
        sym_mutations = to_mutations(side.sym_shadow.batch(rng, EDITS))
        qid = f"{side.family}{index}"
        into = side.traced if second_pass else side.samples
        applied = {}
        for cell, session in side.sessions.items():
            with obs.tracing() if second_pass else nullcontext():
                with spans.span(f"apply.{cell}", "incremental", qid) as sp:
                    result = session.apply(mutations)
            applied[cell] = (result, sp.ms)
        with spans.span("apply_mutations", "graph", qid) as sp_mut:
            apply_mutations(side.recompute_graph, mutations)
        apply_mutations(side.symmetric, sym_mutations, symmetric=True)
        if full:
            with spans.span("recompute", "incremental", qid) as sp_re:
                fresh = IncrementalSession(
                    side.recompute_graph, "sssp", side.source, side.schedules["sssp_lazy"]
                ).run()
            with spans.span("kcore.fresh", "incremental", qid) as sp_core:
                core = IncrementalSession(side.symmetric, "kcore", schedule=side.schedules["kcore"]).run()

        # The clocks have stopped; everything below is verification.
        ref_start = time.perf_counter()
        src, dst, w = side.shadow.edges()
        expect = sssp_oracle(side.shadow.n, src, dst, w, [side.source])[side.source]
        if full:
            s_src, s_dst, _ = side.sym_shadow.edges()
            expect_core = kcore_oracle(*csr_arrays(side.sym_shadow.n, s_src, s_dst))
        reference_s += time.perf_counter() - ref_start
        for cell, (result, ms) in applied.items():
            if tally.check(np.array_equal(result.values, expect), f"{side.family} {cell} batch {index}"):
                into[cell].append(ms)
                side.edges_done += 0 if second_pass else side.shadow.num_edges()
        if not second_pass:
            side.samples["apply_mutations"].append(sp_mut.ms * 1e3 / EDITS)
            lazy = applied["sssp_lazy"][0]
            side.profile["seeds"] += lazy.seeds
            side.profile["invalidated"] += lazy.invalidated
            side.profile["vertices_touched"] += lazy.vertices_touched
        if not full:
            return
        if tally.check(np.array_equal(core.values, expect_core), f"{side.family} kcore batch {index}"):
            into["kcore"].append(sp_core.ms)
            side.edges_done += 0 if second_pass else side.sym_shadow.num_edges()
        # The fresh run is checked against the oracle, the sessions against both.
        ok = tally.check(np.array_equal(fresh.values, expect), f"{side.family} recompute batch {index}")
        if ok and not second_pass:
            side.samples["recompute"].append(sp_re.ms)

    layers: dict[str, float] = {}
    start = time.perf_counter()
    timed_s = 0.0
    if not cfg.trace:
        done = 0
        while done < FULL_EVERY or (not cfg.smoke and timed_s < cfg.seconds):
            for side in sides:
                before = reference_s
                t0 = time.perf_counter()
                step(side, done)
                timed_s += time.perf_counter() - t0 - (reference_s - before)
            done += 1
    else:
        batches = FULL_EVERY if cfg.smoke else TRACED_BATCHES
        for index in range(batches):
            for side in sides:
                step(side, index)
        for index in range(batches):
            for side in sides:
                step(side, batches + index, second_pass=True)
        layers["obs.trace_overhead_share"] = mean(
            ratio(median(side.traced[c]) - median(side.samples[c]), median(side.samples[c]))
            for side in sides
            for c in side.traced
        )
    rss = peak_rss_mb()

    class_wall_s = sum(sum(side.samples[c]) for side in sides for c in ("sssp_lazy", "sssp_eager", "kcore")) / 1e3
    e2e = {"setup_s": setup_s, "peak_rss_mb": rss}
    for cell in ("sssp_lazy", "sssp_eager", "kcore"):
        # Medians, not common.best: no two batches ask for the same work.
        e2e[f"{cell}_ms"] = mean(median(side.samples[cell]) for side in sides)
    extras = {
        "medges_per_s": ratio(sum(side.edges_done for side in sides) / 1e6, class_wall_s),
        # Per-graph medians, averaged: pooling the two graphs would put the
        # median on the boundary between two modes.
        "mutate_ms_p50": mean(median(side.samples["sssp_lazy"]) for side in sides),
        "recompute_ms_p50": mean(median(side.samples["recompute"]) for side in sides),
    }

    if cfg.trace:
        layers.update(_probes(cfg, sides, tally, rng))
        touched = sum(side.profile["vertices_touched"] for side in sides)
        for side in sides:
            layers[f"incremental.session_init_ms.{side.family}"] = timings["init_ms"][(side.family, "sssp_lazy")]
            layers[f"incremental.apply_ms.{side.family}"] = median(side.samples["sssp_lazy"])
        layers["incremental.mutate_ms_p50"] = extras["mutate_ms_p50"]
        layers["incremental.recompute_ms_p50"] = extras["recompute_ms_p50"]
        layers["incremental.apply_over_recompute"] = ratio(extras["mutate_ms_p50"], extras["recompute_ms_p50"])
        for key in ("seeds", "invalidated", "vertices_touched"):
            layers[f"incremental.{key}"] = float(sum(side.profile[key] for side in sides))
        layers["incremental.us_per_touched_vertex"] = ratio(
            sum(sum(side.samples["sssp_lazy"]) for side in sides) * 1e3, touched
        )
        layers["graph.apply_mutations_us_per_edit"] = median(
            us for side in sides for us in side.samples["apply_mutations"]
        )
        layers["graph.generate_s"] = sum(timings["generate_s"])
        layers["graph.symmetrize_s"] = sum(timings["symmetrize_s"])
        layers["graph.csr_mb"] = csr_mb(*(g for side in sides for g in (side.recompute_graph, side.symmetric)))
        layers["algorithms.kcore_ms"] = mean(median(side.samples["kcore"]) for side in sides)
        layers["bench.reference_s"] = reference_s
        layers["bench.medges_per_s"] = extras["medges_per_s"]

    return {
        "e2e": e2e,
        "extras": extras,
        "layers": layers,
        "tally": tally,
        "config": {
            "graphs": {side.family: {"num_vertices": side.shadow.n, "num_edges": side.shadow.num_edges(), "source": side.source} for side in sides},
            "edits_per_batch": EDITS,
            "batches_per_graph": {side.family: len(side.samples["recompute"]) for side in sides},
            "per_graph_ms": {f"{side.family}/{k}": round(median(v), 3) for side in sides for k, v in side.samples.items()},
            "timed_section_s": timed_s if not cfg.trace else time.perf_counter() - start,
            "reference_s": reference_s,
        },
    }


def _probes(cfg: Config, sides, tally: Tally, rng) -> dict:
    """Small batches, overlay compaction, and the incremental k-core resume."""
    from repro.graph import apply_mutations
    from repro.incremental import IncrementalSession

    spans = cfg.spans
    out: dict[str, float] = {}
    social = sides[0]

    # 8-edit batches on the warm lazy session (its graph copy only).
    small = []
    for index in range(5):
        mutations = to_mutations(social.shadow.batch(rng, 8))
        with spans.span("apply.small", "incremental") as sp:
            result = social.sessions["sssp_lazy"].apply(mutations)
        small.append(sp.ms)
    src, dst, w = social.shadow.edges()
    expect = sssp_oracle(social.shadow.n, src, dst, w, [social.source])[social.source]
    tally.check(np.array_equal(result.values, expect), "small batches")
    out["incremental.small_batch_ms"] = mean(small)

    # Overlay fold: apply a batch to a compact copy, then read .indptr.
    compact = []
    for index in range(3):
        graph = copy_graph(social.recompute_graph)
        mutations = to_mutations(Shadow(graph, (1, 1000)).batch(rng, EDITS))
        with spans.span("compact", "graph") as sp:
            apply_mutations(graph, mutations)
            graph.indptr  # noqa: B018 — the read that folds the overlay
        compact.append(sp.ms)
    out["graph.compact_ms"] = median(compact)

    # Incremental k-core, one edit per batch (seconds per edit at full size).
    session = IncrementalSession(social.symmetric, "kcore", schedule=social.schedules["kcore"])
    session.run()
    per_edit = []
    for index in range(2):
        # Weight updates cannot change coreness; only structural edits cost anything.
        mutations = to_mutations(social.sym_shadow.batch(rng, 1, updates=False))
        with spans.span("apply.kcore", "incremental") as sp:
            result = session.apply(mutations)
        per_edit.append(sp.ms)
    s_src, s_dst, _ = social.sym_shadow.edges()
    expect_core = kcore_oracle(*csr_arrays(social.sym_shadow.n, s_src, s_dst))
    tally.check(np.array_equal(result.values, expect_core), "incremental kcore")
    out["incremental.kcore_apply_ms"] = mean(per_edit)
    return out
