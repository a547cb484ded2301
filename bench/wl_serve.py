"""``serve_mixed``: a closed loop against a ``python -m repro serve`` subprocess.

One keep-alive connection sends the requests of one seeded plan and waits
for each reply (callers wait for an answer, hence closed loop).  One
connection, because the client, the server's event loop and its worker
thread already fill the two cores the benchmark is gated on: with a second
client thread the same server answered fewer requests per second (87
against 114) and a k-core read took 89 ms instead of 37.  Every
block of ten requests is one ``POST /mutate`` (8 undirected edits = 16
lines) followed, in seeded order, by six lazy-SSSP reads, two eager-SSSP
reads and one k-core read.  Lazy sources are Zipf(1.4) over the 16
highest-degree vertices and eager sources over the top 2 — with the
server's default of eight warm sessions that holds the hit share near 0.7,
so the median read is a hit and the 95th percentile a traversal.  The
read-back ``vertex`` is uniform.  The served graph is symmetric so that
k-core is defined and stays so under mirrored edits.
"""

from __future__ import annotations

import asyncio
import re
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    Config,
    Shadow,
    Tally,
    child_env,
    csr_arrays,
    csr_mb,
    kcore_oracle,
    mean,
    median,
    percentile,
    proc_status_mb,
    ratio,
    repeat_setup,
    sssp_oracle,
    to_script,
)
from wl_interp import make_graph

CONNECTIONS = 1
POOL = 16
EAGER_POOL = 2
ZIPF_S = 1.4
BLOCK = ("sssp_lazy",) * 6 + ("sssp_eager",) * 2 + ("kcore",)
UNDIRECTED_EDITS = 8
TRACED_BLOCKS = 40  # per pass
SCHEDULES = {
    "sssp_lazy": {"priority_update": "lazy", "delta": 8},
    "sssp_eager": {"priority_update": "eager_with_fusion", "delta": 8},
    "kcore": {"priority_update": "lazy_constant_sum"},
}


class Server:
    """The program under test, as its users start it."""

    def __init__(self, graph_path):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--graph", str(graph_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            text=True,
        )
        try:
            banner = self.process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            if not match:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            with self.client() as client:
                client.healthz()
        except BaseException:
            self.stop()
            raise

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.host, self.port)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def wake_workers(server: Server, source: int, tally: Tally) -> None:
    """Two overlapping session-less traversals, so that both of the server's
    worker threads (its default) exist before the loop.  One sequential
    client starts the second thread only if two submissions happen to
    overlap, and that thread's malloc arena is a fifth of the server's
    resident memory: peak_rss_mb read 94 MB or 115 MB by chance."""
    asks = [dict(program="kcore", vertex=0), dict(program="bellman_ford", source=source, vertex=0)]
    replies: list = [None] * len(asks)

    def ask(index: int) -> None:
        with server.client() as client:
            replies[index] = client.query(**asks[index]).status

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(asks))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tally.check(replies == [200, 200], f"wake_workers -> HTTP {replies}")


def zipf_cdf(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_S
    return np.cumsum(weights / weights.sum())


def make_plan(rng, shadow: Shadow, pool: list[int], blocks: int) -> list[tuple]:
    """``blocks`` x ten requests: ("mutate", script, batch) or (class, source, vertex)."""
    cdfs = {"sssp_lazy": zipf_cdf(len(pool)), "sssp_eager": zipf_cdf(EAGER_POOL)}
    plan: list[tuple] = []
    for _ in range(blocks):
        batch = shadow.batch(rng, UNDIRECTED_EDITS)
        plan.append(("mutate", to_script(batch, symmetric=True), batch))
        for index in rng.permutation(len(BLOCK)):
            cls = BLOCK[index]
            source = None if cls == "kcore" else pool[int(np.searchsorted(cdfs[cls], rng.random()))]
            plan.append((cls, source, int(rng.integers(shadow.n))))
    return plan


def scrape(text: str) -> dict[str, float]:
    """The ``serve.*`` counters of a ``/metrics`` exposition."""
    out = {}
    for key in ("requests", "cache_hits", "cache_misses", "resumes"):
        match = re.search(rf"^repro_serve_{key}_total (\S+)$", text, re.MULTILINE)
        out[key] = float(match.group(1)) if match else 0.0
    return out


def run(cfg: Config) -> dict:
    from repro.graph import save_npz

    spans, tally = cfg.spans, Tally()
    rng = np.random.default_rng(cfg.seed)
    timings: dict[str, float] = {}
    live: list[Server] = []
    graph_path = cfg.workdir / "data" / "served.npz"

    def setup():
        while live:
            live.pop().stop()
        with spans.span("generate", "graph") as sp:
            graph = make_graph("social", cfg.seed, cfg.smoke, size="small")
        timings["generate_s"] = sp.s
        with spans.span("symmetrized", "graph") as sp:
            graph = graph.symmetrized()
        timings["symmetrize_s"] = sp.s
        with spans.span("save_npz", "graph"):
            save_npz(graph, graph_path)
        with spans.span("boot", "serve") as sp:
            live.append(Server(graph_path))
        timings["boot_s"] = sp.s
        return graph

    try:
        setup_s, graph = repeat_setup(setup, 1 if cfg.smoke else 3)
        return _measure(cfg, graph, live[0], setup_s, timings, rng, tally, graph_path)
    finally:
        while live:
            live.pop().stop()


def _measure(cfg, graph, server, setup_s, timings, rng, tally, graph_path) -> dict:
    spans = cfg.spans
    pool = [int(v) for v in np.argsort(-graph.out_degrees(), kind="stable")[:POOL]]
    generator = Shadow(graph, (1, 100), symmetric=True)
    blocks = 4 if cfg.smoke else (TRACED_BLOCKS * 2 if cfg.trace else 1200)
    plan = make_plan(rng, generator, pool, blocks)

    records: list[dict] = []
    cursor = {"next": 0, "stop": len(plan), "deadline": None}
    plan_lock, mutate_lock = threading.Lock(), threading.Lock()
    errors: list[BaseException] = []

    def worker() -> None:
        try:
            with server.client() as client:
                while True:
                    with plan_lock:
                        index = cursor["next"]
                        expired = cursor["deadline"] is not None and time.perf_counter() >= cursor["deadline"]
                        if index >= cursor["stop"] or expired:
                            return
                        cursor["next"] = index + 1
                    item = plan[index]
                    if item[0] == "mutate":
                        # One writer at a time, so batches reach the server in plan order.
                        with mutate_lock:
                            with spans.span("mutate", "serve", index) as sp:
                                response = client.request("POST", "/mutate", body=item[1], content_type="text/plain")
                        body = response.json() if response.status == 200 else {}
                        records.append(dict(index=index, cls="mutate", status=response.status, ms=sp.ms, body=body, edits=item[2]))
                    else:
                        cls, source, vertex = item
                        with spans.span(f"query.{cls}", "serve", index) as sp:
                            response = client.query(
                                "kcore" if cls == "kcore" else "sssp",
                                source=source, vertex=vertex, schedule=SCHEDULES[cls],
                            )
                        body = response.json() if response.status == 200 else {}
                        records.append(dict(index=index, cls=cls, source=source, vertex=vertex, status=response.status, ms=sp.ms, body=body))
        except BaseException as error:  # surfaced after join; a dead worker must fail the run
            errors.append(error)

    def drive(stop: int, seconds: float | None) -> float:
        cursor["stop"] = stop
        cursor["deadline"] = time.perf_counter() + seconds if seconds else None
        threads = [threading.Thread(target=worker, name=f"client-{i}") for i in range(CONNECTIONS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return time.perf_counter() - start

    wake_workers(server, pool[0], tally)
    with server.client() as control:
        before = scrape(control.metrics_text())
        layers: dict[str, float] = {}
        if not cfg.trace:
            wall_s = drive(len(plan), None if cfg.smoke else cfg.seconds)
            measured = list(records)
        else:
            half = len(plan) // 2
            spans.enabled = False
            wall_s = drive(half, None)
            measured = list(records)
            spans.enabled = True
            drive(len(plan), None)
            traced = records[len(measured):]
            layers["obs.trace_overhead_share"] = mean(
                ratio(_class_ms(traced, c) - _class_ms(measured, c), _class_ms(measured, c))
                for c in SCHEDULES
            )
        after = scrape(control.metrics_text())
        rss = proc_status_mb(server.process.pid, "VmHWM")

        ref_start = time.perf_counter()
        _verify(graph, records, tally)
        reference_s = time.perf_counter() - ref_start

        queries = [r for r in measured if r["cls"] != "mutate" and r["status"] == 200]
        mutates = [r for r in measured if r["cls"] == "mutate" and r["status"] == 200]
        reads_ms = [r["ms"] for r in queries]
        served = [r["body"].get("served") for r in queries]
        hit_share = ratio(served.count("cache"), len(queries))
        e2e = {"setup_s": setup_s, "peak_rss_mb": rss}
        for cls in SCHEDULES:
            e2e[f"{cls}_ms"] = _class_ms(measured, cls)
        extras = {
            "medges_per_s": ratio(len(queries) * graph.num_edges / 1e6, wall_s),
            "read_ms_p50": median(reads_ms),
            "read_ms_p95": percentile(reads_ms, 95),
            "serve_mutate_ms_p50": median(r["ms"] for r in mutates),
            "queries_per_s": ratio(len(queries) + len(mutates), wall_s),
        }
        if cfg.trace:
            layers.update(_probes(cfg, graph, server, control, pool, tally, graph_path))
            for name in ("read_ms_p50", "read_ms_p95", "queries_per_s"):
                layers[f"serve.{name}"] = extras[name]
            layers["serve.mutate_ms_p50"] = extras["serve_mutate_ms_p50"]
            layers["serve.boot_s"] = timings["boot_s"]
            layers["serve.hit_ms_p50"] = median(r["ms"] for r in queries if r["body"].get("served") == "cache")
            layers["serve.miss_ms_p50"] = median(r["ms"] for r in queries if r["body"].get("served") == "computed")
            layers["serve.hit_share"] = hit_share
            layers["serve.coalesced_share"] = ratio(served.count("coalesced"), len(queries))
            layers["serve.rejected_share"] = ratio(sum(r["status"] == 429 for r in measured), len(measured))
            layers["serve.http_overhead_us"] = layers["serve.hit_ms_p50"] * 1e3 - layers["serve.engine_hit_us"]
            layers["serve.resumed_sessions_per_mutate"] = mean(r["body"]["resumed_sessions"] for r in mutates)
            for key in before:
                layers[f"serve.{key}"] = after[key] - before[key]
            layers["graph.generate_s"] = timings["generate_s"]
            layers["graph.symmetrize_s"] = timings["symmetrize_s"]
            layers["graph.csr_mb"] = csr_mb(graph)
            layers["bench.reference_s"] = reference_s
            layers["bench.medges_per_s"] = extras["medges_per_s"]

    return {
        "e2e": e2e,
        "extras": extras,
        "layers": layers,
        "tally": tally,
        "config": {
            "graph": {"num_vertices": int(graph.num_vertices), "num_edges": int(graph.num_edges)},
            "connections": CONNECTIONS,
            "requests": len(measured),
            "reads": len(queries),
            "mutates": len(mutates),
            "hit_share": round(hit_share, 4),
            "hit_share_by_class": {
                c: round(ratio(sum(r["body"].get("served") == "cache" for r in queries if r["cls"] == c),
                               sum(r["cls"] == c for r in queries)), 4)
                for c in SCHEDULES
            },
            "timed_section_s": wall_s,
            "reference_s": reference_s,
        },
    }


def _class_ms(records: list[dict], cls: str) -> float:
    """The fastest round trip of the class that the server *computed* (the
    response's own ``served`` field): a new session's full traversal for
    SSSP — a quarter of the lazy reads, a sixth of the eager ones — and
    nearly every k-core read, whose one cache key each mutation clears.

    ``common.best`` says why the fastest.  Cache hits are a different
    question about the server (HTTP, JSON and the cache alone) and are not a
    class time: a sub-millisecond round trip between two processes has no
    sharp floor on a shared host, its fastest and its median both moved
    20 % between identical runs.  They are reported as read_ms_p50 and
    serve.hit_ms_p50, the mixture as read_ms_p95 and serve.hit_share."""
    return min(
        (r["ms"] for r in records if r["cls"] == cls and r["status"] == 200 and r["body"].get("served") == "computed"),
        default=0.0,
    )


def _verify(graph, records: list[dict], tally: Tally) -> None:
    """Every response against a bench-side replay of the graph, per epoch."""
    replay = Shadow(graph, (1, 100), symmetric=True)
    edits_at: dict[int, list] = {}
    asked: dict[int, list[dict]] = {}
    epochs_in_plan_order = []
    for r in sorted(records, key=lambda r: r["index"]):
        if not tally.check(r["status"] == 200, f"{r['cls']} #{r['index']} -> HTTP {r['status']}"):
            continue
        epoch = int(r["body"]["epoch"])
        if r["cls"] == "mutate":
            edits_at[epoch] = r["edits"]
            epochs_in_plan_order.append(epoch)
        else:
            asked.setdefault(epoch, []).append(r)
    tally.check(epochs_in_plan_order == sorted(epochs_in_plan_order), "mutations applied in plan order")
    for epoch in range(max([0, *edits_at, *asked]) + 1):
        replay.apply(edits_at.get(epoch, []))
        queries = asked.get(epoch)
        if not queries:
            continue
        src, dst, w = replay.edges()
        dist = sssp_oracle(replay.n, src, dst, w, sorted({r["source"] for r in queries if r["source"] is not None}))
        core = None
        for r in queries:
            if r["source"] is None:
                if core is None:
                    core = kcore_oracle(*csr_arrays(replay.n, src, dst))
                expect = int(core[r["vertex"]])
            else:
                expect = int(dist[r["source"]][r["vertex"]])
            tally.check(r["body"].get("value") == expect,
                        f"{r['cls']} #{r['index']} epoch {epoch}: {r['body'].get('value')} != {expect}")


def _probes(cfg, graph, server, control, pool, tally, graph_path) -> dict:
    """Floors and per-session costs, outside the mix."""
    from repro.graph import load_npz
    from repro.serve.engine import QuerySpec, ServeEngine

    spans = cfg.spans
    out: dict[str, float] = {}
    health = []
    for _ in range(200):
        with spans.span("healthz", "serve") as sp:
            control.healthz()
        health.append(sp.ms)
    out["serve.healthz_ms_p50"] = median(health)

    full = []
    for _ in range(10):
        with spans.span("query.full", "serve") as sp:
            response = control.query("sssp", source=pool[0], schedule=SCHEDULES["sssp_lazy"], full=True)
        full.append(sp.ms)
    tally.check(response.status == 200 and len(response.json()["values"]) == graph.num_vertices, "full vector")
    out["serve.full_vector_ms_p50"] = median(full)

    # The engine without HTTP: the same cached key, in process.
    engine = ServeEngine(load_npz(graph_path))
    spec = QuerySpec.from_params({"program": "sssp", "source": pool[0], "schedule": SCHEDULES["sssp_lazy"]})

    async def engine_hits() -> list[float]:
        await engine.query(spec)
        times = []
        for _ in range(1000):
            with spans.span("engine.hit", "serve") as sp:
                await engine.query(spec)
            times.append(sp.ms * 1e3)
        return times

    try:
        out["serve.engine_hit_us"] = median(asyncio.run(engine_hits()))
    finally:
        engine.close()

    # Resident memory per warm session: a second server, 1 then 8 sources.
    second = Server(graph_path)
    try:
        with second.client() as client:
            sizes = []
            for index, source in enumerate(pool[:8]):
                client.query("sssp", source=source, vertex=0, schedule=SCHEDULES["sssp_lazy"]).raise_for_status()
                if index in (0, 7):
                    sizes.append(proc_status_mb(second.process.pid, "VmRSS"))
        out["serve.rss_mb_per_session"] = (sizes[1] - sizes[0]) / 7.0
    finally:
        second.stop()
    return out
