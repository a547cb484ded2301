"""Shared machinery of the benchmark: isolation, spans, oracles, edit scripts.

Nothing here imports ``repro`` at module load, so ``run.py`` can set the
environment (kernel cache, state dir, temp dir — all inside the checkout)
before the program under test reads it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / ".out"

INT_MAX = np.iinfo(np.int64).max


# ---------------------------------------------------------------------------
# Run configuration and isolation
# ---------------------------------------------------------------------------
@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: Path
    spans: "SpanLog"


def make_workdir(workload: str) -> Path:
    """A fresh scratch directory inside the checkout, removed at exit."""
    workdir = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    for sub in ("kernels", "state", "tmp", "data"):
        (workdir / sub).mkdir(parents=True)
    return workdir


def isolate_env(workdir: Path) -> None:
    """Point every on-disk side effect of the program into ``workdir``.

    ``REPRO_METRICS`` / ``REPRO_FLIGHT`` stay at their defaults: the
    benchmark measures what users run.
    """
    os.environ["REPRO_KERNEL_CACHE"] = str(workdir / "kernels")
    os.environ["REPRO_STATE_DIR"] = str(workdir / "state")
    # tempfile (the toolchain's OpenMP probe) and g++ both honour TMPDIR.
    os.environ["TMPDIR"] = str(workdir / "tmp")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # for the server subprocess


def child_env() -> dict[str, str]:
    """Environment for subprocesses that run the program (``repro serve``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fingerprint(seed: int) -> dict:
    """Where the numbers were taken: machine, toolchain, versions, commit."""
    from repro.backend.native import discover_toolchain

    def first_line(command: list[str]) -> str:
        try:
            out = subprocess.run(
                command, capture_output=True, text=True, timeout=20, cwd=ROOT,
                # git must not wander above the checkout looking for a repository
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            )
        except (OSError, subprocess.TimeoutExpired):
            return "unavailable"
        lines = out.stdout.splitlines()
        return lines[0].strip() if out.returncode == 0 and lines else "unavailable"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    toolchain = discover_toolchain()
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "cpu": cpu,
        "nproc": nproc(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cxx": first_line(["g++", "--version"]),
        "openmp": bool(toolchain.openmp) if toolchain else False,
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(pid: int, key: str) -> float:
    """``VmHWM`` / ``VmRSS`` of another process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no {key}")


# ---------------------------------------------------------------------------
# Bench-owned spans
# ---------------------------------------------------------------------------
class Span:
    """One timed call into a layer.  Always measures; recorded only when the
    log is enabled (the traced run)."""

    __slots__ = ("log", "name", "layer", "qid", "start", "end", "parent", "index", "recorded")

    def __init__(self, log: "SpanLog", name: str, layer: str, qid):
        self.log, self.name, self.layer, self.qid = log, name, layer, qid
        self.start = self.end = 0.0
        self.parent = self.index = -1

    def __enter__(self) -> "Span":
        log = self.log
        self.recorded = log.enabled
        if self.recorded:
            stack = log.stack()
            self.parent = stack[-1] if stack else -1
            with log.lock:
                self.index = len(log.spans)
                log.spans.append(self)
            stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        if self.recorded:
            self.log.stack().pop()
        return False

    @property
    def s(self) -> float:
        return self.end - self.start

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class SpanLog:
    """Spans kept in memory and written as one JSON document at exit."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.lock = threading.Lock()
        self._local = threading.local()  # the open-span stack is per thread
        self.origin = time.perf_counter()

    def stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, layer: str, qid=None) -> Span:
        return Span(self, name, layer, qid)

    def document(self) -> dict:
        children = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                children[sp.parent] += sp.end - sp.start
        rows = [
            {
                "id": sp.index,
                "parent": sp.parent,
                "query": sp.qid,
                "layer": sp.layer,
                "name": sp.name,
                "start_us": (sp.start - self.origin) * 1e6,
                "end_us": (sp.end - self.origin) * 1e6,
                # Self time: the span's duration minus what its children cover.
                "self_us": (sp.end - sp.start - children[sp.index]) * 1e6,
            }
            for sp in self.spans
        ]
        by_layer: dict[str, float] = {}
        for row in rows:
            by_layer[row["layer"]] = by_layer.get(row["layer"], 0.0) + row["self_us"]
        return {"schema": 1, "self_us_by_layer": by_layer, "spans": rows}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.document()))


# ---------------------------------------------------------------------------
# Small statistics
# ---------------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100): always a value that occurred."""
    values = list(values)
    return float(np.percentile(values, q, method="inverted_cdf")) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def best(by_key: dict) -> float:
    """The class time of samples grouped by what was asked (source, graph):
    the mean over the groups of each group's fastest sample.

    The machines this runs on alternate every few seconds between a quiet
    state, in which one query repeats within 1 %, and a disturbed one 20-40 %
    slower and noisy (a neighbour on the host; user time tracks wall time).
    A run's median lands in either state, so medians of identical runs differ
    by 15-25 %; the fastest of eight or more repeats is the quiet state's
    time in nine runs of ten, which is also the number a change to the
    program can move.  The median of the same samples is printed beside it."""
    return mean(min(v) for v in by_key.values() if v)


def flat(by_key: dict) -> list[float]:
    return [x for v in by_key.values() for x in v]


# ---------------------------------------------------------------------------
# Correctness accounting
# ---------------------------------------------------------------------------
@dataclass
class Tally:
    """Operations attempted and failed.  A wrong answer, an exception, a
    non-200 response and an N101 native fallback are all failures."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


# ---------------------------------------------------------------------------
# Oracles: independent of the compiler and of every bucket runtime
# ---------------------------------------------------------------------------
def sssp_oracle(n: int, src, dst, weights, sources) -> dict[int, np.ndarray]:
    """Exact single-source distances as int64, ``INT_MAX`` when unreachable.

    scipy's Dijkstra when importable; otherwise the repository's own
    heap-based ``dijkstra_reference`` (sequential, no buckets).
    """
    sources = [int(s) for s in sources]
    if not sources:
        return {}
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra
    except ImportError:
        from repro import dijkstra_reference
        from repro.graph import GraphBuilder

        builder = GraphBuilder(n)
        builder.add_edges(src, dst, weights)
        graph = builder.build()
        return {s: np.asarray(dijkstra_reference(graph, s)) for s in sources}
    matrix = csr_matrix((np.asarray(weights, dtype=np.float64), (src, dst)), shape=(n, n))
    dist = dijkstra(matrix, directed=True, indices=sources)
    out = {}
    for row, s in zip(dist, sources):
        exact = np.full(n, INT_MAX, dtype=np.int64)
        finite = np.isfinite(row)
        exact[finite] = row[finite].astype(np.int64)
        out[s] = exact
    return out


def csr_arrays(n: int, src, dst) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, np.asarray(dst)[order]


def kcore_oracle(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Coreness by level-synchronous peeling on plain arrays.

    Repeatedly strips every vertex whose remaining degree is at most the
    current level; a vertex's coreness is the level at which it goes.
    """
    n = indptr.size - 1
    degree = np.diff(indptr).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    remaining = n
    k = 0
    while remaining:
        k = max(k, int(degree[alive].min()))
        frontier = np.flatnonzero(alive & (degree <= k))
        while frontier.size:
            alive[frontier] = False
            core[frontier] = k
            remaining -= frontier.size
            starts, ends = indptr[frontier], indptr[frontier + 1]
            lengths = ends - starts
            total = int(lengths.sum())
            if total == 0:
                break
            offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            neighbors = indices[offsets + np.arange(total)]
            neighbors = neighbors[alive[neighbors]]
            if neighbors.size == 0:
                break
            degree -= np.bincount(neighbors, minlength=n)
            candidates = np.unique(neighbors)
            frontier = candidates[degree[candidates] <= k]
    return core


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
#: Where the road sources sit, as shares of the grid's side (row, column).
GRID_POSITIONS = [(0.5, 0.5), (0.25, 0.25)]


def pick_sources(graph, rng: np.random.Generator, count: int, grid_side: int = 0):
    """``count`` seeded sources whose queries cost the same work whatever the
    seed, and their reference distances: a class time should say how fast
    the program ran, not which sources the seed drew.

    On a road grid (``grid_side`` > 0, vertex = row * side + column) the
    i-th source sits at ``GRID_POSITIONS[i]`` with a seeded jitter of 1 % of
    the side: the number of rounds follows the distance to the farthest
    corner, and a query from one quadrant costs a third more than its mirror
    image.  Elsewhere the sources are random vertices with out-degree > 0
    that reach at least half of what the best-connected candidate reaches
    (an R-MAT vertex outside the giant component answers in microseconds).
    """
    src, dst, w = graph.edge_list()
    n = int(graph.num_vertices)
    if grid_side:
        sources = []
        for position in GRID_POSITIONS[:count]:
            row, col = (int((share + rng.uniform(-0.01, 0.01)) * grid_side) for share in position)
            sources.append(row * grid_side + col)
        return sources, sssp_oracle(n, src, dst, w, sources)
    eligible = np.flatnonzero(graph.out_degrees() > 0)
    candidates = [int(v) for v in rng.choice(eligible, size=min(2 * count, eligible.size), replace=False)]
    reference = sssp_oracle(n, src, dst, w, candidates)
    reach = {s: int(np.count_nonzero(reference[s] != INT_MAX)) for s in candidates}
    sources = [s for s in candidates if 2 * reach[s] >= max(reach.values())][:count]
    return sources, {s: reference[s] for s in sources}


def csr_mb(*graphs) -> float:
    """Bytes held by the CSR arrays of ``graphs``, in MB."""
    return sum(a.nbytes for g in graphs for a in (g.indptr, g.indices, g.weights)) / 2**20


def copy_graph(graph):
    from repro.graph import CSRGraph

    return CSRGraph(graph.indptr.copy(), graph.indices.copy(), graph.weights.copy())


class Shadow:
    """The benchmark's own copy of an evolving simple graph.

    Generates edit batches that are always valid (adds name absent pairs,
    removes and updates name live edges) and hands the live edge arrays to
    the oracles, so verification never reads the program's CSR overlay.
    ``symmetric`` keeps both directions of every pair in step, for k-core.
    """

    def __init__(self, graph, weight_range: tuple[int, int], symmetric: bool = False):
        src, dst, weights = graph.edge_list()
        self.n = int(graph.num_vertices)
        key = src.astype(np.int64) * self.n + dst
        order = np.argsort(key, kind="stable")
        self.key = key[order]
        self.src = src[order].astype(np.int64)
        self.dst = dst[order].astype(np.int64)
        self.w = weights[order].astype(np.int64)
        self.live = np.ones(self.key.size, dtype=bool)
        self.extra: dict[int, int] = {}  # key -> weight, edges absent from the base
        self.weight_range = weight_range
        self.symmetric = symmetric

    def _slot(self, u: int, v: int) -> int:
        k = u * self.n + v
        i = int(np.searchsorted(self.key, k))
        return i if i < self.key.size and self.key[i] == k else -1

    def has(self, u: int, v: int) -> bool:
        i = self._slot(u, v)
        return bool(self.live[i]) if i >= 0 else (u * self.n + v) in self.extra

    def _set(self, u: int, v: int, weight: int | None) -> None:
        i = self._slot(u, v)
        if i >= 0:
            self.live[i] = weight is not None
            if weight is not None:
                self.w[i] = weight
        elif weight is None:
            del self.extra[u * self.n + v]
        else:
            self.extra[u * self.n + v] = weight

    def _random_live(self, rng, taken: set) -> tuple[int, int]:
        while True:
            pool = self.key.size + len(self.extra)
            j = int(rng.integers(pool))
            if j < self.key.size:
                if not self.live[j]:
                    continue
                u, v = int(self.src[j]), int(self.dst[j])
            else:
                k = list(self.extra)[j - self.key.size]
                u, v = divmod(k, self.n)
            if (u, v) not in taken and (v, u) not in taken:
                return u, v

    def batch(self, rng: np.random.Generator, edits: int, updates: bool = True) -> list[tuple]:
        """``edits`` changes as ``(kind, u, v, w)``: 40 % add, 30 % remove,
        30 % update (removes instead when ``updates`` is off).  No pair is
        named twice in a batch, so the batch means the same whether applied
        in order or all at once."""
        low, high = self.weight_range
        out: list[tuple] = []
        taken: set = set()
        for _ in range(edits):
            roll = rng.random()
            weight = int(rng.integers(low, high))
            if roll < 0.4:
                while True:
                    u, v = int(rng.integers(self.n)), int(rng.integers(self.n))
                    if u != v and not self.has(u, v) and (u, v) not in taken and (v, u) not in taken:
                        break
                kind = "add"
            else:
                u, v = self._random_live(rng, taken)
                kind = "remove" if roll < 0.7 or not updates else "update"
            taken.add((u, v))
            out.append((kind, u, v, weight))
            self.apply(out[-1:])
        return out

    def apply(self, batch: list[tuple]) -> None:
        """Replay a batch made by another shadow of the same graph."""
        for kind, u, v, weight in batch:
            new_weight = None if kind == "remove" else weight
            self._set(u, v, new_weight)
            if self.symmetric:
                self._set(v, u, new_weight)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src, dst, w = self.src[self.live], self.dst[self.live], self.w[self.live]
        if self.extra:
            keys = np.fromiter(self.extra.keys(), dtype=np.int64, count=len(self.extra))
            vals = np.fromiter(self.extra.values(), dtype=np.int64, count=len(self.extra))
            src = np.concatenate([src, keys // self.n])
            dst = np.concatenate([dst, keys % self.n])
            w = np.concatenate([w, vals])
        return src, dst, w

    def num_edges(self) -> int:
        return int(np.count_nonzero(self.live)) + len(self.extra)


def to_mutations(batch: list[tuple]) -> list:
    from repro.graph import Mutation

    return [Mutation(kind, u, v, w) for kind, u, v, w in batch]


def to_script(batch: list[tuple], symmetric: bool = False) -> str:
    """The ``POST /mutate`` line format; ``symmetric`` mirrors every edit."""
    lines = []
    for kind, u, v, w in batch:
        for a, b in ((u, v), (v, u)) if symmetric else ((u, v),):
            lines.append(f"{kind} {a} {b}" if kind == "remove" else f"{kind} {a} {b} {w}")
    return "\n".join(lines) + "\n"


def repeat_setup(setup, repeats: int):
    """Run ``setup`` ``repeats`` times; return the median seconds and the
    last state (earlier states are dropped before the next is built)."""
    times = []
    state = None
    for _ in range(max(1, repeats)):
        state = None
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return median(times), state
