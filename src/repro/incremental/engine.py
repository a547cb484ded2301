"""The incremental engine: mutation classification, cone invalidation,
frontier seeding, and ordered-engine resume.

The approach follows *Fast Iterative Graph Computing with Updated Neighbor
States* (arXiv 2407.14544) adapted to the paper's ordered abstraction: the
converged priority vector of a min/max program is a fixpoint of its edge
relaxation, so after a mutation batch only vertices whose values may have
worsened need re-deriving, and re-relaxation only needs to start from
vertices whose out-edges may be *tense* (improvable).

Per batch, for a min program (max is mirrored):

1. **Classify** each mutation against the converged values.  Edge inserts
   and weight moves *toward* the optimum are improving — they can only
   tighten values downstream, so seeding the mutated edge's source at its
   current priority is sufficient.  Deletes and weight moves *away* are
   worsening, but only when the old edge was **tight**
   (``vals[src] + w_old == vals[dst]``): a slack edge supported nothing.
   ``w_old`` is the pre-batch weight, the one ``vals`` converged on, even
   when an earlier mutation in the batch already moved the edge.
2. **Invalidate** the dependence cone of every worsened tight head: the
   transitive tight-edge descendants on the pre-mutation graph.  This
   over-approximates the truly affected set on purpose — mutual-support
   cycles (e.g. zero-weight cycles) make exact support counting unsound,
   while over-invalidation merely recomputes a few extra vertices.  The
   source (whose value is pinned, not edge-derived) is never invalidated.
3. **Recompute** each cone member from its boundary: best over in-edges of
   the *new* graph whose tail is outside the cone, identity otherwise.
   Values inside the cone recover through relaxation, not recompute.
4. **Resume** the compiled DSL program (``SSSP`` / ``WBFS`` / ``WIDEST``,
   under the session's schedule — the same program a from-scratch run
   executes; a native session resumes it serially, since a native kernel
   cannot be seeded) with its priority vector bound to the converged
   values and its queue seeded at current priorities from the
   non-identity cone members plus the improving endpoints
   (``CompiledProgram.run(..., resume=(values, seeds))``).  Monotone
   convergence to the unique fixpoint makes the result bit-exact against a
   full re-run.

k-core is degree-based rather than path-based and uses the capped h-index
local fixpoint in :mod:`repro.incremental.kcore` instead of steps 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..algorithms.common import MAX, MIN, check_source
from ..algorithms.widest_path import DEFAULT_WIDEST_SCHEDULE
from ..backend.program import cached_program
from ..errors import GraphError, SchedulingError
from ..graph.csr import CSRGraph
from ..graph.mutations import Mutation
from ..lang.programs import ALL_PROGRAMS
from ..midend.schedule import Schedule
from ..obs import metrics, span
from ..runtime.stats import RuntimeStats

__all__ = ["INCREMENTAL_ALGORITHMS", "IncrementalResult", "IncrementalSession"]

INCREMENTAL_ALGORITHMS = ("sssp", "wbfs", "widest_path", "kcore")

# The DSL program behind each path algorithm's runs and resumes, and the
# global vector its native cold run returns.
_PROGRAMS = {"sssp": "sssp", "wbfs": "wbfs", "widest_path": "widest"}
_VECTORS = {"sssp": "dist", "wbfs": "dist", "widest_path": "width"}

_BATCHES = metrics.counter("incremental.batches")
_SEEDS = metrics.histogram("incremental.seeds")
_INVALIDATED = metrics.histogram("incremental.invalidated")


@dataclass
class IncrementalResult:
    """One converged state: output vector plus the resume profile."""

    values: np.ndarray
    stats: RuntimeStats
    incremental: bool
    seeds: int = 0
    invalidated: int = 0
    vertices_touched: int = 0


class IncrementalSession:
    """A converged run over a mutable graph, resumable after mutations.

    Parameters
    ----------
    graph:
        The mutable CSR graph.  The session applies mutation batches to it
        (symmetrically for k-core) and owns the converged value vector.
    algorithm:
        One of :data:`INCREMENTAL_ALGORITHMS`.
    source:
        Source vertex for the path algorithms (ignored by k-core).
    schedule:
        Bucketing schedule; the resume uses the same strategy (lazy /
        eager / relaxed) as the initial run.  Under ``execution="native"``
        the cold run executes the native kernel (its output vector is the
        resume state) and every resume runs the same program serially.
    """

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: str,
        source: int = 0,
        schedule: Schedule | None = None,
    ):
        if algorithm not in INCREMENTAL_ALGORITHMS:
            raise GraphError(
                f"unknown incremental algorithm {algorithm!r}; expected one "
                f"of {INCREMENTAL_ALGORITHMS}"
            )
        self.graph = graph
        self.algorithm = algorithm
        self.source = int(source)
        if schedule is None:
            if algorithm == "kcore":
                from ..algorithms.kcore import DEFAULT_KCORE_SCHEDULE

                schedule = DEFAULT_KCORE_SCHEDULE
            elif algorithm == "widest_path":
                schedule = DEFAULT_WIDEST_SCHEDULE
            else:
                from ..algorithms.sssp import DEFAULT_SSSP_SCHEDULE
                from ..algorithms.wbfs import DEFAULT_WBFS_SCHEDULE

                schedule = (
                    DEFAULT_WBFS_SCHEDULE if algorithm == "wbfs" else DEFAULT_SSSP_SCHEDULE
                )
        if algorithm == "wbfs" and schedule.delta != 1:
            raise SchedulingError("wBFS fixes delta to 1 (it is its defining property)")
        self.schedule = schedule
        #: What computed the current values: ``"native"`` after a native
        #: cold run, else the interpreter's mode (every resume is
        #: interpreted).
        self.execution: str | None = None
        # The path algorithms' value semantics (identity, edge offer, which
        # way "better" points); k-core is degree-based and has none.
        self._extremum = {"kcore": None, "widest_path": MAX}.get(algorithm, MIN)
        # Internal (un-normalized) converged value vector; ``None`` until
        # the first run().
        self._values: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Mutation classification
    # ------------------------------------------------------------------
    def _is_improving(self, new_weight: int, old_effective: int) -> bool:
        """Does moving the edge weight to ``new_weight`` only help heads?"""
        return self._extremum.reduce(new_weight, old_effective) == new_weight

    def _effective_weight(self, src: int, dst: int) -> int | None:
        """The best weight over all live parallel copies of ``src -> dst``."""
        neighbors = self.graph.out_neighbors(src)
        weights = self.graph.out_weights(src)
        copies = weights[neighbors == dst]
        if copies.size == 0:
            return None
        return int(self._extremum.reduce.reduce(copies))

    def _is_tight(self, src: int, dst: int, vals: np.ndarray, out_edges) -> bool:
        """Could any copy of ``src -> dst`` in the graph ``vals`` converged
        on be supporting ``dst``?  ``out_edges(v)`` reads that graph: an
        earlier mutation in the same batch may already have moved the edge
        (an improving update, then a removal, must still invalidate)."""
        if dst == self.source:
            return False  # the source's value is pinned, not edge-derived
        src_value = int(vals[src])
        dst_value = int(vals[dst])
        identity = self._extremum.identity
        if src_value == identity or dst_value == identity:
            return False
        neighbors, weights = out_edges(src)
        for weight in weights[neighbors == dst]:
            if self._extremum.offer(src_value, int(weight)) == dst_value:
                return True
        return False

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The published (normalized) converged output vector."""
        if self._values is None:
            raise GraphError("session has no converged state yet; call run()")
        return self._publish(self._values)

    def _publish(self, values: np.ndarray) -> np.ndarray:
        if self._extremum is None:
            return values.copy()
        return self._extremum.publish(values)

    def run(self) -> IncrementalResult:
        """The from-scratch converged run establishing the resume state."""
        if self.algorithm == "kcore":
            from .kcore import initial_coreness

            values, stats, self.execution = initial_coreness(self.graph, self.schedule)
            self._values = values
            return IncrementalResult(values=values.copy(), stats=stats, incremental=False)
        check_source(self.graph, self.source)
        # The resume state includes the reverse adjacency: build it once
        # here so no later apply() pays the O(E log E) construction.
        self.graph.ensure_in_base()
        if self.schedule.execution == "native":
            values, stats = self._native_run()
        else:
            values = self._extremum.fresh(self.graph.num_vertices, self.source)
            stats = self._resume(values, [self.source])
        self._values = values
        return IncrementalResult(
            values=self._publish(values), stats=stats, incremental=False
        )

    def _native_run(self) -> tuple[np.ndarray, RuntimeStats]:
        """The cold run on the native kernel, as resume state.

        The kernel converges to the fixpoint the interpreter reaches, so
        its output vector is the state an interpreted cold run leaves, with
        one exception: WIDEST fills ``width`` with 0, not the internal
        identity, so a bottleneck of at most 0 reads 0.  Those entries are
        reset to the identity and re-derived by a resume from the tails of
        the edges entering them (none when every weight is positive: the
        reached set is then closed under out-edges)."""
        self._check_weights()
        result = self._program(self.schedule).run(self._argv(), graph=self.graph)
        values = result.globals[_VECTORS[self.algorithm]]
        stats = result.stats
        if self._extremum is MAX:
            identity = self._extremum.identity
            values[values == 0] = identity
            src, dst, _ = self.graph.edge_list()
            tails = src[(values[src] != identity) & (values[dst] == identity)]
            if tails.size:
                self._resume(values, np.unique(tails))
        self.execution = result.execution
        return values, stats

    def _check_weights(self) -> None:
        if self._extremum is MIN and self.graph.has_negative_weights:
            raise GraphError(
                "Δ-stepping requires non-negative edge weights (a negative "
                "weight would violate the monotone-priority contract)"
            )

    def _program(self, schedule: Schedule):
        return cached_program(ALL_PROGRAMS[_PROGRAMS[self.algorithm]], schedule)

    def _argv(self) -> list[str]:
        return [self.algorithm, "-", str(self.source)]

    def _resume(self, values: np.ndarray, seeds) -> RuntimeStats:
        """Run the compiled program from ``seeds`` to the fixpoint, updating
        ``values`` in place; returns the run's profile.  A native session
        resumes the same program interpreted (serially): native kernels
        initialise their own vectors and cannot be seeded."""
        self._check_weights()
        schedule = self.schedule
        if schedule.execution == "native":
            schedule = replace(schedule, execution="serial")
        self.execution = schedule.execution
        result = self._program(schedule).run(
            self._argv(), graph=self.graph, resume=(values, seeds)
        )
        return result.stats

    def apply(self, mutations: list[Mutation]) -> IncrementalResult:
        """Apply a mutation batch and resume from a seeded frontier."""
        if self._values is None:
            raise GraphError("call run() before applying mutations")
        if self.algorithm == "kcore":
            return self._apply_kcore(mutations)
        return self._apply_extremal(mutations)

    # ------------------------------------------------------------------
    # Min/max resume
    # ------------------------------------------------------------------
    def _apply_extremal(self, mutations: list[Mutation]) -> IncrementalResult:
        graph, vals = self.graph, self._values
        n = graph.num_vertices
        extremum = self._extremum
        identity = extremum.identity
        pre_values = vals.copy()

        # Pre-mutation adjacency snapshot: the cone walks *old* tight
        # edges.  The base arrays are snapshotted by reference (mutations
        # never write indptr/indices in place; a compaction *replaces*
        # them, leaving these references intact) plus a copy of the small
        # overlay state.  Only ``update_weight`` writes through the
        # weights array, so it alone forces a weights copy.
        pre_indptr, pre_indices, pre_weights = graph.base_csr()
        if any(m.kind == "update" for m in mutations):
            pre_weights = pre_weights.copy()
        removed = graph.removed_mask()
        pre_removed = removed.copy() if removed is not None else None
        pre_pending = graph.pending_snapshot()

        def pre_out_edges(v: int) -> tuple[np.ndarray, np.ndarray]:
            """``v``'s out-edges in the pre-mutation graph."""
            start, end = pre_indptr[v], pre_indptr[v + 1]
            neighbors = pre_indices[start:end]
            weights = pre_weights[start:end]
            if pre_removed is not None:
                keep = ~pre_removed[start:end]
                neighbors = neighbors[keep]
                weights = weights[keep]
            added = pre_pending.get(v)
            if added:
                neighbors = np.concatenate(
                    [neighbors, np.asarray([d for d, _ in added], dtype=np.int64)]
                )
                weights = np.concatenate(
                    [weights, np.asarray([w for _, w in added], dtype=np.int64)]
                )
            return neighbors, weights

        # Phase 1: classify each mutation against the converged values,
        # applying it immediately so later mutations in the batch see the
        # intermediate graph (e.g. remove of an edge added moments ago).
        improving_seeds: set[int] = set()
        worsened_heads: set[int] = set()
        with span("incremental.classify", "incremental", mutations=len(mutations)):
            for mutation in mutations:
                if mutation.kind == "add":
                    improving_seeds.add(mutation.src)
                    graph.add_edge(mutation.src, mutation.dst, mutation.weight)
                elif mutation.kind == "remove":
                    if self._is_tight(mutation.src, mutation.dst, vals, pre_out_edges):
                        worsened_heads.add(mutation.dst)
                    graph.remove_edge(mutation.src, mutation.dst)
                else:
                    old_effective = self._effective_weight(mutation.src, mutation.dst)
                    if old_effective is None:
                        raise GraphError(
                            f"no edge {mutation.src} -> {mutation.dst} to update"
                        )
                    if self._is_improving(mutation.weight, old_effective):
                        improving_seeds.add(mutation.src)
                    elif self._is_tight(mutation.src, mutation.dst, vals, pre_out_edges):
                        worsened_heads.add(mutation.dst)
                    graph.update_weight(mutation.src, mutation.dst, mutation.weight)

        # Phase 2: the invalidation cone — transitive tight-edge
        # descendants of every worsened head, on the pre-mutation graph.
        cone = np.zeros(n, dtype=bool)
        with span("incremental.invalidate", "incremental") as sp:
            stack = [
                head
                for head in sorted(worsened_heads)
                if head != self.source and vals[head] != identity
            ]
            while stack:
                v = stack.pop()
                if cone[v]:
                    continue
                cone[v] = True
                v_value = int(vals[v])
                pre_neighbors, pre_edge_weights = pre_out_edges(v)
                for x, w in zip(pre_neighbors, pre_edge_weights):
                    x = int(x)
                    if cone[x] or x == self.source or vals[x] == identity:
                        continue
                    if extremum.offer(v_value, int(w)) == int(vals[x]):
                        stack.append(x)
            cone_vertices = np.flatnonzero(cone)
            sp["invalidated"] = int(cone_vertices.size)

        # Phase 3: recompute cone members from the cone boundary over the
        # *new* graph.  Members only reachable through the cone stay at the
        # identity and recover through relaxation from the seeds.
        with span("incremental.recompute", "incremental", cone=int(cone_vertices.size)):
            vals[cone_vertices] = identity
            for v in cone_vertices:
                # Overlay-aware point query against the *new* graph via the
                # retained base in-adjacency — O(in-degree), never a full
                # in-CSR rebuild.
                tails, edge_weights = graph.in_edges_of(int(v))
                live = ~cone[tails] & (vals[tails] != identity)
                if not np.any(live):
                    continue
                offers = extremum.offer(vals[tails[live]], edge_weights[live])
                vals[v] = int(extremum.reduce.reduce(offers))

        # Phase 4: seed and resume.  Seeds are the recomputed cone members
        # plus the improving endpoints — every tense edge's tail is one of
        # them, so monotone relaxation reaches the unique fixpoint.
        seeds_mask = np.zeros(n, dtype=bool)
        seeds_mask[cone_vertices[vals[cone_vertices] != identity]] = True
        for endpoint in improving_seeds:
            if vals[endpoint] != identity:
                seeds_mask[endpoint] = True
        seeds = np.flatnonzero(seeds_mask)

        with span(
            "incremental.resume",
            "incremental",
            algorithm=self.algorithm,
            seeds=int(seeds.size),
        ):
            stats = self._resume(vals, seeds)

        touched = cone | seeds_mask | (vals != pre_values)
        _BATCHES.inc()
        _SEEDS.observe(seeds.size)
        _INVALIDATED.observe(cone_vertices.size)
        stats.incremental_runs += 1
        stats.incremental_mutations += len(mutations)
        stats.incremental_seeds += int(seeds.size)
        stats.incremental_invalidated += int(cone_vertices.size)
        stats.incremental_vertices_touched += int(np.count_nonzero(touched))
        return IncrementalResult(
            values=self._publish(vals),
            stats=stats,
            incremental=True,
            seeds=int(seeds.size),
            invalidated=int(cone_vertices.size),
            vertices_touched=int(np.count_nonzero(touched)),
        )

    # ------------------------------------------------------------------
    # k-core resume
    # ------------------------------------------------------------------
    def _apply_kcore(self, mutations: list[Mutation]) -> IncrementalResult:
        from .kcore import apply_kcore_batch

        self.execution = "serial"  # the local fixpoint runs in Python
        return apply_kcore_batch(self, mutations)
