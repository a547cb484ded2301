"""Slice of the oracle matrix (``tests/oracle_matrix.py``): property-based
fuzz of incremental recomputation (slow tier).

Hypothesis (derandomized, so CI sees the same cases every run) generates
arbitrary small multigraphs, a source, and an arbitrary interleaving of
single and batched mutations.  After every batch the resumed vector must
bit-match the scalar oracle, and the plain algorithm runner, both run over
a clean CSR rebuilt from the edge list — so a bug in the overlay read paths
cannot hide by affecting the incremental run and its oracle identically.

The generators deliberately produce the adversarial shapes the engine
documents: self-loops, duplicate (parallel) edges, zero-weight edges and
zero-weight cycles, disconnecting deletions, and mutations that touch
edges added earlier in the same batch.  The resume profile must also stay
sane: ``incremental_vertices_touched <= |V|`` on every batch.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.mutations import Mutation
from repro.midend.schedule import Schedule

from .oracle_matrix import check_history

pytestmark = pytest.mark.slow

MAX_VERTICES = 20

# An op spec is (kind, a, b, w): kind 0 = add a -> b with weight w,
# kind 1 = remove a live edge (a indexes into the current edge list),
# kind 2 = update a live edge's weight to w.  Specs are resolved against
# the live graph at application time, so every generated sequence is
# valid by construction.
OP_SPECS = st.tuples(
    st.integers(0, 2),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(0, 6),
)

GRAPH_SPEC = dict(
    n=st.integers(2, MAX_VERTICES),
    edges=st.lists(
        st.tuples(
            st.integers(0, MAX_VERTICES - 1),
            st.integers(0, MAX_VERTICES - 1),
            st.integers(0, 6),
        ),
        min_size=1,
        max_size=50,
    ),
    ops=st.lists(OP_SPECS, min_size=1, max_size=24),
    cuts=st.sets(st.integers(1, 23), max_size=6),
    source=st.integers(0, MAX_VERTICES - 1),
)

FUZZ_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def build_graph(n: int, edges, unit: bool, symmetric: bool) -> CSRGraph:
    resolved = [(src % n, dst % n, 1 if unit else weight) for src, dst, weight in edges]
    graph = from_edges(n, resolved)
    return graph.symmetrized() if symmetric else graph


def split_batches(ops, cuts):
    batches, current = [], []
    for index, op in enumerate(ops):
        if index in cuts and current:
            batches.append(current)
            current = []
        current.append(op)
    if current:
        batches.append(current)
    return batches


def resolve_batch(
    graph: CSRGraph, specs, unit: bool, symmetric: bool
) -> list[Mutation]:
    """Map op specs onto the live graph, skipping impossible ops.

    ``dead`` tracks pairs removed earlier in the batch (the engine applies
    sequentially, so a second removal of the same pair would raise).
    """
    sources, dests, _ = graph.edge_list()
    live = sources.size
    n = graph.num_vertices
    dead: set[tuple[int, int]] = set()
    batch: list[Mutation] = []
    for kind, a, b, weight in specs:
        weight = 1 if unit else weight
        if kind == 0:
            batch.append(Mutation("add", a % n, b % n, weight))
            continue
        if live == 0:
            continue
        src, dst = int(sources[a % live]), int(dests[a % live])
        if (src, dst) in dead or (symmetric and (dst, src) in dead):
            continue
        if kind == 1:
            dead.add((src, dst))
            batch.append(Mutation("remove", src, dst))
        else:
            batch.append(Mutation("update", src, dst, weight))
    return batch


def check_fuzz_case(
    algorithm: str,
    schedule: Schedule,
    n: int,
    edges,
    ops,
    cuts,
    source: int,
) -> None:
    unit = symmetric = algorithm == "kcore"
    sizes = []  # of the non-empty batches, which are the ones applied

    def batches(session):
        for specs in split_batches(ops, cuts):
            batch = resolve_batch(session.graph, specs, unit=unit, symmetric=symmetric)
            sizes.extend([len(batch)] if batch else [])
            yield batch

    _, results = check_history(
        algorithm,
        schedule,
        build_graph(n, edges, unit=unit, symmetric=symmetric),
        batches,
        source=source % n,
        also=("library",),
    )
    for result, size in zip(results, sizes, strict=True):
        # k-core resumes once per mutation (each with its own worklist), so
        # its seed count is bounded per mutation, not per batch.
        assert 0 <= result.seeds <= n * size


@settings(max_examples=40, **FUZZ_SETTINGS)
@given(strategy=st.sampled_from(["lazy", "eager_no_fusion"]), **GRAPH_SPEC)
def test_fuzz_sssp(strategy, n, edges, ops, cuts, source) -> None:
    check_fuzz_case(
        "sssp",
        Schedule(priority_update=strategy, delta=2),
        n, edges, ops, cuts, source,
    )


@settings(max_examples=15, **FUZZ_SETTINGS)
@given(**GRAPH_SPEC)
def test_fuzz_sssp_relaxed(n, edges, ops, cuts, source) -> None:
    check_fuzz_case(
        "sssp",
        Schedule(priority_update="relaxed", delta=2),
        n, edges, ops, cuts, source,
    )


@settings(max_examples=20, **FUZZ_SETTINGS)
@given(**GRAPH_SPEC)
def test_fuzz_widest_path(n, edges, ops, cuts, source) -> None:
    check_fuzz_case(
        "widest_path",
        Schedule(priority_update="lazy", delta=4),
        n, edges, ops, cuts, source,
    )


@settings(max_examples=15, **FUZZ_SETTINGS)
@given(**GRAPH_SPEC)
def test_fuzz_wbfs(n, edges, ops, cuts, source) -> None:
    check_fuzz_case(
        "wbfs",
        Schedule(priority_update="lazy", delta=1),
        n, edges, ops, cuts, source,
    )


@settings(max_examples=25, **FUZZ_SETTINGS)
@given(strategy=st.sampled_from(["lazy", "eager_no_fusion"]), **GRAPH_SPEC)
def test_fuzz_kcore(strategy, n, edges, ops, cuts, source) -> None:
    check_fuzz_case(
        "kcore",
        Schedule(priority_update=strategy, delta=1),
        n, edges, ops, cuts, source,
    )
