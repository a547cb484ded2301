"""Synthetic graph generators.

These generators produce the laptop-scale stand-ins for the paper's datasets
(Table 3): R-MAT/Kronecker graphs emulate the heavy-tailed, small-diameter
social and web graphs (LiveJournal, Orkut, Twitter, Friendster, WebGraph),
while grid-based road networks emulate the large-diameter, near-planar road
graphs (Massachusetts, Germany, RoadUSA) and carry the planar coordinates
required by A* search.  All generators are seeded and deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GraphError
from .builder import GraphBuilder
from .csr import CSRGraph

__all__ = [
    "rmat",
    "road_grid",
    "erdos_renyi",
    "random_geometric",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "assign_uniform_weights",
    "assign_log_weights",
]


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weights: tuple[int, int] | None = (1, 1000),
) -> CSRGraph:
    """Generate an R-MAT (recursive matrix) graph.

    Produces ``2**scale`` vertices and about ``edge_factor * 2**scale``
    directed edges with the Graph500 default partition probabilities, which
    yields the heavy-tailed degree distribution and small diameter
    characteristic of social networks.  Parallel edges and self-loops are
    removed, matching the conventions of the GAP benchmark suite generator.

    Parameters
    ----------
    scale:
        log2 of the number of vertices.
    edge_factor:
        Average out-degree before deduplication.
    a, b, c:
        Quadrant probabilities (the fourth is ``1 - a - b - c``).
    seed:
        RNG seed.
    weights:
        ``(low, high)`` for uniform integer weights in ``[low, high)``; pass
        ``None`` for an unweighted graph.
    """
    if scale < 0:
        raise GraphError("scale must be non-negative")
    if not 0 < a + b + c < 1:
        raise GraphError("quadrant probabilities must satisfy 0 < a+b+c < 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = edge_factor * n

    sources = np.zeros(m, dtype=np.int64)
    dests = np.zeros(m, dtype=np.int64)
    # Standard R-MAT: at each of `scale` levels, each edge picks one of the
    # four quadrants; noise on the probabilities avoids degenerate locality.
    for _ in range(scale):
        r = rng.random(m)
        ab = a + b
        abc = a + b + c
        go_down = (r >= a) & (r < ab) | (r >= abc)
        go_right = r >= ab
        sources = (sources << 1) | go_right.astype(np.int64)
        dests = (dests << 1) | go_down.astype(np.int64)

    # Permute vertex ids so the heavy vertices are not clustered at id 0.
    perm = rng.permutation(n)
    sources = perm[sources]
    dests = perm[dests]

    builder = GraphBuilder(n)
    weight_values = None
    if weights is not None:
        low, high = weights
        weight_values = rng.integers(low, high, size=m, dtype=np.int64)
    builder.add_edges(sources, dests, weight_values)
    return builder.build(deduplicate="first", remove_self_loops=True)


def road_grid(
    rows: int,
    cols: int,
    seed: int = 0,
    drop_fraction: float = 0.08,
    diagonal_fraction: float = 0.05,
    coordinate_scale: float = 100.0,
) -> CSRGraph:
    """Generate a road-network-like graph on a jittered grid.

    Vertices sit on a ``rows x cols`` grid with positional jitter; edges
    connect grid neighbours (and a few random diagonals), weighted by the
    rounded Euclidean distance between endpoints — the analogue of the
    "original weights" the paper uses for road graphs.  A fraction of edges
    is dropped to break the regularity.  The result is symmetric (roads are
    two-way), connected on the retained component of the grid, has a large
    diameter of roughly ``rows + cols``, and carries coordinates for A*.

    Edges on a spanning tree of the grid are never dropped, so the graph
    stays connected.
    """
    if rows < 1 or cols < 1:
        raise GraphError("rows and cols must be positive")
    rng = np.random.default_rng(seed)
    n = rows * cols

    xs, ys = np.meshgrid(
        np.arange(cols, dtype=np.float64), np.arange(rows, dtype=np.float64)
    )
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    coords += rng.uniform(-0.25, 0.25, size=coords.shape)
    coords *= coordinate_scale

    # Horizontal edges in row 0 plus all vertical edges form a spanning
    # tree ("comb"); other horizontals are optional.  Edges are listed in
    # the order of a row-major scan that emits, at each vertex, its right
    # then its down edge.
    ids = np.arange(n, dtype=np.int64).reshape(rows, cols)
    row0 = ids[0]
    # Row 0 interleaves right and down edges per column.
    head_src = np.stack([row0, row0], axis=1)
    head_dst = np.stack([row0 + 1, row0 + cols], axis=1)
    head_keep = np.stack(
        [np.arange(cols) + 1 < cols, np.full(cols, rows > 1)], axis=1
    )
    comb_src = ids[1:-1].ravel()  # down edges of rows 1 .. rows-2
    optional_src = ids[1:, :-1].ravel()  # right edges of rows 1 .. rows-1

    keep_mask = rng.random(optional_src.size) >= drop_fraction
    kept_src = optional_src[keep_mask]
    sources = np.concatenate([head_src[head_keep], comb_src, kept_src])
    dests = np.concatenate([head_dst[head_keep], comb_src + cols, kept_src + 1])

    if rows > 1 and cols > 1:
        # One (row, column) draw per diagonal, in the stream order of a
        # scalar draw of the row then the column.
        num_diagonals = int(diagonal_fraction * sources.size)
        cells = rng.integers(0, [rows - 1, cols - 1], size=(num_diagonals, 2))
        diagonal_src = cells[:, 0] * cols + cells[:, 1]
        sources = np.concatenate([sources, diagonal_src])
        dests = np.concatenate([dests, diagonal_src + cols + 1])
    deltas = coords[sources] - coords[dests]
    # ceil keeps straight-line distance an admissible A* heuristic:
    # every edge weight is >= the Euclidean distance between its endpoints.
    lengths = np.maximum(1, np.ceil(np.hypot(deltas[:, 0], deltas[:, 1]))).astype(
        np.int64
    )

    builder = GraphBuilder(n)
    builder.add_edges(sources, dests, lengths)
    builder.add_edges(dests, sources, lengths)
    return builder.build(
        deduplicate="min", remove_self_loops=True, coordinates=coords
    )


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    weights: tuple[int, int] | None = (1, 1000),
) -> CSRGraph:
    """Generate a uniform random directed multigraph with dedup applied."""
    if num_vertices < 1 and num_edges > 0:
        raise GraphError("cannot place edges in an empty graph")
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dests = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    weight_values = None
    if weights is not None:
        weight_values = rng.integers(weights[0], weights[1], size=num_edges, dtype=np.int64)
    builder = GraphBuilder(num_vertices)
    builder.add_edges(sources, dests, weight_values)
    return builder.build(deduplicate="first", remove_self_loops=True)


def random_geometric(
    num_vertices: int,
    radius: float,
    seed: int = 0,
    coordinate_scale: float = 100.0,
) -> CSRGraph:
    """Generate a symmetric random geometric graph in the unit square.

    Vertices are uniform in [0,1)^2 and connected when within ``radius``.
    Weights are rounded scaled Euclidean distances; coordinates are retained
    so the graph is usable with A*.  Useful as a second road-like topology.
    """
    rng = np.random.default_rng(seed)
    coords = rng.random((num_vertices, 2))
    sources: list[int] = []
    dests: list[int] = []
    # Cell-grid neighbour search keeps this O(n) for fixed density.
    cell = max(radius, 1e-9)
    grid: dict[tuple[int, int], list[int]] = {}
    for v, (x, y) in enumerate(coords):
        grid.setdefault((int(x / cell), int(y / cell)), []).append(v)
    for (cx, cy), members in grid.items():
        neighbors_cells = [
            grid.get((cx + dx, cy + dy), [])
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        ]
        candidates = [v for cell_members in neighbors_cells for v in cell_members]
        for v in members:
            for u in candidates:
                if u <= v:
                    continue
                if np.hypot(*(coords[v] - coords[u])) <= radius:
                    sources.append(v)
                    dests.append(u)

    coords_scaled = coords * coordinate_scale
    src_arr = np.array(sources, dtype=np.int64)
    dst_arr = np.array(dests, dtype=np.int64)
    if src_arr.size:
        deltas = coords_scaled[src_arr] - coords_scaled[dst_arr]
        lengths = np.maximum(1, np.ceil(np.hypot(deltas[:, 0], deltas[:, 1]))).astype(
            np.int64
        )
    else:
        lengths = np.empty(0, dtype=np.int64)
    builder = GraphBuilder(num_vertices)
    builder.add_edges(src_arr, dst_arr, lengths)
    builder.add_edges(dst_arr, src_arr, lengths)
    return builder.build(
        deduplicate="min", remove_self_loops=True, coordinates=coords_scaled
    )


def path_graph(num_vertices: int, weight: int = 1, symmetric: bool = False) -> CSRGraph:
    """A directed (or symmetric) path ``0 -> 1 -> ... -> n-1``."""
    builder = GraphBuilder(num_vertices)
    for v in range(num_vertices - 1):
        builder.add_edge(v, v + 1, weight)
        if symmetric:
            builder.add_edge(v + 1, v, weight)
    return builder.build()


def cycle_graph(num_vertices: int, weight: int = 1) -> CSRGraph:
    """A directed cycle on ``num_vertices`` vertices."""
    if num_vertices < 1:
        raise GraphError("cycle needs at least one vertex")
    builder = GraphBuilder(num_vertices)
    for v in range(num_vertices):
        builder.add_edge(v, (v + 1) % num_vertices, weight)
    return builder.build()


def star_graph(num_leaves: int, weight: int = 1, symmetric: bool = True) -> CSRGraph:
    """A star: vertex 0 connected to ``num_leaves`` leaves."""
    builder = GraphBuilder(num_leaves + 1)
    for leaf in range(1, num_leaves + 1):
        builder.add_edge(0, leaf, weight)
        if symmetric:
            builder.add_edge(leaf, 0, weight)
    return builder.build()


def complete_graph(num_vertices: int, weight: int = 1) -> CSRGraph:
    """A complete directed graph without self-loops."""
    builder = GraphBuilder(num_vertices)
    for u in range(num_vertices):
        for v in range(num_vertices):
            if u != v:
                builder.add_edge(u, v, weight)
    return builder.build()


def assign_uniform_weights(
    graph: CSRGraph, low: int = 1, high: int = 1000, seed: int = 0
) -> CSRGraph:
    """Return a copy of ``graph`` with uniform integer weights in [low, high)."""
    rng = np.random.default_rng(seed)
    return graph.with_weights(
        rng.integers(low, high, size=graph.num_edges, dtype=np.int64)
    )


def assign_log_weights(graph: CSRGraph, seed: int = 0) -> CSRGraph:
    """Return a copy with weights in ``[1, log2 n)``, the paper's wBFS regime."""
    high = max(2, int(math.log2(max(2, graph.num_vertices))))
    rng = np.random.default_rng(seed)
    return graph.with_weights(
        rng.integers(1, high, size=graph.num_edges, dtype=np.int64)
    )
