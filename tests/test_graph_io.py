"""Unit tests for graph serialization (edge list, DIMACS, npz)."""

import zipfile

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    CSRGraph,
    from_edges,
    load_dimacs,
    load_edge_list,
    load_npz,
    road_grid,
    save_dimacs,
    save_edge_list,
    save_npz,
)


@pytest.fixture
def sample(tmp_path):
    graph = from_edges(4, [(0, 1, 5), (1, 2, 3), (2, 3, 1), (0, 3, 9)])
    return graph, tmp_path


def test_edge_list_roundtrip(sample):
    graph, tmp = sample
    path = tmp / "graph.el"
    save_edge_list(graph, path)
    loaded = load_edge_list(path)
    assert np.array_equal(loaded.indptr, graph.indptr)
    assert np.array_equal(loaded.indices, graph.indices)
    assert np.array_equal(loaded.weights, graph.weights)


def test_edge_list_comments_and_unweighted(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("# comment\n% other comment\n0 1\n1 2 7\n")
    graph = load_edge_list(path)
    assert graph.num_vertices == 3
    assert graph.weights.tolist() == [1, 7]


def test_edge_list_explicit_vertex_count(tmp_path):
    path = tmp_path / "g.el"
    path.write_text("0 1\n")
    graph = load_edge_list(path, num_vertices=10)
    assert graph.num_vertices == 10


def test_edge_list_vertices_header_keeps_isolated_tail(tmp_path):
    """save_edge_list's ``# vertices=N`` header survives the reload: a
    5-vertex graph with edges only among 0-2 used to come back with 3."""
    path = tmp_path / "g.el"
    graph = from_edges(5, [(0, 1, 2), (1, 2, 3)])
    save_edge_list(graph, path)
    loaded = load_edge_list(path)
    assert loaded.num_vertices == 5
    assert np.array_equal(loaded.indptr, graph.indptr)
    # max(max id + 1, declared), as the C++ driver reads it; an explicit
    # count still wins.
    path.write_text("# vertices=2\n0 3\n")
    assert load_edge_list(path).num_vertices == 4
    assert load_edge_list(path, num_vertices=7).num_vertices == 7


@pytest.mark.parametrize("field", ["1_0", "\u0661", "0x1", "+", "1.0", "1e3", "\u00b9"])
def test_edge_list_fields_are_whole_ascii_integers(tmp_path, field):
    """A field is read whole as ``[+-]?[0-9]+``, as the C++ driver's
    ``strtoll`` reads it: ``int()`` read ``1_0`` as vertex 10 (an 11-vertex
    graph) and accepted non-ASCII digits."""
    path = tmp_path / "g.el"
    path.write_text(f"{field} 2\n", encoding="utf-8")
    with pytest.raises(GraphError, match="g.el:1: expected 'src dst"):
        load_edge_list(path)
    path.write_text("+1 -0 +7\n")
    assert load_edge_list(path).edge_list()[2].tolist() == [7]


def test_edge_list_reads_bytes_as_the_driver_does(tmp_path):
    """Lines end at ``\\n`` only, a comment may hold any bytes, and a
    ``vertices=`` with no digits declares 0 vertices, as in the driver."""
    path = tmp_path / "g.el"
    path.write_bytes(b"# \xff vertices=9\n#vertices=x\n0 1\r\v2\n")
    graph = load_edge_list(path)
    assert graph.num_vertices == 2
    assert graph.edge_list()[2].tolist() == [2]


def test_edge_list_malformed_rejected(tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("0 1 2 3\n")
    with pytest.raises(GraphError):
        load_edge_list(path)


def test_dimacs_roundtrip(sample):
    graph, tmp = sample
    path = tmp / "graph.gr"
    save_dimacs(graph, path)
    loaded = load_dimacs(path)
    assert loaded.num_vertices == graph.num_vertices
    assert np.array_equal(loaded.indices, graph.indices)
    assert np.array_equal(loaded.weights, graph.weights)


def test_dimacs_with_coordinates(tmp_path):
    graph = road_grid(4, 5, seed=1)
    gr = tmp_path / "road.gr"
    co = tmp_path / "road.co"
    save_dimacs(graph, gr, coordinates_path=co)
    loaded = load_dimacs(gr, coordinates_path=co)
    assert loaded.has_coordinates
    assert np.allclose(loaded.coordinates, graph.coordinates, atol=1e-5)


def test_dimacs_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("a 1 2 3\n")
    with pytest.raises(GraphError):
        load_dimacs(path)


def test_dimacs_unknown_record_rejected(tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text("p sp 2 1\nx 1 2 3\n")
    with pytest.raises(GraphError):
        load_dimacs(path)


def test_dimacs_coordinates_require_graph_coords(sample):
    graph, tmp = sample
    with pytest.raises(GraphError):
        save_dimacs(graph, tmp / "g.gr", coordinates_path=tmp / "g.co")


def test_npz_roundtrip(sample):
    graph, tmp = sample
    path = tmp / "graph.npz"
    save_npz(graph, path)
    loaded = load_npz(path)
    assert np.array_equal(loaded.indptr, graph.indptr)
    assert np.array_equal(loaded.indices, graph.indices)
    assert np.array_equal(loaded.weights, graph.weights)
    assert not loaded.has_coordinates


def test_npz_roundtrip_with_coordinates(tmp_path):
    graph = road_grid(3, 4, seed=2)
    path = tmp_path / "road.npz"
    save_npz(graph, path)
    loaded = load_npz(path)
    assert np.array_equal(loaded.coordinates, graph.coordinates)


@pytest.mark.parametrize("coordinates", [False, True], ids=["plain", "coordinates"])
def test_npz_entries_are_stored_not_deflated(tmp_path, coordinates):
    graph = road_grid(3, 4, seed=2)
    if not coordinates:
        graph = CSRGraph(graph.indptr, graph.indices, graph.weights)
    path = tmp_path / "graph.npz"
    save_npz(graph, path)
    with zipfile.ZipFile(path) as archive:
        entries = archive.infolist()
    expected = {"indptr", "indices", "weights"} | ({"coordinates"} if coordinates else set())
    assert {entry.filename.removesuffix(".npy") for entry in entries} == expected
    assert all(entry.compress_type == zipfile.ZIP_STORED for entry in entries)
    loaded = load_npz(path)
    assert np.array_equal(loaded.indptr, graph.indptr)
    assert np.array_equal(loaded.indices, graph.indices)
    assert np.array_equal(loaded.weights, graph.weights)
    assert loaded.has_coordinates == coordinates


def test_compressed_npz_still_loads(tmp_path):
    graph = road_grid(3, 4, seed=2)
    path = tmp_path / "compressed.npz"
    np.savez_compressed(
        path,
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
        coordinates=graph.coordinates,
    )
    with zipfile.ZipFile(path) as archive:
        assert all(e.compress_type == zipfile.ZIP_DEFLATED for e in archive.infolist())
    loaded = load_npz(path)
    assert np.array_equal(loaded.indptr, graph.indptr)
    assert np.array_equal(loaded.indices, graph.indices)
    assert np.array_equal(loaded.weights, graph.weights)
    assert np.array_equal(loaded.coordinates, graph.coordinates)
