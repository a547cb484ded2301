"""Byte-level pins on graph construction.

Every generator, ``symmetrized()``, ``in_csr()``, ``ensure_in_base()``,
``load_edge_list`` and ``compact()`` after a fixed mutation script is
hashed (sha256 over dtype, shape and bytes of each array) and compared
with ``tests/goldens/graphs.json``.  A change to how an index is sorted
or how a generator lays out its edges must leave every hash unchanged.

Regenerate after an intentional change to graph construction with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_graph_hashes.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.graph import (
    erdos_renyi,
    load_edge_list,
    random_geometric,
    rmat,
    road_grid,
)

GOLDEN = Path(__file__).parent / "goldens" / "graphs.json"

# Unsorted, with a comment, a duplicate edge, a self-loop and an
# unweighted line: the loader's whole input grammar.
EDGE_LIST = """\
# fixture
3 1 7
0 2 4
0 1 9
2 3 1
0 2 4
5 0
4 4 2
1 5 3
% trailing comment
5 3 6
"""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        if array is None:
            h.update(b"none;")
            continue
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape};".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _mutated(graph):
    """``graph`` after a fixed add / remove / update script, compacted."""
    sources, dests, _ = graph.edge_list()
    n = graph.num_vertices
    pairs = list(dict.fromkeys(zip(sources.tolist(), dests.tolist())))
    picked = pairs[:: max(1, len(pairs) // 7)]
    for src, dst in picked[:3]:
        graph.remove_edge(src, dst)
    for k, (src, dst) in enumerate(picked[3:6]):
        graph.update_weight(src, dst, 3 + k)
    added = [((7 * k + 1) % n, (5 * k + 3) % n) for k in range(9)]
    for k, (src, dst) in enumerate(added):
        graph.add_edge(src, dst, 2 + k)
    graph.update_weight(*added[2], 40)
    graph.remove_edge(*added[4])
    graph.compact()
    return graph


GENERATORS = {
    "rmat8_s0": lambda: rmat(8, seed=0),
    "rmat8_s1": lambda: rmat(8, seed=1),
    "rmat12_s0": lambda: rmat(12, seed=0),
    "rmat12_s1": lambda: rmat(12, seed=1),
    "road_1x5": lambda: road_grid(1, 5, seed=0),
    "road_5x1": lambda: road_grid(5, 1, seed=0),
    "road_2x2": lambda: road_grid(2, 2, seed=0),
    "road_7x3": lambda: road_grid(7, 3, seed=1),
    "road_3x9": lambda: road_grid(3, 9, seed=2),
    "road_40x40": lambda: road_grid(40, 40, seed=0),
    "erdos_renyi": lambda: erdos_renyi(500, 4000, seed=3),
    "random_geometric": lambda: random_geometric(300, 0.1, seed=2),
}


def _hashes(graph) -> dict[str, str]:
    return {
        "csr": _digest(graph.indptr, graph.indices, graph.weights, graph.coordinates),
        "in_csr": _digest(*graph.in_csr()),
        "in_base": _digest(*graph.ensure_in_base()),
    }


def _document(tmp_path) -> dict[str, dict[str, str]]:
    document = {}
    for name, make in GENERATORS.items():
        document[name] = _hashes(make())
        document[f"{name}.symmetrized"] = _hashes(make().symmetrized())
        document[f"{name}.compacted"] = _hashes(_mutated(make()))
    path = tmp_path / "fixture.el"
    path.write_text(EDGE_LIST)
    document["load_edge_list"] = _hashes(load_edge_list(path))
    return document


def test_graph_construction_matches_golden(tmp_path):
    document = _document(tmp_path)
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    assert GOLDEN.exists(), f"missing {GOLDEN}; run with REPRO_REGEN_GOLDENS=1"
    golden = json.loads(GOLDEN.read_text())
    drifted = sorted(
        f"{name}.{part}"
        for name, parts in golden.items()
        for part, digest in parts.items()
        if document.get(name, {}).get(part) != digest
    )
    assert not drifted and document.keys() == golden.keys(), drifted

