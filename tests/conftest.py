"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph import from_edges, rmat, road_grid


@pytest.fixture(autouse=True)
def _isolated_state_dir(tmp_path, monkeypatch):
    """Route flight-recorder forensics dumps into the test's tmp dir.

    Failure-path tests exercise ``repro.cli.main`` error handling, which
    dumps ``$REPRO_STATE_DIR/last_run.json`` — without this, those dumps
    would land in a ``.repro/`` directory inside the repository.
    """
    monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / ".repro"))


@pytest.fixture(scope="session", autouse=True)
def _isolated_kernel_cache(tmp_path_factory):
    """Native kernels built by the suite go to a temporary cache, not the
    user's ``~/.cache/repro/kernels`` (unless a cache is already set)."""
    if os.environ.get("REPRO_KERNEL_CACHE"):
        yield
        return
    os.environ["REPRO_KERNEL_CACHE"] = str(tmp_path_factory.mktemp("kernels"))
    yield
    os.environ.pop("REPRO_KERNEL_CACHE", None)


@pytest.fixture
def diamond_graph():
    """A 5-vertex weighted DAG with two competing paths.

    Shortest distances from 0: [0, 2, 5, 6, 7].
    """
    return from_edges(
        5, [(0, 1, 2), (0, 2, 7), (1, 2, 3), (2, 3, 1), (1, 3, 10), (3, 4, 1)]
    )


@pytest.fixture
def small_social():
    """An R-MAT graph big enough to exercise all code paths (~2k vertices)."""
    return rmat(11, 16, seed=3)


@pytest.fixture
def small_social_source(small_social):
    """A high-out-degree source so most of the graph is reachable."""
    return int(np.argmax(small_social.out_degrees()))


@pytest.fixture
def small_road():
    """A road grid with a meaningful diameter (~30x30)."""
    return road_grid(28, 30, seed=4)


@pytest.fixture
def small_symmetric(small_social):
    """Symmetrized social graph for k-core / SetCover."""
    return small_social.symmetrized()
