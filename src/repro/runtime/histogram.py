"""Histogram-based reduction of constant-sum priority updates.

Julienne (and Section 5.1 of the paper) observe that when a user-defined
function always changes a priority by the same constant (k-core decrements
each neighbour's degree by exactly 1), the per-edge updates can be replaced
by counting: build a histogram of how many updates target each vertex, then
apply the transformed user function once per vertex with its count
(Figure 10).  This avoids atomic contention on high-degree vertices.
"""

from __future__ import annotations

import numpy as np

from .stats import RuntimeStats

__all__ = ["histogram_counts"]


def histogram_counts(
    targets: np.ndarray, stats: RuntimeStats | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Count occurrences of each target vertex.

    Returns ``(vertices, counts)`` with ``vertices`` sorted and unique.  The
    histogram build itself is charged as one ``histogram_update`` per input
    element (each element is binned once).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if stats is not None:
        stats.histogram_updates += int(targets.size)
    if targets.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    vertices, counts = np.unique(targets, return_counts=True)
    return vertices, counts.astype(np.int64)
