"""Per-vertex property sentinels.

The DSL's ``vector{Vertex}(int)`` is a plain int64 numpy array; this module
holds the sentinel the runtime and the algorithms share.
"""

from __future__ import annotations

import numpy as np

__all__ = ["INT_MAX"]

# Matches the paper's use of INT_MAX as the "infinity" distance sentinel.
INT_MAX = np.iinfo(np.int64).max
