"""Per-vertex property sentinels.

The DSL's ``vector{Vertex}(int)`` is a plain int64 numpy array; this module
holds the sentinels the runtime and the algorithms share.
"""

from __future__ import annotations

import numpy as np

__all__ = ["INT_MAX", "NULL_PRIORITY_LOWER", "NULL_PRIORITY_HIGHER"]

# Matches the paper's use of INT_MAX as the "infinity" distance sentinel.
INT_MAX = np.iinfo(np.int64).max

# Null priority sentinels (Section 2's ∅): a vertex with the null priority is
# not tracked by a queue until an update gives it a real priority.
NULL_PRIORITY_LOWER = INT_MAX
NULL_PRIORITY_HIGHER = np.int64(-(2**62))
