"""The six ordered algorithms, unordered baselines, and framework presets.

Every ordered algorithm is a wrapper over its DSL program in
:mod:`repro.lang.programs`: ``sssp`` / ``wbfs`` / ``ppsp`` / ``astar`` /
``widest_path`` run ``SSSP`` / ``WBFS`` / ``PPSP`` / ``ASTAR`` / ``WIDEST``,
``kcore`` and ``setcover`` run ``KCORE`` / ``SETCOVER``.  A wrapper checks
its arguments and the schedule, then runs the compiled program (memoized by
:func:`repro.backend.program.cached_program`); no module here builds a
queue or drives a loop.  The Galois preset is the ``relaxed`` strategy.
"""

from .astar import astar, euclidean_heuristic
from .common import UNREACHABLE, ShortestPathResult
from .frameworks import ALGORITHMS, FRAMEWORKS, run_framework, supports
from .kcore import DEFAULT_KCORE_SCHEDULE, KCoreResult, kcore, kcore_reference
from .ppsp import ppsp
from .setcover import (
    DEFAULT_SETCOVER_SCHEDULE,
    SetCoverResult,
    greedy_setcover_reference,
    setcover,
)
from .sssp import DEFAULT_SSSP_SCHEDULE, dijkstra_reference, sssp
from .unordered import bellman_ford, unordered_kcore
from .widest_path import DEFAULT_WIDEST_SCHEDULE, widest_path, widest_path_reference
from .wbfs import DEFAULT_WBFS_SCHEDULE, wbfs

__all__ = [
    "sssp",
    "wbfs",
    "ppsp",
    "astar",
    "kcore",
    "setcover",
    "bellman_ford",
    "unordered_kcore",
    "widest_path",
    "widest_path_reference",
    "DEFAULT_WIDEST_SCHEDULE",
    "dijkstra_reference",
    "kcore_reference",
    "greedy_setcover_reference",
    "euclidean_heuristic",
    "run_framework",
    "supports",
    "ShortestPathResult",
    "KCoreResult",
    "SetCoverResult",
    "UNREACHABLE",
    "FRAMEWORKS",
    "ALGORITHMS",
    "DEFAULT_SSSP_SCHEDULE",
    "DEFAULT_WBFS_SCHEDULE",
    "DEFAULT_KCORE_SCHEDULE",
    "DEFAULT_SETCOVER_SCHEDULE",
]
