"""The six ordered algorithms, unordered baselines, and framework presets.

``kcore`` and ``setcover`` are wrappers over the ``KCORE`` / ``SETCOVER``
DSL programs of :mod:`repro.lang.programs`: they check the schedule and run
the compiled program.  The shortest-path family (``sssp``, ``wbfs``,
``ppsp``, ``astar``, ``widest_path``) still drives the hand-written
extremal engine in :mod:`.common`, which incremental resume and the relaxed
(Galois) queue also use.
"""

from .astar import astar, euclidean_heuristic
from .common import UNREACHABLE, ShortestPathResult, run_delta_stepping
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
    "run_delta_stepping",
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
