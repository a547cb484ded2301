"""repro — a from-scratch reproduction of "Optimizing Ordered Graph
Algorithms with GraphIt" (CGO 2020).

The package provides (see DESIGN.md for the full inventory):

- :mod:`repro.graph` — CSR graphs, generators, I/O;
- :mod:`repro.buckets` — lazy (Julienne-style), eager (GAPBS-style with
  bucket fusion), and relaxed (Galois-style) priority-bucket structures;
- :mod:`repro.algorithms` — the six ordered algorithms of the paper plus
  unordered baselines and framework-emulation presets;
- :mod:`repro.lang` / :mod:`repro.midend` / :mod:`repro.backend` — the DSL
  compiler: parser, type checker, program analyses and transforms, and the
  Python and C++ code generators;
- :mod:`repro.autotune` — the schedule autotuner;
- :mod:`repro.eval` — datasets and the measurement harness used by the
  benchmark drivers.

Quick start::

    from repro import Schedule, sssp
    from repro.graph import road_grid

    graph = road_grid(60, 60, seed=1)
    result = sssp(graph, 0, Schedule(priority_update="eager_with_fusion",
                                     delta=2048))
    result.distances, result.stats.rounds
"""

from .algorithms import (
    astar,
    bellman_ford,
    dijkstra_reference,
    kcore,
    kcore_reference,
    ppsp,
    run_framework,
    setcover,
    sssp,
    unordered_kcore,
    wbfs,
    widest_path,
    widest_path_reference,
)
from .autotune import autotune
from .backend import CompiledProgram, RunResult, compile_program
from .errors import (
    AutotuneError,
    CompileError,
    GraphError,
    GraphItError,
    ParseError,
    PriorityQueueError,
    SchedulingError,
    TypeCheckError,
)
from .graph import CSRGraph, GraphBuilder
from .midend import Schedule, SchedulingProgram
from .runtime.sanitizer import SanitizerError

__version__ = "1.0.0"

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
    "dijkstra_reference",
    "kcore_reference",
    "run_framework",
    "autotune",
    "compile_program",
    "CompiledProgram",
    "RunResult",
    "Schedule",
    "SchedulingProgram",
    "CSRGraph",
    "GraphBuilder",
    "GraphItError",
    "GraphError",
    "ParseError",
    "TypeCheckError",
    "SchedulingError",
    "CompileError",
    "PriorityQueueError",
    "SanitizerError",
    "AutotuneError",
    "__version__",
]
