"""Parallel-runtime substrate: stats, virtual threads, frontiers, and the
schedule sanitizer."""

from .frontier import gather_in_edges, gather_out_edges, gather_segments
from .histogram import histogram_counts
from .parallel import EXECUTION_MODES, ParallelExecutionEngine, shutdown_executors
from .sanitizer import SanitizedVector, Sanitizer, SanitizerError
from .stats import DEFAULT_COST_MODEL, CostModel, RuntimeStats
from .threads import PARALLELIZATION_POLICIES, split_work

__all__ = [
    "RuntimeStats",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "split_work",
    "PARALLELIZATION_POLICIES",
    "ParallelExecutionEngine",
    "EXECUTION_MODES",
    "shutdown_executors",
    "gather_segments",
    "gather_out_edges",
    "gather_in_edges",
    "histogram_counts",
    "Sanitizer",
    "SanitizedVector",
    "SanitizerError",
]
