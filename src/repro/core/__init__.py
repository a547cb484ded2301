"""Core ordered-processing runtime: the compiled form of applyUpdatePriority."""

from .executors import Relaxer, run_eager, run_lazy, run_lazy_pull, run_relaxed

__all__ = ["Relaxer", "run_eager", "run_lazy", "run_lazy_pull", "run_relaxed"]
