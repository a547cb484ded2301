"""Core ordered-processing runtime: the compiled form of applyUpdatePriority."""

from .executors import Relaxer, run_eager

__all__ = ["Relaxer", "run_eager"]
