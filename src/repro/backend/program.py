"""The public compile API: DSL source + schedule → runnable program.

    from repro import compile_program, Schedule

    program = compile_program(SSSP_SOURCE, Schedule(priority_update="lazy"))
    result = program.run(["prog", "-", "0"], graph=my_graph)
    result.globals["dist"]       # the program's distance vector
    result.stats                 # rounds / syncs / simulated time

``backend="cpp"`` generates C++ source instead (``program.source_text``).
:func:`cached_program` memoizes ``compile_program`` per (source, schedule);
every library wrapper and every incremental or served session runs through it.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import CompileError, SchedulingError
from ..graph.csr import CSRGraph
from ..lang.parser import parse
from ..obs import metrics, note_run
from ..obs import span as trace_span
from ..midend.schedule import Schedule, SchedulingProgram
from ..midend.transforms.lowering import CompilationPlan, plan_program
from ..runtime.stats import RuntimeStats
from .python_backend import generate_python
from .runtime_support import Context

__all__ = ["compile_program", "cached_program", "CompiledProgram", "RunResult"]

_RUNS_COMPLETED = metrics.counter("runs.completed")
_RUNS_FAILED = metrics.counter("runs.failed")


@dataclass
class RunResult:
    """Outcome of one execution of a compiled program."""

    globals: dict[str, object]
    stats: RuntimeStats
    context: Context

    def vector(self, name: str) -> np.ndarray:
        value = self.globals.get(name)
        if not isinstance(value, np.ndarray):
            raise CompileError(f"program global {name!r} is not a vector")
        return value


@dataclass
class CompiledProgram:
    """A compiled DSL program: generated source plus its compilation plan."""

    plan: CompilationPlan
    backend: str
    source_text: str
    _entry: Callable | None = field(default=None, repr=False)
    #: Why the last native-mode run fell back to Python (None = it didn't).
    native_fallback_reason: str | None = field(default=None, repr=False)
    #: The native kernel's text, cache key and run parameters, set by the
    #: first native run so later runs do no code generation.
    _native_kernel: object | None = field(default=None, repr=False)

    @property
    def schedule(self) -> Schedule:
        return self.plan.schedule

    def run(
        self,
        args: list[str],
        graph: CSRGraph | None = None,
        extern_functions: dict[str, Callable] | None = None,
        vectorize: bool = True,
        resume: tuple[np.ndarray, object] | None = None,
    ) -> RunResult:
        """Execute the program (Python backend only).

        ``args`` plays the role of ``argv`` (``args[0]`` is the program
        name).  When ``graph`` is given, ``load(...)`` returns it instead of
        reading a file.  ``vectorize=False`` forces the scalar reference
        interpreter even for UDFs the midend classified as vectorizable —
        the oracle the differential tests compare against.

        ``resume=(values, seeds)`` continues a run from a partially
        converged state: the ordered loop's priority vector is ``values``
        itself (updated in place, no copy) and the queue starts from
        ``seeds`` at their current priorities instead of the start vertex.
        A cold run is the resume seeded with the source; an empty seed set
        runs no round.
        """
        if self.backend != "python":
            raise CompileError(
                f"the {self.backend} backend generates source only; "
                f"compile with backend='python' to run in-process"
            )
        if resume is not None:
            if self.plan.schedule.execution == "native":
                raise SchedulingError(
                    "native kernels initialise their own vectors and cannot "
                    "resume; run the resume with execution='serial' or "
                    "'parallel'"
                )
            values, seeds = resume
            resume = (values, np.asarray(seeds, dtype=np.int64))
        note_run(
            argv=list(args),
            execution=self.plan.schedule.execution,
            priority_update=self.plan.schedule.priority_update,
            delta=self.plan.schedule.delta,
        )
        if self.plan.schedule.execution == "native":
            from .native import NativeUnavailable, execute_native

            try:
                # The span makes the native path visible to ``repro
                # profile``: it is the top-level phase the compile/cache/
                # dispatch/execute spans nest under, like the Python path's
                # program.run span below.
                with trace_span(
                    "program.run", "runtime", argv=list(args), execution="native"
                ):
                    result = execute_native(self, args, graph=graph)
            except NativeUnavailable as exc:
                # The documented degradation ladder: no toolchain (or an
                # unlowerable program shape) falls back to the vectorized
                # Python kernels.  The Python engine treats the "native"
                # mode as serial, so the fallback is the PR-2 serial
                # vectorized path.
                self.native_fallback_reason = exc.reason
                print(
                    "N101: native execution unavailable; falling back to "
                    f"vectorized Python: {exc.reason}",
                    file=sys.stderr,
                )
            except Exception:
                _RUNS_FAILED.inc()
                raise
            else:
                _RUNS_COMPLETED.inc()
                return result
        context = Context(
            argv=args,
            schedule=self.plan.schedule,
            graph=graph,
            extern_functions=extern_functions,
            vectorize=vectorize,
            resume=resume,
        )
        try:
            with trace_span(
                "program.run",
                "runtime",
                argv=list(args),
                execution=self.plan.schedule.execution,
                vectorize=bool(vectorize),
            ):
                program_globals = self._entry(context)
        except Exception:
            _RUNS_FAILED.inc()
            raise
        _RUNS_COMPLETED.inc()
        if context.inverted_batches:
            print(
                f"V102: {context.inverted_batches} batch min/max update(s) "
                "landed below the current bucket (a negative weight?): the "
                "program breaks the monotone-priority contract, under which "
                "alone vectorized outputs are guaranteed to equal scalar "
                "order; run(..., vectorize=False) gives scalar order",
                file=sys.stderr,
            )
        context.globals.update(program_globals)
        return RunResult(
            globals=program_globals, stats=context.stats, context=context
        )

    def write(self, path: str) -> None:
        """Write the generated source to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.source_text)


@functools.lru_cache(maxsize=64)
def cached_program(source: str, schedule: Schedule) -> CompiledProgram:
    """``compile_program(source, schedule)``, memoized on (source, schedule).

    A compile costs milliseconds — a fifth of a small traversal — so the
    library wrappers and the sessions share one bounded memo instead of
    recompiling per call.  A compiled program is reentrant: every run builds
    its own context.
    """
    return compile_program(source, schedule)


def compile_program(
    source: str,
    schedule: Schedule | SchedulingProgram | None = None,
    backend: str = "python",
) -> CompiledProgram:
    """Compile DSL ``source`` under ``schedule`` with the chosen backend.

    ``schedule`` may be a :class:`Schedule`, a :class:`SchedulingProgram`
    (per-label schedules), or ``None`` — in which case the program's inline
    ``schedule:`` block applies, falling back to the default schedule.
    """
    with trace_span("compile", "compiler", backend=backend):
        program_ast = parse(source)
        with trace_span("midend", "compiler"):
            plan = plan_program(program_ast, schedule)
        if backend == "python":
            with trace_span("codegen.python", "compiler") as sp:
                text = generate_python(plan)
                sp["lines"] = text.count("\n") + 1
            with trace_span("load_module", "compiler"):
                namespace: dict[str, object] = {}
                code = compile(text, filename="<generated>", mode="exec")
                # noqa: S102 - executing our own generated code
                exec(code, namespace)
                entry = namespace["program"]
            return CompiledProgram(
                plan=plan, backend=backend, source_text=text, _entry=entry
            )
        if backend == "cpp":
            from .cpp_backend import generate_cpp

            with trace_span("codegen.cpp", "compiler") as sp:
                text = generate_cpp(plan)
                sp["lines"] = text.count("\n") + 1
            return CompiledProgram(plan=plan, backend=backend, source_text=text)
    raise CompileError(f"unknown backend {backend!r}; expected 'python' or 'cpp'")
