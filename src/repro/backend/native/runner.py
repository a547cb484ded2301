"""Load compiled kernels via ctypes and run them on numpy buffers.

The marshalling layer is zero-copy in both directions: the graph's CSR
arrays (already ``int64`` and C-contiguous in :class:`~repro.graph.csr.
CSRGraph`) are passed as borrowed pointers, and each output vector is a
caller-allocated numpy array whose pointer the kernel binds its ``OutVec``
views to — the kernel's priority/result writes land directly in the arrays
the :class:`~repro.backend.program.RunResult` hands back.

``execute_native`` raises :class:`NativeUnavailable` for every *recoverable*
condition — no toolchain, or a plan that
:func:`~repro.midend.transforms.lowering.native_refusal` refuses — and the
dispatch layer in ``program.py`` turns that into the ``N101`` fallback onto
the vectorized Python kernels.  Real failures (an emitter error, a kernel
build error, a nonzero status from a freshly validated kernel) raise loudly
instead.

A warm run does no code generation: each compiled program memoises its
kernel text, cache key and run-parameter block on first use, and a loaded
library is found by its path in the kernel cache directory, so a changed
``$REPRO_KERNEL_CACHE`` still builds into the new directory.

By design the native path returns **output vectors only**: RuntimeStats
(rounds, buffer traffic, simulated time) are defined by the interpreter's
bucket structures and are not emulated in native code, so ``result.stats``
is empty apart from the compile/load/execute phase timings recorded when
tracing is on.
"""

from __future__ import annotations

import ctypes
import threading
import time
from dataclasses import dataclass

import numpy as np

from ...errors import GraphItError
from ...graph.csr import CSRGraph
from ...midend.transforms.lowering import native_refusal
from ...obs import metrics
from ...obs import span as trace_span
from ...runtime.stats import RuntimeStats
from .abi import ABI_VERSION, RUN_PARAMETERS, generate_native_cpp
from .build import build_kernel, kernel_cache_dir, kernel_key, kernel_lock
from .toolchain import Toolchain, discover_toolchain

__all__ = ["NativeUnavailable", "execute_native"]

_EXECUTIONS = metrics.counter("native.executions")
_EXECUTE_US = metrics.histogram("native.execute_us")

_INT64_P = ctypes.POINTER(ctypes.c_int64)


@dataclass(frozen=True)
class _Kernel:
    """What a compiled program needs to find and call its kernel."""

    toolchain: Toolchain
    text: str
    key: str
    #: The run-parameter block (``RUN_PARAMETERS`` of the schedule).
    params: np.ndarray
    names: tuple[str, ...]


@dataclass(frozen=True)
class _Library:
    """A loaded kernel and what its probes reported at load time."""

    cdll: ctypes.CDLL
    abi_version: int
    num_outputs: int
    num_args_required: int
    #: The kernel keeps its state in globals, and ctypes releases the GIL
    #: during the call, so one call at a time per library.
    lock: threading.Lock


# dlopen handles, keyed by library path: one ``_Library`` (and so one call
# lock) per kernel, since the kernel's state is process-global.
_loaded_libraries: dict[str, _Library] = {}


class NativeUnavailable(GraphItError):
    """Native execution cannot proceed; callers fall back with ``N101``."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _load_library(path: str) -> _Library:
    with trace_span("native.load", "native", path=path):
        library = ctypes.CDLL(path)
        entry = library.repro_native_run
        entry.restype = ctypes.c_int64
        entry.argtypes = [
            _INT64_P,  # indptr
            _INT64_P,  # indices
            _INT64_P,  # weights
            ctypes.c_int64,  # num_nodes
            ctypes.c_int64,  # num_edges
            _INT64_P,  # args
            ctypes.c_int64,  # num_args
            ctypes.POINTER(_INT64_P),  # out_vectors
            ctypes.c_int64,  # num_out_vectors
            _INT64_P,  # run-parameter block
            ctypes.c_int64,  # num_params
        ]
        probes = []
        for name in (
            "repro_native_abi_version",
            "repro_native_num_outputs",
            "repro_native_num_args_required",
        ):
            probe = getattr(library, name)
            probe.restype = ctypes.c_int64
            probe.argtypes = []
            probes.append(int(probe()))
    loaded = _Library(library, *probes, lock=threading.Lock())
    _loaded_libraries[path] = loaded
    return loaded


def _as_int64_pointer(array: np.ndarray):
    return array.ctypes.data_as(_INT64_P)


def _parse_int_args(args: list[str]) -> np.ndarray:
    """argv[2:] as int64, with C's ``atoll`` semantics for junk (-> 0)."""
    values = []
    for raw in list(args)[2:]:
        try:
            values.append(int(raw))
        except (TypeError, ValueError):
            values.append(0)
    return np.asarray(values, dtype=np.int64)


def generate_for_plan(plan) -> str:
    """Native C++ for ``plan``; a plan the lowering refuses raises
    :class:`NativeUnavailable` before any text is generated."""
    reason = native_refusal(plan)
    if reason is not None:
        raise NativeUnavailable(reason)
    with trace_span("native.codegen", "native"):
        return generate_native_cpp(plan)


def _kernel_for(program, toolchain: Toolchain) -> _Kernel:
    """``program``'s kernel record, generated on its first native run (and
    again only if the toolchain changed)."""
    kernel = program._native_kernel
    if kernel is None or kernel.toolchain != toolchain:
        text = generate_for_plan(program.plan)
        schedule = program.plan.schedule
        kernel = _Kernel(
            toolchain=toolchain,
            text=text,
            key=kernel_key(text, toolchain),
            params=np.array(
                [getattr(schedule, name) for name in RUN_PARAMETERS],
                dtype=np.int64,
            ),
            names=program.plan.facts.outputs,
        )
        program._native_kernel = kernel
    return kernel


def execute_native(program, args, graph: CSRGraph | None = None):
    """Build (or cache-hit), load, and run the native kernel for ``program``.

    Mirrors :meth:`CompiledProgram.run`: ``args`` plays argv, ``graph``
    overrides loading ``args[1]`` from disk.  Returns a ``RunResult`` whose
    globals are the program's output vectors.
    """
    from ..program import RunResult
    from ..runtime_support import Context, load_graph_file

    toolchain = discover_toolchain()
    if toolchain is None:
        raise NativeUnavailable(
            "no C++ toolchain found (tried $REPRO_NATIVE_CXX, g++, clang++, "
            "c++)"
        )
    kernel = _kernel_for(program, toolchain)
    library_path = str(kernel_cache_dir() / f"{kernel.key}.so")
    library = _loaded_libraries.get(library_path)
    if library is None:
        # Threads that miss together build and load once: the first one
        # in builds, the others wait and then find its library.
        with kernel_lock(kernel.key):
            library = _loaded_libraries.get(library_path)
            if library is None:
                library = _load_library(str(build_kernel(kernel.text, toolchain)))

    # The marshalling/ABI-validation phase between build and kernel entry:
    # spanned so ``repro profile --execution native`` attributes dispatch
    # cost instead of folding it invisibly into the gap between spans.
    with trace_span("native.dispatch", "native", kernel=library_path):
        if library.abi_version != ABI_VERSION:
            raise NativeUnavailable(
                f"kernel ABI version {library.abi_version} does not match "
                f"runner {ABI_VERSION}"
            )

        if graph is None:
            if len(args) < 2 or not args[1] or args[1] == "-":
                raise GraphItError(
                    "native execution needs a graph: pass graph= or a path "
                    "in argv[1]"
                )
            graph = load_graph_file(args[1])

        indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(graph.indices, dtype=np.int64)
        weights = np.ascontiguousarray(graph.weights, dtype=np.int64)
        int_args = _parse_int_args(args)

        required = library.num_args_required
        if int_args.size < required:
            raise GraphItError(
                f"program needs {required} integer argument(s) after the "
                f"graph path, got {int_args.size}"
            )

        names = kernel.names
        if library.num_outputs != len(names):
            raise NativeUnavailable(
                f"kernel declares {library.num_outputs} outputs, plan has "
                f"{len(names)}"
            )
        outputs = [
            np.zeros(graph.num_vertices, dtype=np.int64) for _ in names
        ]
        out_pointers = (_INT64_P * len(outputs))(
            *[_as_int64_pointer(buffer) for buffer in outputs]
        )

    stats = RuntimeStats()
    execute_start = time.perf_counter()
    with trace_span(
        "native.execute",
        "native",
        argv=list(args),
        kernel=library_path,
        num_threads=int(program.plan.schedule.num_threads),
    ), library.lock:
        status = int(
            library.cdll.repro_native_run(
                _as_int64_pointer(indptr),
                _as_int64_pointer(indices),
                _as_int64_pointer(weights),
                ctypes.c_int64(graph.num_vertices),
                ctypes.c_int64(graph.num_edges),
                _as_int64_pointer(int_args) if int_args.size else None,
                ctypes.c_int64(int_args.size),
                out_pointers,
                ctypes.c_int64(len(outputs)),
                _as_int64_pointer(kernel.params),
                ctypes.c_int64(kernel.params.size),
            )
        )
    _EXECUTIONS.inc()
    _EXECUTE_US.observe(int((time.perf_counter() - execute_start) * 1e6))
    if status != 0:
        raise GraphItError(
            f"native kernel returned status {status} (2 = output arity "
            f"mismatch, 3 = missing arguments, 4 = run-parameter block size)"
        )

    program_globals: dict[str, object] = dict(zip(names, outputs))
    context = Context(
        argv=list(args),
        schedule=program.plan.schedule,
        graph=graph,
        extern_functions=None,
        vectorize=True,
    )
    context.stats = stats
    context.globals.update(program_globals)
    return RunResult(
        globals=program_globals, stats=stats, context=context, execution="native"
    )
