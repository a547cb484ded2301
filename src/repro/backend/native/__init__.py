"""Native execution: build, cache, load, and run the C++ backend in-process.

The pipeline behind ``Schedule(execution="native")`` /
``repro run --execution native``:

1. :mod:`.abi` — emit a shared-library variant of the generated C++ with a
   stable ``extern "C"`` entry point over borrowed CSR arrays and
   caller-owned output buffers,
2. :mod:`.toolchain` — discover a C++ compiler (``$REPRO_NATIVE_CXX``,
   ``g++``, ``clang++``, ``c++``; OpenMP optional),
3. :mod:`.build` — compile into a content-addressed on-disk kernel cache,
   one kernel per (program, strategy, direction): Δ, the fusion threshold,
   ``num_buckets`` and the thread count are run parameters, so repeat
   queries and new values of those spawn no compiler at all,
4. :mod:`.runner` — load via ctypes and execute zero-copy on numpy buffers.

Machines without any toolchain degrade gracefully: the dispatcher catches
:class:`NativeUnavailable` and re-runs on the vectorized Python kernels,
reporting the ``N101`` info diagnostic.
"""

from .abi import ABI_VERSION, generate_native_cpp
from .build import build_kernel, kernel_cache_dir, kernel_key
from .runner import NativeUnavailable, execute_native, native_output_names
from .toolchain import Toolchain, discover_toolchain, reset_toolchain_cache

__all__ = [
    "ABI_VERSION",
    "NativeUnavailable",
    "Toolchain",
    "build_kernel",
    "discover_toolchain",
    "execute_native",
    "generate_native_cpp",
    "kernel_cache_dir",
    "kernel_key",
    "native_output_names",
    "reset_toolchain_cache",
]
