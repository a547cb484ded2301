"""Compile native kernels into shared libraries, with a disk cache.

The cache key is the sha256 of everything that determines the binary: the
generated source (which embeds the effect-summary JSON and the schedule
fields that shape code, ``priority_update`` and ``direction``), the
compiler path + version line, and the exact flag set.  Δ, the fusion
threshold, ``num_buckets`` and the thread count are run parameters that
never reach the text, so the key is one per (program, strategy, direction,
toolchain): every schedule that differs only in those numbers maps to the
same ``.so`` and pays zero compile cost — ``build_kernel`` returns without
spawning any subprocess on a cache hit, which the tests assert directly.

Layout (``$REPRO_KERNEL_CACHE`` or ``~/.cache/repro/kernels``)::

    <key>.cpp   the generated source (kept for debugging)
    <key>.so    the compiled kernel

Writes are atomic (temp file + ``os.replace``), so builds of the same
kernel from several processes race benignly; within one process a per-key
lock (:func:`kernel_lock`) makes the first caller build and every other
caller wait for its result, so one kernel is compiled once per process.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import threading
import time
from pathlib import Path

from ...errors import CompileError
from ...obs import metrics
from ...obs import span as trace_span
from .toolchain import Toolchain

__all__ = ["kernel_cache_dir", "kernel_key", "kernel_lock", "build_kernel"]

_CACHE_HITS = metrics.counter("native.cache_hits")
_CACHE_MISSES = metrics.counter("native.cache_misses")
_BUILDS = metrics.counter("native.builds")
_COMPILE_US = metrics.histogram("native.compile_us")

# One lock per kernel key, created on first use and never dropped (one per
# kernel the process ever runs).
_key_locks: dict[str, threading.RLock] = {}
_key_locks_guard = threading.Lock()


def kernel_cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def kernel_key(source_text: str, toolchain: Toolchain) -> str:
    """The cache key: program × strategy × direction × toolchain.

    The strategy and direction shape the emitted code and are stamped in
    its header comment, so hashing the source covers program and code
    shape.  The schedule's numbers are run parameters and are not in the
    source, so they are not in the key either.
    """
    digest = hashlib.sha256()
    digest.update(source_text.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(toolchain.cxx.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(toolchain.version.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(" ".join(toolchain.flags).encode("utf-8"))
    return digest.hexdigest()[:32]


def kernel_lock(key: str) -> threading.RLock:
    """The lock serializing the build (and the runner's load) of ``key``.

    Reentrant, so the runner can hold it around ``build_kernel`` + load."""
    with _key_locks_guard:
        lock = _key_locks.get(key)
        if lock is None:
            lock = _key_locks[key] = threading.RLock()
        return lock


def build_kernel(source_text: str, toolchain: Toolchain) -> Path:
    """Return the path of the compiled kernel, building it on a cache miss."""
    cache = kernel_cache_dir()
    key = kernel_key(source_text, toolchain)
    library = cache / f"{key}.so"
    with kernel_lock(key), trace_span("native.compile", "native") as sp:
        hit = library.exists()
        sp["cache_hit"] = hit
        sp["key"] = key
        if hit:
            _CACHE_HITS.inc()
            return library
        _CACHE_MISSES.inc()
        _BUILDS.inc()
        build_start = time.perf_counter()
        cache.mkdir(parents=True, exist_ok=True)
        source_path = cache / f"{key}.cpp"
        # g++ infers the language from the extension, so the temp names keep
        # their real suffixes ahead of the uniquifier.
        tmp_source = cache / f"{key}.tmp.{os.getpid()}.cpp"
        tmp_library = cache / f"{key}.tmp.{os.getpid()}.so"
        tmp_source.write_text(source_text, encoding="utf-8")
        command = [
            toolchain.cxx,
            *toolchain.flags,
            "-o",
            str(tmp_library),
            str(tmp_source),
        ]
        try:
            compile_run = subprocess.run(
                command, capture_output=True, text=True, timeout=600
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            tmp_source.unlink(missing_ok=True)
            raise CompileError(f"native kernel build failed to run: {exc}")
        if compile_run.returncode != 0:
            tmp_source.unlink(missing_ok=True)
            tmp_library.unlink(missing_ok=True)
            raise CompileError(
                "native kernel build failed "
                f"({' '.join(command)}):\n{compile_run.stderr}"
            )
        os.replace(tmp_source, source_path)
        os.replace(tmp_library, library)
        _COMPILE_US.observe(int((time.perf_counter() - build_start) * 1e6))
    return library
