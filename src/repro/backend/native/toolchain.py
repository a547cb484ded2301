"""C++ toolchain discovery for the native execution path.

Probes for a working compiler once per process and caches the result: the
``REPRO_NATIVE_CXX`` override when set (exclusively — pointing it at a
broken path is how tests simulate a compiler-less machine), otherwise
``g++``, ``clang++``, and ``c++`` from ``PATH``.  OpenMP support is detected by test-compiling a one-line
translation unit with ``-fopenmp``; without it the kernel still builds (the
pragmas degrade to serial execution) but the probe records the fact so the
flag set — and therefore the kernel-cache key — stays accurate.

A machine with no compiler at all yields ``None``, which the runner turns
into the graceful ``N101`` fallback to the vectorized Python kernels.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass

from ...obs import metrics
from ...obs import span as trace_span

__all__ = ["Toolchain", "discover_toolchain", "reset_toolchain_cache"]

_PROBES = metrics.counter("native.toolchain_probes")

_PROBE_CANDIDATES = ("g++", "clang++", "c++")

# One-shot probe memo: False = not probed yet (None is a valid probe result).
_cached: "Toolchain | None | bool" = False
_probe_lock = threading.Lock()


@dataclass(frozen=True)
class Toolchain:
    """A discovered C++ compiler and the flags kernels are built with."""

    cxx: str
    version: str
    openmp: bool

    @property
    def flags(self) -> tuple[str, ...]:
        base = ("-O2", "-std=c++17", "-fPIC", "-shared")
        if self.openmp:
            base = base + ("-fopenmp",)
        return base

    def describe(self) -> str:
        omp = "openmp" if self.openmp else "no-openmp"
        return f"{self.cxx} {self.version} ({omp})"


def _compiler_version(cxx: str) -> str | None:
    try:
        probe = subprocess.run(
            [cxx, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if probe.returncode != 0 or not probe.stdout:
        return None
    return probe.stdout.splitlines()[0].strip()


def _supports_openmp(cxx: str) -> bool:
    with tempfile.TemporaryDirectory(prefix="repro-omp-") as tmp:
        source = os.path.join(tmp, "probe.cpp")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(
                "#include <omp.h>\n"
                "int main() { return omp_get_max_threads() > 0 ? 0 : 1; }\n"
            )
        try:
            build = subprocess.run(
                [cxx, "-fopenmp", "-o", os.path.join(tmp, "probe"), source],
                capture_output=True,
                timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            return False
        return build.returncode == 0


def discover_toolchain() -> Toolchain | None:
    """The best available C++ compiler, or ``None`` (probed once, cached)."""
    global _cached
    if _cached is not False:
        return _cached
    with _probe_lock:  # threads that ask together share one probe
        if _cached is not False:
            return _cached
        _PROBES.inc()
        with trace_span("native.toolchain", "native") as sp:
            override = os.environ.get("REPRO_NATIVE_CXX")
            candidates = (override,) if override else _PROBE_CANDIDATES
            found: Toolchain | None = None
            for candidate in candidates:
                if candidate is None:
                    continue
                resolved = shutil.which(candidate)
                if resolved is None:
                    continue
                version = _compiler_version(resolved)
                if version is None:
                    continue
                found = Toolchain(
                    cxx=resolved,
                    version=version,
                    openmp=_supports_openmp(resolved),
                )
                break
            sp["toolchain"] = found.describe() if found else "none"
        _cached = found
    return found


def reset_toolchain_cache() -> None:
    """Forget the probe result (tests exercise the no-toolchain path)."""
    global _cached
    _cached = False
