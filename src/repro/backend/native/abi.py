"""The stable native ABI: the entry point every generated kernel exports.

The C++ emitter (:mod:`repro.backend.cpp_backend`) has one output, a
translation unit exporting one ``extern "C"`` entry point::

    int64_t repro_native_run(
        const int64_t *indptr, const int64_t *indices,
        const int64_t *weights, int64_t num_nodes, int64_t num_edges,
        const int64_t *args, int64_t num_args,
        int64_t **out_vectors, int64_t num_out_vectors,
        const int64_t *params, int64_t num_params);

The runner loads it as a shared library; the standalone program
(``generate_cpp``) is the same text plus a driver whose ``main`` calls it.

- The graph arrives as *borrowed* CSR arrays (``WGraph::Borrow`` — the
  runner passes numpy buffers straight through ctypes, zero copies).
- ``args`` carries the integer program arguments (``atoi(argv[k])`` lowers
  to ``args[k - 2]``; ``argv[1]``, the graph path, is subsumed by the CSR
  arrays).
- Every global vector constant becomes an ``OutVec`` view bound to a
  caller-allocated buffer in declaration order, so all writes land directly
  in the caller's arrays — no output marshalling either.
- ``params`` is the run-parameter block, :data:`RUN_PARAMETERS` in order:
  ``num_threads`` (0 keeps OpenMP's default), ``delta``,
  ``bucket_fusion_threshold``, ``num_buckets``.  These schedule numbers are
  read at run time, never written into the text, and the ``// schedule:``
  header names only the fields that shape the code
  (``CODE_SHAPE_FIELDS``).  So the kernel, and the cache key that hashes
  its text, is one per (program, strategy, direction): a Δ sweep builds
  once.
- Returns 0 on success; 2/3/4 signal an out-buffer / argument /
  run-parameter arity mismatch (defense against a stale cached kernel
  meeting a newer runner, and the driver's missing-argument message).

Companion exports ``repro_native_abi_version``, ``repro_native_num_outputs``
and ``repro_native_num_args_required`` let the runner validate a kernel
before calling it.  The whole-program effect summary is embedded as a
deterministic JSON comment: native execution is refused upstream for
programs the effect analysis cannot summarize, and the embedding makes the
analysis version part of the kernel-cache key.
"""

from __future__ import annotations

from ..cpp_backend import ABI_VERSION, RUN_PARAMETERS, generate_native_cpp

__all__ = ["ABI_VERSION", "RUN_PARAMETERS", "generate_native_cpp"]
