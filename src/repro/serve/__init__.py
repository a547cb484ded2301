"""The graph analytics query service (``repro serve``).

Long-running process model for the reproduced stack: load a graph once
into shared CSR storage, keep compiled programs and incremental sessions
warm, and answer concurrent point queries (SSSP / wBFS / PPSP / widest
path / k-core / Bellman-Ford distances) over HTTP/JSON.

Layers, bottom up:

- :mod:`repro.serve.http` — stdlib HTTP/1.1 framing (no new dependencies);
- :mod:`repro.serve.cache` — bounded LRU over converged traversals;
- :mod:`repro.serve.engine` — admission control, request coalescing,
  cache-invalidation-on-mutation, traversal execution;
- :mod:`repro.serve.server` — the asyncio server and its four endpoints
  (``/healthz``, ``/metrics``, ``/query``, ``/mutate``);
- :mod:`repro.serve.client` — a blocking client for tests and the
  ``serve_mixed`` benchmark workload (``bench/wl_serve.py``).

Semantics are documented in DESIGN.md §13; every response bit-matches a
solo run of the same program on the current (post-mutation) graph.
"""

from .cache import CacheEntry, ResultCache
from .client import ServeClient, ServeResponse
from .engine import SERVABLE_PROGRAMS, Backpressure, QuerySpec, ServeEngine
from .server import QueryServer, ServerHandle, start_in_thread

__all__ = [
    "Backpressure",
    "CacheEntry",
    "QueryServer",
    "QuerySpec",
    "ResultCache",
    "SERVABLE_PROGRAMS",
    "ServeClient",
    "ServeEngine",
    "ServeResponse",
    "ServerHandle",
    "start_in_thread",
]
