"""The serve-side result cache: bounded LRU over converged traversals.

One entry holds the full output vector(s) of one traversal, keyed by the
coalescing tuple ``(graph epoch, program, source, traversal target,
schedule)``.  Point lookups against different *read* targets share the same
entry — a cached SSSP run from source ``s`` answers ``dist[t]`` for every
``t`` — so the unit of caching is the traversal, not the (source, target)
pair.

Entries are immutable once inserted (the engine copies nothing out; readers
slice values straight from the stored arrays), so the cache needs no per-
entry locking: all access happens on the event loop thread.  Mutations
invalidate by *epoch* — the engine bumps its epoch and calls :meth:`clear`,
then repopulates the entries it can resume incrementally.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

__all__ = ["CacheEntry", "ResultCache"]


@dataclass
class CacheEntry:
    """One converged traversal: output vectors plus a stats summary."""

    vectors: dict[str, np.ndarray]
    stats: dict[str, int] = field(default_factory=dict)
    engine: str = "compiled"  # "compiled" | "incremental"
    #: What computed the vectors: "native", or the interpreter's mode.
    execution: str = "serial"


class ResultCache:
    """A bounded LRU mapping traversal keys to :class:`CacheEntry`."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> CacheEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key: Hashable) -> CacheEntry | None:
        """Lookup without recency or hit/miss accounting."""
        return self._entries.get(key)

    def put(self, key: Hashable, entry: CacheEntry) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = entry
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> int:
        """Drop every entry (epoch invalidation); returns the count."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
