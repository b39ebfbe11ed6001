"""Result caching for source queries.

Internet sources are slow and metered; mediators cache.  A
:class:`ResultCache` memoizes *source-query results* keyed by
``(source, condition, attributes)`` with LRU eviction bounded by total
cached tuples.  The executor consults it before contacting a source, so
repeated queries (dashboards, bind-join probes against hot values,
retried plans) stop costing anything.

Correctness note: the cache assumes sources are read-only for its
lifetime -- true of this library's simulated sources.  ``invalidate``
drops everything for a source if its relation is replaced.  A
:class:`~repro.data.relation.Relation` is immutable and hands out only
fresh row dicts, so entries are stored and returned by reference: no
caller can corrupt a later hit through what it was handed.

The cache is **thread-safe**: the parallel executor consults one shared
cache from many worker threads, and LRU bookkeeping (move-to-end, the
eviction loop, the tuple budget) is read-modify-write, so every public
operation runs under an internal lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.conditions.tree import Condition
from repro.data.relation import Relation

#: Cache key: (source name, condition tree, projected attributes).
CacheKey = tuple[str, Condition, frozenset]


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """LRU cache of source-query results, bounded by total cached tuples."""

    def __init__(self, max_tuples: int = 100_000):
        if max_tuples <= 0:
            raise ValueError("max_tuples must be positive")
        self.max_tuples = max_tuples
        self._entries: OrderedDict[CacheKey, Relation] = OrderedDict()
        self._tuples = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def cached_tuples(self) -> int:
        with self._lock:
            return self._tuples

    # ------------------------------------------------------------------
    def get(self, source: str, condition: Condition, attributes: frozenset
            ) -> Relation | None:
        key = (source, condition, frozenset(attributes))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, source: str, condition: Condition, attributes: frozenset,
            result: Relation) -> None:
        key = (source, condition, frozenset(attributes))
        size = len(result)
        if size > self.max_tuples:
            return  # larger than the whole cache: never admit
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._tuples -= len(old)
            self._entries[key] = result
            self._tuples += size
            while self._tuples > self.max_tuples and self._entries:
                __, evicted = self._entries.popitem(last=False)
                self._tuples -= len(evicted)
                self.stats.evictions += 1

    def invalidate(self, source: str | None = None) -> None:
        """Drop everything (or everything for one source)."""
        with self._lock:
            if source is None:
                self._entries.clear()
                self._tuples = 0
                return
            keys = [k for k in self._entries if k[0] == source]
            for key in keys:
                self._tuples -= len(self._entries.pop(key))
