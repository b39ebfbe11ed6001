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

The LRU, its tuple budget, its lock and its stats are a
:class:`~repro.cache.BoundedCache` weighing each result by its length;
this module only builds the key.  The parallel executor consults one
shared cache from many worker threads, which the cache's lock covers.
"""

from __future__ import annotations

from repro.cache import BoundedCache
from repro.conditions.tree import Condition
from repro.data.relation import Relation

#: Cache key: (source name, condition tree, projected attributes).
CacheKey = tuple[str, Condition, frozenset]


class ResultCache:
    """LRU cache of source-query results, bounded by total cached tuples."""

    def __init__(self, max_tuples: int = 100_000):
        self._cache = BoundedCache(max_tuples, weigh=len)
        #: key -> result, shared with the cache (accounting checks read it).
        self._entries = self._cache._entries
        self.stats = self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def max_tuples(self) -> int:
        return self._cache.capacity

    @property
    def cached_tuples(self) -> int:
        return self._cache.weight

    def get(self, source: str, condition: Condition, attributes: frozenset
            ) -> Relation | None:
        return self._cache.get((source, condition, frozenset(attributes)))

    def put(self, source: str, condition: Condition, attributes: frozenset,
            result: Relation) -> None:
        self._cache.put((source, condition, frozenset(attributes)), result)

    def invalidate(self, source: str | None = None) -> int:
        """Drop everything (or everything for one source); returns how
        many entries were dropped."""
        if source is None:
            return self._cache.invalidate()
        return self._cache.invalidate(lambda key: key[0] == source)
