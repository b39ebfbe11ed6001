"""The one bounded cache: LRU eviction, version stamps and accounting.

The ``Check(C, R)`` results of a source description, the serving
layer's plans and plan templates and the executor's source-query
results are all bounded maps with one policy, and :class:`BoundedCache`
is that policy, written once:

* LRU order, bounded by entry count or -- given ``weigh`` -- by total
  weight; a value heavier than the whole bound is never admitted.
* Version stamps, monotone: a ``get`` at a newer version drops the
  entry (an invalidation); a ``get`` at an older version misses and
  leaves it, and a ``put`` at an older version is refused -- an older
  version never clobbers a newer entry.
* ``peek`` is the one probe that neither counts nor touches the order.
* Hits, misses, invalidations and evictions feed one :class:`CacheStats`
  and, under a ``metrics_prefix``, the registry's ``<prefix>.<event>``
  counters, resolved once per registry.

Every operation holds ``_lock`` (what the contention profiler wraps);
registry counters are bumped after it is released.  This module
imports only the standard library and :mod:`repro.observability.metrics`,
so every subsystem can use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.observability.metrics import Counter, get_metrics


@dataclass
class CacheStats:
    """One cache's hit/miss/invalidation/eviction counts (the registry
    aggregates across caches sharing a prefix)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Stamped:
    """An entry stored under a version other than 0.  Version-0 values
    are stored bare, so a cache that never versions pays nothing for
    it, and one lookup of the key yields both value and version."""

    __slots__ = ("version", "value")

    def __init__(self, version: int, value: Any):
        self.version = version
        self.value = value


class BoundedCache:
    """A thread-safe, versioned LRU map bounded by count or weight.

    Values are opaque and never ``None`` (``None`` is the miss answer).
    ``capacity`` bounds the number of entries, or their total weight
    when ``weigh`` maps a value to its (non-negative, fixed) weight.
    """

    def __init__(self, capacity: int = 256, metrics_prefix: str | None = None,
                 weigh: Callable[[Any], int] | None = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.metrics_prefix = metrics_prefix
        self._weigh = weigh
        #: key -> value (a :class:`_Stamped` one when its version is not
        #: 0), least recently used first.
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        #: Total weight of the stored values (the entry count when
        #: nothing is weighed).
        self._weight = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()
        #: ``(registry, {event: counter})``: the registry counters,
        #: resolved once per process registry.
        self._bound: tuple[Any, dict[str, Counter]] = (None, {})

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def weight(self) -> int:
        """Total weight of the stored values."""
        with self._lock:
            return self._weight

    def publish(self, event: str, amount: int = 1) -> None:
        """Bump ``<prefix>.<event>`` in the process registry."""
        metrics = get_metrics()
        bound = self._bound
        if bound[0] is not metrics:
            # Re-keyed by registry identity: swapping the process
            # registry redirects the publishing.
            bound = self._bound = (metrics, {})
        counter = bound[1].get(event)
        if counter is None:
            counter = bound[1][event] = metrics.counter(
                f"{self.metrics_prefix}.{event}")
        counter.inc(amount)

    def _weight_of(self, entry: Any) -> int:
        """The weight of a stored entry."""
        if self._weigh is None:
            return 1
        return self._weigh(entry.value if entry.__class__ is _Stamped else entry)

    def _drop_locked(self, key: Hashable) -> None:
        self._weight -= self._weight_of(self._entries.pop(key))

    # ------------------------------------------------------------------
    def get(self, key: Hashable, version: int = 0) -> Any | None:
        """The value stored under ``key`` at ``version``, or ``None``.

        An entry stored under an older version is dropped and counted
        as an invalidation (plus the miss the caller sees); an entry
        stored under a newer version is a miss and stays.
        """
        stale = False
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                stored = 0
                if value.__class__ is _Stamped:
                    stored, value = value.version, value.value
                if stored != version:
                    if stored < version:
                        stale = True
                        self._drop_locked(key)
                        self.stats.invalidations += 1
                    value = None
            if value is None:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        if self.metrics_prefix is not None:
            if stale:
                self.publish("invalidations")
            self.publish("misses" if value is None else "hits")
        return value

    def peek(self, key: Hashable, version: int = 0) -> Any | None:
        """The value stored under ``key`` at ``version``, or ``None`` --
        a probe: no stats, no LRU touch, a stale entry is left alone."""
        with self._lock:
            value = self._entries.get(key)
        stored = 0
        if value.__class__ is _Stamped:
            stored, value = value.version, value.value
        return value if stored == version else None

    def put(self, key: Hashable, value: Any, version: int = 0) -> None:
        """Store ``value`` under ``key`` at ``version`` (LRU-evicting).

        Refused when ``value`` outweighs the whole cache, or when the
        entry under ``key`` was stored at a newer version.
        """
        weight = 1 if self._weigh is None else self._weigh(value)
        if weight > self.capacity:
            return
        evictions = 0
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                if old.__class__ is _Stamped and old.version > version:
                    return
                self._drop_locked(key)
            self._entries[key] = _Stamped(version, value) if version else value
            self._weight += weight
            while self._weight > self.capacity:
                evicted = self._entries.popitem(last=False)[1]
                self._weight -= self._weight_of(evicted)
                evictions += 1
            self.stats.evictions += evictions
        if evictions and self.metrics_prefix is not None:
            self.publish("evictions", evictions)

    def invalidate(self, match: Callable[[Hashable], bool] | None = None
                   ) -> int:
        """Drop every entry (or every entry whose key ``match``\\ es);
        returns how many were dropped, each counted as an invalidation."""
        with self._lock:
            if match is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._weight = 0
            else:
                doomed = [key for key in self._entries if match(key)]
                for key in doomed:
                    self._drop_locked(key)
                dropped = len(doomed)
            self.stats.invalidations += dropped
        if dropped and self.metrics_prefix is not None:
            self.publish("invalidations", dropped)
        return dropped
