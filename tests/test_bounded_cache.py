"""The one bounded cache: version monotonicity, a stateful contract
battery against a plain dict+list reference model, and a 16-thread
reconciliation of its accounting."""

from __future__ import annotations

import random
import sys
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cache import BoundedCache, CacheStats
from repro.observability.metrics import MetricsRegistry, set_metrics, use_metrics
from repro.serving import PlanCache

PREFIX = "test.bounded_cache"
EVENTS = ("hits", "misses", "invalidations", "evictions")


def _registry_counts(registry: MetricsRegistry) -> dict[str, float]:
    snapshot = registry.snapshot()
    return {event: snapshot.get(f"{PREFIX}.{event}", {}).get("value", 0)
            for event in EVENTS}


def _stats_counts(stats: CacheStats) -> dict[str, float]:
    return {event: getattr(stats, event) for event in EVENTS}


# ----------------------------------------------------------------------
# An older version never clobbers a newer entry
# ----------------------------------------------------------------------

class TestVersionMonotonicity:
    def test_older_get_misses_and_keeps_the_newer_entry(self):
        with use_metrics(MetricsRegistry()):
            cache = PlanCache(4)
            cache.put("k", "fresh", 2)
            assert cache.get("k", 1) is None
            assert cache.get("k", 2) == "fresh"
            assert cache.stats.invalidations == 0
            assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_older_put_is_refused(self):
        with use_metrics(MetricsRegistry()):
            cache = PlanCache(4)
            cache.put("k", "fresh", 2)
            cache.put("k", "stale", 1)
            assert cache.get("k", 2) == "fresh"
            assert cache.stats.invalidations == 0


# ----------------------------------------------------------------------
# The contract battery
# ----------------------------------------------------------------------

KEYS = st.integers(min_value=0, max_value=7)
VERSIONS = st.integers(min_value=0, max_value=3)
MATCHES = {
    "even": lambda key: key % 2 == 0,
    "small": lambda key: key < 3,
}


class BoundedCacheMachine(RuleBasedStateMachine):
    """``BoundedCache`` against a reference: ``data`` maps key ->
    (value, version), ``order`` lists keys least recently used first."""

    @initialize(capacity=st.integers(min_value=1, max_value=6),
                weighted=st.booleans())
    def setup(self, capacity, weighted):
        self.registry = MetricsRegistry()
        self.previous = set_metrics(self.registry)
        self.weigh = (lambda value: value) if weighted else None
        self.cache = BoundedCache(capacity, PREFIX, self.weigh)
        self.capacity = capacity
        self.data: dict[int, tuple[int, int]] = {}
        self.order: list[int] = []
        self.stats = CacheStats()

    def teardown(self):
        if hasattr(self, "previous"):
            set_metrics(self.previous)

    def _weight(self, value: int) -> int:
        return 1 if self.weigh is None else value

    def _drop(self, key: int) -> None:
        del self.data[key]
        self.order.remove(key)

    @rule(key=KEYS, version=VERSIONS)
    def get(self, key, version):
        expected = None
        if key in self.data:
            value, stored = self.data[key]
            if stored == version:
                expected = value
                self.order.remove(key)
                self.order.append(key)
            elif stored < version:
                self._drop(key)
                self.stats.invalidations += 1
        if expected is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        assert self.cache.get(key, version) == expected

    @rule(key=KEYS, version=VERSIONS)
    def peek(self, key, version):
        value, stored = self.data.get(key, (None, None))
        expected = value if stored == version else None
        assert self.cache.peek(key, version) == expected

    @rule(key=KEYS, value=st.integers(min_value=1, max_value=8),
          version=VERSIONS)
    def put(self, key, value, version):
        self.cache.put(key, value, version)
        if self._weight(value) > self.capacity:
            return  # never admitted
        if key in self.data:
            if self.data[key][1] > version:
                return  # an older version never clobbers a newer one
            self._drop(key)
        self.data[key] = (value, version)
        self.order.append(key)
        while sum(self._weight(v) for v, _ in self.data.values()) > self.capacity:
            self._drop(self.order[0])
            self.stats.evictions += 1

    @rule(match=st.sampled_from([None, "even", "small"]))
    def invalidate(self, match):
        predicate = MATCHES.get(match)
        doomed = [key for key in self.order
                  if predicate is None or predicate(key)]
        for key in doomed:
            self._drop(key)
        self.stats.invalidations += len(doomed)
        assert self.cache.invalidate(predicate) == len(doomed)

    @invariant()
    def agrees_with_the_reference(self):
        assert list(self.cache._entries) == self.order
        assert len(self.cache) == len(self.order)
        assert self.cache.weight == sum(
            self._weight(value) for value, _ in self.data.values())
        assert self.cache.weight <= self.capacity
        assert self.cache.stats == self.stats

    @invariant()
    def stats_equal_the_registry_counters(self):
        assert _registry_counts(self.registry) == _stats_counts(
            self.cache.stats)


BoundedCacheMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None)
TestBoundedCacheContract = BoundedCacheMachine.TestCase


# ----------------------------------------------------------------------
# Sixteen threads reconcile exactly
# ----------------------------------------------------------------------

THREADS = 16
OPS = 400


def test_sixteen_threads_reconcile():
    registry = MetricsRegistry()
    with use_metrics(registry):
        cache = BoundedCache(64, PREFIX)
        gets = [0] * THREADS
        puts = [0] * THREADS
        barrier = threading.Barrier(THREADS)

        def worker(index: int) -> None:
            rng = random.Random(index)
            barrier.wait(timeout=60)
            for op in range(OPS):
                roll = rng.random()
                if roll < 0.45:
                    # Every key is put once, so nothing is ever refused
                    # or replaced: each entry leaves by eviction or
                    # invalidation.
                    cache.put((index, op), op, rng.randint(1, 2))
                    puts[index] += 1
                elif roll < 0.98:
                    cache.get((rng.randrange(THREADS), rng.randrange(op + 1)),
                              rng.randint(1, 2))
                    gets[index] += 1
                else:
                    parity = rng.randrange(2)
                    cache.invalidate(lambda key: key[0] % 2 == parity)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave inside every operation
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    stats = cache.stats
    assert stats.hits + stats.misses == sum(gets)
    assert stats.evictions + stats.invalidations == sum(puts) - len(cache)
    assert stats.evictions > 0 and stats.invalidations > 0
    assert _registry_counts(registry) == _stats_counts(stats)
