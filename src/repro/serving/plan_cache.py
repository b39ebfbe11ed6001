"""The canonical plan cache: amortize plan generation across queries.

Plan *generation* (Sections 5-6) costs milliseconds of CPU per query,
re-executing a known plan microseconds; a serving mediator sees the
same logical query over and over, so it plans once and replays.  Two
ideas make the cache *canonical* rather than textual:

* **Canonical keys.**  Condition trees are order-sensitive by design
  (``a AND b`` != ``b AND a`` structurally) but *logically*
  interchangeable as target queries.  The exact key of
  :mod:`repro.conditions.fingerprint` maps every commuted /
  reassociated / sibling-duplicated variant of a condition to one
  entry; the plan stored there was generated for the first variant
  seen and answers all of them (AND/OR row semantics are order-free).

* **Versioned entries.**  A plan is only as good as the catalog it was
  generated against.  Every entry records the catalog version it was
  planned under; a lookup with a newer version drops the entry and
  counts an ``invalidation`` -- stale plans can never be served.

The cache is a thread-safe LRU bounded by entry count.  Hits, misses,
invalidations and evictions feed both local stats and the process-wide
:class:`~repro.observability.metrics.MetricsRegistry` under
``<prefix>.hits`` / ``.misses`` / ``.invalidations`` / ``.evictions``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable

from repro.conditions.fingerprint import Fingerprint, canonical_key  # noqa: F401 (old home)
from repro.conditions.skeleton import rebinding, substitute_plan
from repro.conditions.tree import Condition
from repro.observability.metrics import get_metrics
from repro.query import TargetQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.planners.base import PlanningResult
    from repro.plans.cost import CostModel
    from repro.source.source import CapabilitySource


def plan_cache_key(query: TargetQuery) -> Hashable:
    """The cache key for a target query: source x canonical condition x
    projection.  Equivalent rewritings of the same query collide; any
    difference in source or projected attributes does not."""
    return (query.source, query.fingerprint.exact, query.attributes)


@dataclass
class PlanCacheStats:
    """Local hit/miss/invalidation/eviction counters (one cache's view;
    the registry aggregates across caches sharing a prefix)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """A thread-safe LRU of planning results keyed by canonical keys.

    Values are opaque (the mediator stores
    :class:`~repro.planners.base.PlanningResult`, the wrapper also
    stores template tuples); the cache owns keys, versions, eviction and
    accounting.  A ``get`` with a catalog version newer than the
    entry's drops the entry and reports a miss -- the *invalidation*
    path that ``Mediator.add_source`` relies on.
    """

    def __init__(self, max_entries: int = 256,
                 metrics_prefix: str = "serving.plan_cache"):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.metrics_prefix = metrics_prefix
        self._entries: OrderedDict[Hashable, tuple[int, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _count(self, event: str) -> None:
        get_metrics().counter(f"{self.metrics_prefix}.{event}").inc()

    # ------------------------------------------------------------------
    def get(self, key: Hashable, version: int = 0) -> Any | None:
        """The cached value for ``key`` at ``version``, or ``None``.

        An entry stored under an older catalog version is removed and
        counted as an invalidation (plus the miss the caller sees).
        """
        with self._lock:
            entry = self._entries.get(key)
            stale = entry is not None and entry[0] != version
            if stale:
                del self._entries[key]
                self.stats.invalidations += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        if stale:
            self._count("invalidations")
        self._count("misses" if entry is None else "hits")
        return None if entry is None else entry[1]

    def holds(self, key: Hashable, version: int = 0) -> bool:
        """Is a current entry stored under ``key``?  A probe: no stats,
        no LRU touch, a stale entry is left for ``get``/``put``."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry[0] == version

    def put(self, key: Hashable, value: Any, version: int = 0) -> None:
        """Store ``value`` under ``key`` at ``version`` (LRU-evicting)."""
        evictions = 0
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (version, value)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                evictions += 1
        for _ in range(evictions):
            self._count("evictions")

    def invalidate(self) -> int:
        """Drop every entry; returns how many were dropped.

        Bulk invalidation (catalog reloaded, cache poisoned in a test)
        counts each dropped entry, same as the lazy per-get path.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
        for _ in range(dropped):
            self._count("invalidations")
        return dropped


# ----------------------------------------------------------------------
# Parameterized plan templates: constant-stripped skeleton keys
# ----------------------------------------------------------------------

def template_cache_key(condition: Condition, attributes: frozenset[str],
                       source: str, scheme: str = "") -> Hashable:
    """The template key: the *constant-stripped* skeleton of a query.

    Real traffic respells one query shape with thousands of different
    constants; SSDL templates usually admit constant *classes*, so all
    those instances share one feasible plan shape and one entry.
    """
    return (source, Fingerprint(condition).skeleton, attributes, scheme)


class PlanTemplates:
    """Plans with constant slots: rebind constants on every hit.

    A thin layer over :class:`PlanCache` (same LRU, versioning, metrics
    and thread-safety) storing ``(Fingerprint, PlanningResult)`` keyed by
    :func:`template_cache_key`: the skeleton and atom vector rebinding
    needs, resolved once at :meth:`store`.  :meth:`instantiate` zips the
    new query's atoms over the stored vector and **re-validates every
    source query** against the source description -- literal templates
    (``style = 'sedan'``) make support value-dependent, so an
    unvalidated substitution could hand the source a query it rejects.

    ``hits`` counts served instantiations, ``rejected`` counts lookups
    whose substitution failed validation (the caller replans); both are
    mirrored to ``<prefix>.template_hits`` / ``.template_rejected``.
    """

    def __init__(self, max_entries: int = 256,
                 metrics_prefix: str = "serving.template_cache"):
        self._cache = PlanCache(max_entries, metrics_prefix=metrics_prefix)
        self.metrics_prefix = metrics_prefix
        self._lock = threading.Lock()
        #: Plans served by rebinding a template's constants.
        self.hits = 0
        #: Template entries found but unusable for the new constants.
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> PlanCacheStats:
        """The underlying LRU's hit/miss/invalidation/eviction view."""
        return self._cache.stats

    def key(self, query: TargetQuery, scheme: str = "") -> Hashable:
        """:func:`template_cache_key`, from the memoised fingerprint."""
        return (query.source, query.fingerprint.skeleton, query.attributes,
                scheme)

    # ------------------------------------------------------------------
    def store(self, key: Hashable, condition: Condition,
              result: "PlanningResult", version: int = 0) -> None:
        """Remember a freshly planned result as the template for its
        skeleton (first feasible plan wins; later instances rebind it)."""
        if result.plan is not None and not self._cache.holds(key, version):
            self._cache.put(key, (Fingerprint(condition), result), version)

    def instantiate(self, key: Hashable, query: TargetQuery,
                    source: "CapabilitySource", cost_model: "CostModel",
                    version: int = 0) -> "PlanningResult | None":
        """A plan for ``query`` rebound from a same-skeleton template.

        Returns None (after counting the miss or rejection) when no
        usable template exists -- the caller runs the planner.
        """
        entry = self._cache.get(key, version)
        if entry is None:
            return None
        stored, old_result = entry
        mapping = rebinding(stored, query.fingerprint)
        if mapping is None:
            self._reject()
            return None
        candidate = substitute_plan(old_result.plan, mapping)
        # Re-validate: literal templates make support value-dependent.
        for source_query in candidate.source_queries():
            if not source.supports(source_query.condition, source_query.attrs):
                self._reject()
                return None
        from repro.planners.base import PlanningResult

        with self._lock:
            self.hits += 1
        get_metrics().counter(f"{self.metrics_prefix}.template_hits").inc()
        return PlanningResult(f"{old_result.planner}+template", query,
                              candidate, cost_model.cost(candidate))

    def _reject(self) -> None:
        with self._lock:
            self.rejected += 1
        get_metrics().counter(f"{self.metrics_prefix}.template_rejected").inc()

    def invalidate(self) -> int:
        return self._cache.invalidate()
