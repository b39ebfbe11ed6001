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

The container is :class:`~repro.cache.BoundedCache` -- the one LRU
every reuse point shares -- publishing ``<prefix>.hits`` / ``.misses``
/ ``.invalidations`` / ``.evictions`` under ``serving.plan_cache``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Hashable

from repro.cache import BoundedCache, CacheStats
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


class PlanCache(BoundedCache):
    """The mediator's plan cache: a :class:`~repro.cache.BoundedCache`
    of planning results publishing under ``serving.plan_cache``."""

    def __init__(self, max_entries: int = 256):
        super().__init__(max_entries, "serving.plan_cache")


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

    A thin layer over a :class:`~repro.cache.BoundedCache` (same LRU,
    versioning, metrics and thread-safety) storing ``(Fingerprint,
    PlanningResult)`` keyed by :func:`template_cache_key`: the skeleton
    and atom vector rebinding needs, resolved once at :meth:`store`.
    :meth:`instantiate` zips the new query's atoms over the stored
    vector and **re-validates every source query** against the source
    description -- literal templates (``style = 'sedan'``) make support
    value-dependent, so an unvalidated substitution could hand the
    source a query it rejects.

    ``hits`` counts served instantiations, ``rejected`` counts lookups
    whose substitution failed validation (the caller replans); both are
    mirrored to ``<prefix>.template_hits`` / ``.template_rejected``.
    """

    def __init__(self, max_entries: int = 256,
                 metrics_prefix: str = "serving.template_cache"):
        self._cache = BoundedCache(max_entries, metrics_prefix)
        self.metrics_prefix = metrics_prefix
        self._lock = threading.Lock()
        #: Plans served by rebinding a template's constants.
        self.hits = 0
        #: Template entries found but unusable for the new constants.
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> CacheStats:
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
        if result.plan is not None and self._cache.peek(key, version) is None:
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
