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
from repro.conditions.atoms import Atom
from repro.conditions.fingerprint import CLASS_OF, Fingerprint, canonical_key  # noqa: F401 (old home)
from repro.conditions.tree import Condition, Leaf, trusted_connector
from repro.errors import ConditionError
from repro.plans.nodes import (
    IntersectPlan,
    Plan,
    Postprocess,
    SourceQuery,
    UnionPlan,
)
from repro.query import TargetQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.planners.base import PlanningResult
    from repro.plans.cost import CostModel
    from repro.source.source import CapabilitySource


#: The registry family :class:`PlanTemplates` publishes under.
TEMPLATE_METRICS_PREFIX = "serving.template_cache"


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


class _Template:
    """A stored plan compiled against its skeleton's constant slots (the
    positions of :attr:`Fingerprint.leaves`), once, at store time."""

    __slots__ = ("skeleton", "result", "equal", "plan", "literal_free")

    def __init__(self, condition: Condition, result: "PlanningResult"):
        # The planned query's memoised fingerprint when it is this
        # condition's: its skeleton is then the very object later asks
        # of the same spelling carry.
        query = result.query
        fingerprint = (query.fingerprint if query.condition is condition
                       else Fingerprint(condition))
        first: dict[Atom, int] = {}
        groups: dict[int, list[int]] = {}
        for position, leaf in enumerate(fingerprint.leaves):
            slot = first.setdefault(leaf.atom, position)
            groups.setdefault(slot, []).append(position)
        self.skeleton = fingerprint.skeleton
        self.result = result
        #: The equality classes of the stored atom vector: positions that
        #: held one atom must receive one atom again, or the plan's
        #: single copy of it could not stand for both.
        self.equal = tuple(
            tuple(positions) for positions in groups.values()
            if len(positions) > 1)
        #: The plan with every condition leaf the query held replaced by
        #: the slot of its first position.
        self.plan = _plan_program(result.plan, first)
        #: Does the source's grammar hold no literal template for the
        #: plan's atoms (see :func:`_literal_free`)?  Decided on the first
        #: instantiation, which has the source.
        self.literal_free: bool | None = None


def _plan_program(plan: Plan, slots: dict[Atom, int]) -> tuple:
    """``plan`` as ``(node class, condition program, attrs, source)``,
    ``(node class, condition program, attrs, input program)`` or, for
    ∪/∩, ``(node class, children programs)``."""
    if isinstance(plan, SourceQuery):
        return (SourceQuery, _condition_program(plan.condition, slots),
                plan.attrs, plan.source)
    if isinstance(plan, Postprocess):
        return (Postprocess, _condition_program(plan.condition, slots),
                plan.attrs, _plan_program(plan.input, slots))
    if isinstance(plan, (UnionPlan, IntersectPlan)):
        return (type(plan),
                tuple(_plan_program(child, slots) for child in plan.children))
    raise ConditionError(f"cannot rebind into {type(plan).__name__}")


def _condition_program(condition: Condition, slots: dict[Atom, int]):
    """A slot index for a leaf the query held; ``(class, children)`` for
    a connector over one; the condition itself otherwise."""
    if condition.__class__ is Leaf:
        return slots.get(condition.atom, condition)
    if not condition.children:
        return condition
    children = tuple(_condition_program(child, slots)
                     for child in condition.children)
    if all(isinstance(child, Condition) for child in children):
        return condition
    return (type(condition), children)


def _bind_condition(program, leaves: tuple[Leaf, ...]) -> Condition:
    if program.__class__ is int:
        return leaves[program]
    if program.__class__ is not tuple:
        return program
    nodes = []
    for child in program[1]:
        nodes.append(leaves[child] if child.__class__ is int
                     else _bind_condition(child, leaves))
    return trusted_connector(program[0], tuple(nodes))


def _bind_plan(program: tuple, leaves: tuple[Leaf, ...]) -> Plan:
    """The plan ``program`` stands for, over the query's ``leaves``: the
    stored plan rebound, so its nodes skip their checks."""
    cls = program[0]
    if cls is SourceQuery:
        return SourceQuery._trusted(_bind_condition(program[1], leaves),
                                    program[2], program[3])
    if cls is Postprocess:
        return Postprocess._trusted(_bind_condition(program[1], leaves),
                                    program[2], _bind_plan(program[3], leaves))
    return cls([_bind_plan(child, leaves) for child in program[1]])


def _literal_free(plan: Plan, source: "CapabilitySource") -> bool:
    """Does the grammar ``source.supports`` consults hold no literal
    template for any ``(attribute, op)`` of the plan?  A duck-typed
    source without a description is validated on every hit."""
    description = getattr(source, "closed_description", None)
    return description is not None and all(
        description.literal_free(query.condition.atoms())
        for query in plan.source_queries())


#: The classes of constants whose ``ConstClass`` admissions the
#: skeleton's class marker determines (an instance of any other class
#: marks as a number without being one).
_MARKED_CLASSES = frozenset(CLASS_OF)


class PlanTemplates:
    """Plans with constant slots: rebind constants on every hit.

    A thin layer over a :class:`~repro.cache.BoundedCache` (same LRU,
    versioning, metrics and thread-safety) keyed by
    :func:`template_cache_key`.  :meth:`store` compiles the first
    feasible plan of a skeleton against the skeleton's constant slots
    (the positions of :attr:`Fingerprint.leaves`): its conditions as
    slot references, the equality classes of the stored atom vector, and
    -- at the first :meth:`instantiate` -- whether the source's grammar
    holds a literal template for any of the plan's ``(attribute, op)``.
    :meth:`instantiate` refuses a query of another skeleton, or one that
    gives an equality class two different atoms; binds the query's own
    leaves into the plan; and then **validates every source query**
    against the source description unless the grammar is literal-free
    and every new constant is of a plain class -- then the ``Check``
    verdict depends only on the constants' classes, which the skeleton
    fixes, and the source still enforces its grammar on every call.
    Literal templates (``style = 'sedan'``) make support
    value-dependent, so an unvalidated substitution there could hand
    the source a query it rejects.  Schema validation happened when the
    entry's plan was planned, under the same catalog version.

    ``hits`` counts served instantiations, ``rejected`` counts lookups
    whose substitution failed validation (the caller replans); both are
    mirrored to ``serving.template_cache.template_hits`` /
    ``.template_rejected``.
    """

    def __init__(self, max_entries: int = 256):
        self._cache = BoundedCache(max_entries, TEMPLATE_METRICS_PREFIX)
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
            self._cache.put(key, _Template(condition, result), version)

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
        fingerprint = query.fingerprint
        skeleton = fingerprint.skeleton
        if skeleton is not entry.skeleton and skeleton != entry.skeleton:
            self._reject()
            return None
        leaves = fingerprint.leaves
        for positions in entry.equal:
            first = leaves[positions[0]]
            for position in positions[1:]:
                if leaves[position] != first:
                    self._reject()
                    return None
        candidate = _bind_plan(entry.plan, leaves)
        if entry.literal_free is None:
            entry.literal_free = _literal_free(entry.result.plan, source)
        validate = not entry.literal_free
        if not validate:
            for leaf in leaves:
                if leaf.atom.value.__class__ not in _MARKED_CLASSES:
                    validate = True
                    break
        if validate:
            for source_query in candidate.source_queries():
                if not source.supports(source_query.condition,
                                       source_query.attrs):
                    self._reject()
                    return None
        from repro.planners.base import PlanningResult

        with self._lock:
            self.hits += 1
        self._cache.publish("template_hits")
        return PlanningResult(f"{entry.result.planner}+template", query,
                              candidate, cost_model.cost(candidate))

    def _reject(self) -> None:
        with self._lock:
            self.rejected += 1
        self._cache.publish("template_rejected")

    def invalidate(self) -> int:
        return self._cache.invalidate()
