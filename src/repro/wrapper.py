"""Wrappers: generic relational capability over a limited source.

Section 2: "if wrappers are to provide generic relational capabilities
for Internet sources, then they need to implement a scheme like the one
we describe in Section 6. That is, when a wrapper receives a query, it
must find the best way to execute the query at the underlying source,
and this is precisely the problem we are addressing in this paper."

:class:`Wrapper` is that wrapper: it accepts *any* select-project query
over a capability-limited source and answers it by planning with
GenCompact, fixing the source queries, executing, and postprocessing.
The only queries it cannot answer are those no feasible plan exists for
at all -- and for those it raises with a precise reason instead of
handing the source something it will reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.conditions.fingerprint import canonical_key
from repro.conditions.parser import parse_condition
from repro.conditions.tree import Condition
from repro.data.relation import Relation
from repro.errors import InfeasiblePlanError
from repro.planners.base import Planner, PlanningResult
from repro.planners.gencompact import GenCompact
from repro.plans.cost import CostModel
from repro.plans.execute import Executor
from repro.plans.retry import RetryPolicy
from repro.query import TargetQuery
from repro.serving.plan_cache import PlanCache, PlanTemplates
from repro.source.source import CapabilitySource


@dataclass
class WrapperAnswer:
    """Result of a wrapped query: rows plus what answering them cost."""

    result: Relation
    planning: PlanningResult
    queries_sent: int
    tuples_transferred: int

    @property
    def rows(self) -> list[dict]:
        return self.result.rows


class Wrapper:
    """A relational facade over one capability-limited source.

    Plans are cached per (canonical condition, attributes) in a bounded
    LRU :class:`~repro.serving.PlanCache`: a wrapper typically serves
    many instances of the same query template, and the planning work --
    not execution -- dominates for small results.  Canonical keying
    means commuted/reassociated spellings of one condition share a
    single entry.

    With ``reuse_templates`` (the default), a cache miss first tries to
    *instantiate* the plan of a previously planned query with the same
    condition skeleton -- same tree shape and constant classes,
    different constants -- by substituting the new constants into the
    old plan and re-validating every source query against the source
    description.  SSDL templates usually match constant classes, so the
    validated substitution is almost always accepted and a bind-join's
    thousandth probe costs a validation, not a planning run.

    The classic prepared-statement trade-off applies: the instantiated
    plan is guaranteed *feasible* but inherits the template's shape, so
    it may be suboptimal for constants with very different
    selectivities.  Pass ``reuse_templates=False`` to replan every
    instance.
    """

    def __init__(
        self,
        source: CapabilitySource,
        planner: Planner | None = None,
        k1: float = 100.0,
        k2: float = 1.0,
        reuse_templates: bool = True,
        retry_policy: RetryPolicy | None = None,
        plan_cache_entries: int = 256,
        compile_capabilities: bool = True,
    ):
        """``plan_cache_entries`` bounds the wrapper's plan cache (and
        its template store): both are LRU :class:`PlanCache` instances,
        so a wrapper serving an unbounded stream of distinct query
        instances holds a bounded number of plans -- the serving
        layer's one eviction policy, not a private unbounded dict.
        ``compile_capabilities`` (default on) compiles the source's
        grammars into token-trie recognizers when the wrapper is built
        -- wrapper construction *is* integration time -- so both
        planning Checks and template re-validation are token walks."""
        self.source = source
        self.planner = planner if planner is not None else GenCompact()
        self.reuse_templates = reuse_templates
        self._cost_model = CostModel({source.name: source.stats}, k1, k2)
        self._executor = Executor(
            {source.name: source}, retry_policy=retry_policy
        )
        if compile_capabilities:
            source.compile_capabilities()
        # Canonically keyed: commuted/reassociated variants of a planned
        # condition hit the same entry (the plan answers them all).
        self._plan_cache = PlanCache(
            plan_cache_entries, metrics_prefix="wrapper.plan_cache"
        )
        # constant-stripped skeleton -> a rebindable (condition, result).
        self._templates = PlanTemplates(
            plan_cache_entries, metrics_prefix="wrapper.template_cache"
        )

    # ------------------------------------------------------------------
    def plan(self, condition: Condition | str, attributes: Iterable[str]
             ) -> PlanningResult:
        """The best feasible plan for σ_condition π_attributes (cached)."""
        if isinstance(condition, str):
            condition = parse_condition(condition)
        attrs = self.source.schema.validate_attributes(attributes)
        self.source.schema.validate_attributes(condition.attributes())
        key = (canonical_key(condition), attrs)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        query = TargetQuery(condition, attrs, self.source.name)
        result = None
        template_key = self._templates.key(query, self.planner.name)
        if self.reuse_templates:
            result = self._templates.instantiate(
                template_key, query, self.source, self._cost_model
            )
        if result is None:
            result = self.planner.plan(query, self.source, self._cost_model)
            self._templates.store(template_key, condition, result)
        self._plan_cache.put(key, result)
        return result

    @property
    def template_hits(self) -> int:
        """How many plans were produced by template instantiation."""
        return self._templates.hits

    def supports(self, condition: Condition | str, attributes: Iterable[str]
                 ) -> bool:
        """Can this wrapper answer the query at all?"""
        return self.plan(condition, attributes).feasible

    def query(self, condition: Condition | str, attributes: Iterable[str]
              ) -> WrapperAnswer:
        """Answer an arbitrary SP query; raise if truly unanswerable."""
        planning = self.plan(condition, attributes)
        if planning.plan is None:
            raise InfeasiblePlanError(
                f"the capabilities of source {self.source.name!r} admit no "
                f"plan for σ({planning.query.condition}) "
                f"π({sorted(planning.query.attributes)})",
                witness=planning.witness,
            )
        report = self._executor.execute_with_report(planning.plan)
        return WrapperAnswer(
            report.result, planning, report.queries, report.tuples_transferred
        )

    def cache_size(self) -> int:
        return len(self._plan_cache)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Wrapper({self.source.name!r}, planner={self.planner.name})"
