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

from repro.conditions.parser import parse_condition
from repro.conditions.tree import Condition
from repro.data.relation import Relation
from repro.mediator.mediator import Mediator
from repro.planners.base import Planner, PlanningResult
from repro.plans.retry import RetryPolicy
from repro.query import TargetQuery
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

    The wrapper is a one-source :class:`~repro.mediator.Mediator`: the
    source is registered (and its grammars compiled) when the wrapper
    is built, and every query takes the mediator's one plan path.
    Plans are cached per canonical (condition, attributes) in a bounded
    plan cache of ``plan_cache_entries``, so commuted or reassociated
    spellings of one condition share an entry; an exact miss first
    tries to *rebind* the plan of an earlier query with the same
    constant-stripped skeleton, re-validating every source query
    against the source description wherever a literal template makes
    support depend on the constants.  A bind-join's thousandth probe
    therefore costs a validation, not a planning run.  A provably empty
    condition is answered ``[]`` without contacting the source.
    """

    def __init__(
        self,
        source: CapabilitySource,
        planner: Planner | None = None,
        k1: float = 100.0,
        k2: float = 1.0,
        retry_policy: RetryPolicy | None = None,
        plan_cache_entries: int = 256,
    ):
        self.source = source
        self.mediator = Mediator(planner, k1, k2, retry_policy=retry_policy,
                                 plan_cache_entries=plan_cache_entries)
        self.mediator.add_source(source)

    def _query(self, condition: Condition | str, attributes: Iterable[str]
               ) -> TargetQuery:
        if isinstance(condition, str):
            condition = parse_condition(condition)
        return TargetQuery(condition, attributes, self.source.name)

    # ------------------------------------------------------------------
    def plan(self, condition: Condition | str, attributes: Iterable[str]
             ) -> PlanningResult:
        """The best feasible plan for σ_condition π_attributes (cached)."""
        return self.mediator.plan(self._query(condition, attributes))

    @property
    def template_hits(self) -> int:
        """How many plans were produced by template instantiation."""
        return self.mediator.plan_templates.hits

    def supports(self, condition: Condition | str, attributes: Iterable[str]
                 ) -> bool:
        """Can this wrapper answer the query at all?"""
        return self.plan(condition, attributes).feasible

    def query(self, condition: Condition | str, attributes: Iterable[str]
              ) -> WrapperAnswer:
        """Answer an arbitrary SP query; raise if truly unanswerable."""
        answer = self.mediator.ask(self._query(condition, attributes))
        report = answer.report
        return WrapperAnswer(report.result, answer.planning, report.queries,
                             report.tuples_transferred)

    def cache_size(self) -> int:
        return len(self.mediator.plan_cache)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Wrapper({self.source.name!r}, "
                f"planner={self.mediator.planner.name})")
