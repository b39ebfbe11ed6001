"""GenModular -- the naive, exhaustive four-module scheme (Section 5).

rewrite -> mark -> generate (EPG) -> cost, exactly as Figure 2:

1. The **rewrite** module enumerates condition trees equivalent to the
   target condition using commutative, associative, distributive and
   copy rules (bounded; see :class:`repro.conditions.rewrite.RewriteEngine`).
2. The **mark** module computes every node's export field via Check.
3. The **generate** module runs EPG on each marked CT, producing all
   feasible plans as Choice trees.
4. The **cost** module resolves the Choice operators and picks the
   cheapest plan overall.

GenModular plans against the *native* source description -- its
commutativity rewrite rule is what copes with order-sensitive grammars
(the expensive strategy Section 6.1 replaces in GenCompact).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.conditions.rewrite import GENMODULAR_RULES, RewriteEngine
from repro.observability.trace import get_tracer, trace_event
from repro.planners.base import CheckCounter, Planner, PlannerStats, PlanningResult
from repro.planners.epg import EPG
from repro.planners.mark import mark
from repro.plans.cost import CostModel, count_concrete
from repro.plans.nodes import Plan
from repro.query import TargetQuery
from repro.source.source import CapabilitySource

logger = logging.getLogger(__name__)


@dataclass
class GenModular(Planner):
    """The exhaustive scheme.  Budgets bound the rewrite exploration.

    ``use_closed_description=True`` switches the commutativity burden
    from the rewrite module to the source description (Section 6.1's
    alternative) -- benchmark E9 compares the two configurations.
    """

    max_rewrites: int = 60
    max_rewrite_steps: int = 4000
    max_size_factor: float = 1.5
    use_closed_description: bool = False
    rules: tuple = GENMODULAR_RULES
    name: str = field(default="GenModular", init=False)

    def plan(
        self,
        query: TargetQuery,
        source: CapabilitySource,
        cost_model: CostModel,
    ) -> PlanningResult:
        def run():
            stats = PlannerStats()
            description = (
                source.closed_description
                if self.use_closed_description
                else source.description
            )
            rules = self.rules
            if self.use_closed_description:
                from repro.conditions.rewrite import commutative_rule

                rules = tuple(r for r in rules if r is not commutative_rule)
            checker = CheckCounter(description)
            tracer = get_tracer()
            engine = RewriteEngine(
                rules=rules,
                max_trees=self.max_rewrites,
                max_steps=self.max_rewrite_steps,
                max_size_factor=self.max_size_factor,
            )
            attributes = {
                "planner": self.name, "query": query.text,
                "source": source.name,
            } if tracer.enabled else {}
            with tracer.span("planner.plan", **attributes) as plan_span:
                with tracer.span("planner.rewrite") as rewrite_span:
                    rewriting = engine.explore(query.condition)
                    rewrite_span.set_attributes(
                        trees=len(rewriting.trees),
                        budget_spent=rewriting.steps,
                        truncated=rewriting.truncated,
                    )
                stats.rewrite_truncated = rewriting.truncated

                best_plan: Plan | None = None
                best_cost = float("inf")
                for ct in rewriting.trees:
                    stats.cts_processed += 1
                    with tracer.span("planner.mark"):
                        marking = mark(ct, checker)
                    epg = EPG(source.name, checker, marking, stats)
                    with tracer.span("planner.generate") as generate_span:
                        choice = epg.generate(ct, query.attributes)
                        if choice is not None:
                            q = count_concrete(choice)
                            stats.subplans_considered += q
                            generate_span.set_attribute("Q", q)
                    if choice is None:
                        continue
                    with tracer.span("planner.cost") as cost_span:
                        candidate = cost_model.resolve(choice)
                        candidate_cost = cost_model.cost(candidate)
                        cost_span.set_attribute("cost", candidate_cost)
                    if candidate_cost < best_cost:
                        best_plan = candidate
                        best_cost = candidate_cost
                stats.check_calls = checker.calls
                stats.check_compiled = checker.compiled_answers
                stats.check_fallbacks = checker.fallbacks
                stats.check_prefiltered = checker.prefiltered
                plan_span.set_attributes(
                    feasible=best_plan is not None,
                    Q=stats.subplans_considered,
                    pr1_fires=stats.pr1_fires,
                    pr2_fires=stats.pr2_fires,
                    pr3_fires=stats.pr3_fires,
                    check_calls=stats.check_calls,
                    check_prefiltered=stats.check_prefiltered,
                    rewrite_budget_spent=rewriting.steps,
                )
                trace_event(
                    logger, logging.DEBUG,
                    "GenModular planned %s: %d CTs (truncated=%s), best "
                    "cost %s",
                    query, stats.cts_processed, stats.rewrite_truncated,
                    f"{best_cost:.1f}" if best_plan is not None
                    else "infeasible",
                    event="planner.planned", planner=self.name,
                    cts_processed=stats.cts_processed,
                    check_calls=stats.check_calls,
                    feasible=best_plan is not None,
                    cost=best_cost if best_plan is not None else None,
                )
            return best_plan, stats, cost_model

        return self._timed(run, query)
