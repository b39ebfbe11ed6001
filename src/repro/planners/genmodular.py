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

from dataclasses import dataclass, field

from repro.conditions.rewrite import (
    GENMODULAR_RULES,
    RewriteEngine,
    commutative_rule,
)
from repro.observability.trace import get_tracer
from repro.planners.base import (
    CheckCounter,
    Found,
    Planner,
    PlannerStats,
    PlanningResult,
)
from repro.planners.certificate import Certificate
from repro.planners.epg import EPG
from repro.planners.mark import mark
from repro.plans.cost import CostModel, count_concrete
from repro.plans.nodes import Plan
from repro.query import TargetQuery
from repro.source.source import CapabilitySource


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
        rules = self.rules
        description = source.description
        if self.use_closed_description:
            description = source.closed_description
            rules = tuple(r for r in rules if r is not commutative_rule)

        def search(checker: CheckCounter, stats: PlannerStats,
                   certificate: Certificate | None) -> Found:
            tracer = get_tracer()
            engine = RewriteEngine(
                rules=rules,
                max_trees=self.max_rewrites,
                max_steps=self.max_rewrite_steps,
                max_size_factor=self.max_size_factor,
            )
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
            return best_plan, best_cost, rewriting.steps

        return self._searched(query, source, description, search)
