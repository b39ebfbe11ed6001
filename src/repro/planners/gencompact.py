"""GenCompact -- the paper's contribution (Section 6).

GenCompact improves on GenModular by:

1. a **reduced rewrite module** -- only the distributive family of
   rules fires (commutativity is folded into the commutation-closed
   source description, associativity and copy are subsumed by IPG's
   canonical-tree processing);
2. an **integrated plan-generation module** (IPG) that walks each
   canonical CT once, producing the single best plan directly with the
   pruning rules PR1-PR3.

The final plan is produced against the commutation-closed description;
the executor "fixes" the order of each source query of the one plan
that actually runs (Section 6.1).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.conditions.canonical import canonicalize
from repro.conditions.rewrite import GENCOMPACT_RULES, RewriteEngine
from repro.observability.trace import get_tracer, trace_event
from repro.planners.base import CheckCounter, Planner, PlannerStats, PlanningResult
from repro.planners.ipg import IPG
from repro.plans.cost import CostModel
from repro.plans.nodes import Plan
from repro.query import TargetQuery
from repro.source.source import CapabilitySource

logger = logging.getLogger(__name__)


@dataclass
class GenCompact(Planner):
    """The efficient scheme.

    ``pr1``/``pr2``/``pr3`` toggle the pruning rules (benchmark E5's
    ablation); ``mcsc_solver`` picks the set-cover algorithm used in the
    sub-plan combination step (``"dp"``, ``"enumerate"`` = the paper's
    O(2^Q) search, or ``"greedy"``).
    """

    max_rewrites: int = 40
    max_rewrite_steps: int = 4000
    max_size_factor: float = 2.0
    pr1: bool = True
    pr2: bool = True
    pr3: bool = True
    mcsc_solver: str = "dp"
    name: str = field(default="GenCompact", init=False)

    def __post_init__(self) -> None:
        disabled = [
            label
            for label, enabled in (("pr1", self.pr1), ("pr2", self.pr2),
                                   ("pr3", self.pr3))
            if not enabled
        ]
        if disabled:
            self.name = "GenCompact(no " + ",".join(disabled) + ")"

    def plan(
        self,
        query: TargetQuery,
        source: CapabilitySource,
        cost_model: CostModel,
    ) -> PlanningResult:
        def run():
            stats = PlannerStats()
            tracer = get_tracer()
            attributes = {
                "planner": self.name, "query": query.text,
                "source": source.name,
            } if tracer.enabled else {}
            with tracer.span("planner.plan", **attributes) as plan_span:
                checker = CheckCounter(source.closed_description)
                engine = RewriteEngine(
                    rules=GENCOMPACT_RULES,
                    max_trees=self.max_rewrites,
                    max_steps=self.max_rewrite_steps,
                    max_size_factor=self.max_size_factor,
                    canonical=True,
                )
                with tracer.span("planner.rewrite") as rewrite_span:
                    rewriting = engine.explore(query.condition)
                    rewrite_span.set_attributes(
                        trees=len(rewriting.trees),
                        budget_spent=rewriting.steps,
                        truncated=rewriting.truncated,
                    )
                stats.rewrite_truncated = rewriting.truncated

                ipg = IPG(
                    source.name,
                    checker,
                    cost_model,
                    stats,
                    pr1=self.pr1,
                    pr2=self.pr2,
                    pr3=self.pr3,
                    mcsc_solver=self.mcsc_solver,
                )
                best_plan: Plan | None = None
                best_cost = float("inf")
                with tracer.span("planner.generate") as generate_span:
                    for ct in rewriting.trees:
                        stats.cts_processed += 1
                        candidate = ipg.best_plan(
                            canonicalize(ct), query.attributes
                        )
                        if candidate is None:
                            continue
                        with tracer.span("planner.cost") as cost_span:
                            candidate_cost = cost_model.cost(candidate)
                            cost_span.set_attribute("cost", candidate_cost)
                        if candidate_cost < best_cost:
                            best_plan = candidate
                            best_cost = candidate_cost
                    generate_span.set_attributes(
                        cts_processed=stats.cts_processed,
                        Q=stats.subplans_considered,
                        pr1_fires=stats.pr1_fires,
                        pr2_fires=stats.pr2_fires,
                        pr3_fires=stats.pr3_fires,
                    )
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
                    "GenCompact planned %s: %d CTs, %d Check calls, best "
                    "cost %s",
                    query, stats.cts_processed, stats.check_calls,
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
