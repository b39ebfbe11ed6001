"""GenCompact -- the paper's contribution (Section 6).

GenCompact improves on GenModular by:

1. a **reduced rewrite module** -- only the distributive family of
   rules fires (commutativity is folded into the commutation-closed
   source description, associativity and copy are subsumed by IPG's
   canonical-tree processing);
2. an **integrated plan-generation module** (IPG) that walks each
   canonical CT once, producing the single best plan directly with the
   pruning rules PR1-PR3 -- and, when the closed description is
   order-free, only one CT of each commutation class.

The final plan is produced against the commutation-closed description;
the executor "fixes" the order of each source query of the one plan
that actually runs (Section 6.1).

Beyond the paper, the rewrite module is *lazy*: the original tree is
planned first, and when its plan already costs what the description's
compiled signatures prove no plan of any rewriting can undercut
(:meth:`repro.plans.cost.CostModel.source_query_floor` of
:meth:`repro.planners.certificate.Certificate.least_selectivity`, or
the sharper ``cover_floor``), the rewrite closure is never built -- it
could only have tied -- and the later CTs stop once the incumbent meets
it.  An original tree without a plan may get ``refute_by_atom``'s proof
that no rewriting has one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import inf

from repro.conditions.canonical import canonicalize, commutation_key
from repro.conditions.rewrite import GENCOMPACT_RULES, RewriteEngine
from repro.observability.trace import get_tracer
from repro.planners.base import (
    CheckCounter,
    Found,
    Planner,
    PlannerStats,
    PlanningResult,
)
from repro.planners.certificate import FLOOR_SLACK, Certificate
from repro.planners.ipg import IPG
from repro.plans.cost import CostModel
from repro.plans.nodes import Plan
from repro.query import TargetQuery
from repro.source.source import CapabilitySource


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
        def search(checker: CheckCounter, stats: PlannerStats,
                   certificate: Certificate | None) -> Found:
            tracer = get_tracer()
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
            # On an order-free description a CT that permutes the
            # children of one already planned has the same Checks and
            # best cost, and ties stay with the earlier: plan one CT
            # per commutation class.
            order_free = checker.description.order_free
            planned: set = set()
            keys: dict = {}

            def generate(trees, best: tuple[Plan | None, float],
                         limit: float = -inf):
                """The cheaper of ``best`` and the best plan of ``trees``
                (ties stay with the earlier), stopping once ``best``
                costs no more than ``limit``."""
                with tracer.span("planner.generate") as generate_span:
                    for ct in trees:
                        if best[1] <= limit:
                            stats.rewrite_stopped = 1
                            break
                        ct = canonicalize(ct)
                        if order_free:
                            key = commutation_key(ct, keys)
                            if key in planned:
                                stats.cts_commuted += 1
                                continue
                            planned.add(key)
                        stats.cts_processed += 1
                        candidate = ipg.best_plan(ct, query.attributes)
                        if candidate is None:
                            continue
                        with tracer.span("planner.cost") as cost_span:
                            candidate_cost = cost_model.cost(candidate)
                            cost_span.set_attribute("cost", candidate_cost)
                        if candidate_cost < best[1]:
                            best = candidate, candidate_cost
                    generate_span.set_attributes(
                        cts_processed=stats.cts_processed,
                        cts_commuted=stats.cts_commuted,
                        Q=stats.subplans_considered,
                        pr1_fires=stats.pr1_fires,
                        pr2_fires=stats.pr2_fires,
                        pr3_fires=stats.pr3_fires,
                    )
                return best

            # The original tree first: it is the rewrite closure's first
            # member, and ties between CTs go to the first.
            best = generate([query.condition], (None, inf))
            with tracer.span("planner.rewrite") as rewrite_span:
                floor = None
                if certificate is not None:
                    if best[0] is not None:
                        floor = _floor(best[1], certificate, cost_model,
                                       source.name)
                    elif certificate.refute_by_atom():
                        # No plan of any rewriting exists; the frame
                        # reports the certificate's witness.
                        rewrite_span.set_attributes(
                            trees=1, budget_spent=0, truncated=False,
                            cut="witness")
                        return *best, 0
                limit = -inf if floor is None else floor * (1.0 + FLOOR_SLACK)
                if best[1] <= limit:
                    # No plan of any rewriting can cost less.
                    stats.rewrite_skipped = 1
                    rewrite_span.set_attributes(
                        trees=1, budget_spent=0, truncated=False,
                        cut="skipped", floor=floor)
                    return *best, 0
                engine = RewriteEngine(
                    rules=GENCOMPACT_RULES,
                    max_trees=self.max_rewrites,
                    max_steps=self.max_rewrite_steps,
                    max_size_factor=self.max_size_factor,
                    canonical=True,
                )
                rewriting = engine.explore(query.condition)
                rewrite_span.set_attributes(
                    trees=len(rewriting.trees),
                    budget_spent=rewriting.steps,
                    truncated=rewriting.truncated,
                    floor=floor,
                )
            stats.rewrite_truncated = rewriting.truncated
            best = generate(rewriting.trees[1:], best, limit)
            if stats.rewrite_stopped:
                rewrite_span.set_attribute("cut", "stopped")
            return *best, rewriting.steps

        return self._searched(
            query, source, source.closed_description, search)


def _floor(cost: float, certificate: Certificate, cost_model: CostModel,
           source: str) -> float | None:
    """What no plan of any rewriting can undercut, as far as the
    description's signatures and the cost model vouch: the least
    selectivity's floor, sharpened by the term cover when ``cost``
    misses it (None when the term cover is over its budget)."""
    stats = cost_model.stats[source]
    price = partial(cost_model.source_query_floor, source)
    floor = price(certificate.least_selectivity(stats))
    if floor is None or cost <= floor * (1.0 + FLOOR_SLACK):
        return floor
    sharper = certificate.cover_floor(stats, price)
    return None if sharper is None else max(floor, sharper)
