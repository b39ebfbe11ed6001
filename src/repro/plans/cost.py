"""The paper's cost model (Section 6.2, Eq. 1) and Choice resolution.

``cost(plan) = Σ over source queries sq of  k1 + k2 * |result(sq)|``

k1 models the per-query overhead (connection, form round trip, source
work proportional to using an index), k2 the per-result-tuple transfer
and postprocessing cost.  Result sizes come from the source's table
statistics at planning time, and from the meter at execution time.

Because the model is additive over source queries, a Choice node can be
resolved bottom-up: the cheapest alternative of each Choice is optimal
independently of its context.  This is exactly why pruning rule PR2
("prune locally sub-optimal plans") is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from repro.data.stats import TableStats
from repro.errors import PlanExecutionError
from repro.plans.nodes import (
    ChoicePlan,
    IntersectPlan,
    Plan,
    Postprocess,
    SourceQuery,
    UnionPlan,
)

#: Cost assigned to infeasible / missing plans (the paper's "infeasible
#: plans are deemed the worst").
INFINITE_COST = math.inf


@dataclass(frozen=True)
class CostModel:
    """Eq. 1 with per-source statistics.

    ``stats`` maps source name -> :class:`TableStats`.  ``k1``/``k2``
    are the paper's constants; they "depend on the source referred to by
    the target query", so per-source overrides are supported.

    Per-query costs are combined **additively** (Eq. 1's Σ), which is
    what makes all three pruning rules sound and the MCSC combination
    step decomposable.  Section 7 claims GenCompact adapts to other cost
    models; :class:`BottleneckCostModel` below is one such adaptation
    and advertises which pruning rules remain sound through the
    ``pr1_sound`` / ``aggregate_kind`` attributes the planners consult.
    """

    stats: Mapping[str, TableStats]
    k1: float = 100.0
    k2: float = 1.0
    per_source: Mapping[str, tuple[float, float]] | None = None

    #: How per-query costs combine: "sum" (Eq. 1) or "max" (bottleneck).
    aggregate_kind: str = "sum"
    #: Is PR1 ("pure plan beats every impure plan") sound for this model?
    pr1_sound: bool = True

    def constants_for(self, source: str) -> tuple[float, float]:
        if self.per_source and source in self.per_source:
            return self.per_source[source]
        return (self.k1, self.k2)

    def aggregate(self, costs) -> float:
        """The cost of a plan node from its children's costs (Eq. 1's Σ)."""
        return sum(costs)

    # ------------------------------------------------------------------
    def source_query_cost(self, query: SourceQuery) -> float:
        stats = self.stats.get(query.source)
        if stats is None:
            raise PlanExecutionError(
                f"no statistics registered for source {query.source!r}"
            )
        return self._eq1(query.source, stats.estimated_rows(query.condition))

    def _eq1(self, source: str, rows: float) -> float:
        k1, k2 = self.constants_for(source)
        return k1 + k2 * rows

    def source_query_floor(self, source: str,
                           selectivity: float) -> float | None:
        """A lower bound on the cost of every plan holding a query to
        ``source`` that selects at least ``selectivity`` of its rows,
        or None when the model vouches for none.

        Eq. 1 sums non-negative terms, so a plan costs at least its
        cheapest source query.  A model that prices source queries or
        combines them its own way has no bound until it states one:
        overriding :meth:`source_query_cost` or :meth:`aggregate` alone
        switches this off (:class:`BottleneckCostModel`).
        """
        mine = type(self)
        if (mine.source_query_cost is not CostModel.source_query_cost
                or mine.aggregate is not CostModel.aggregate):
            return None
        return self._eq1(source, selectivity * self.stats[source].n_rows)

    def cost(self, plan: Plan | None) -> float:
        """Estimated cost; Choice nodes contribute their cheapest branch."""
        if plan is None:
            return INFINITE_COST
        if isinstance(plan, SourceQuery):
            return self.source_query_cost(plan)
        if isinstance(plan, ChoicePlan):
            return min(self.cost(alt) for alt in plan.children)
        return self.aggregate(self.cost(child) for child in plan.children)

    def resolve(self, plan: Plan | None) -> Plan | None:
        """Replace every Choice by its cheapest branch (fully concrete)."""
        if plan is None:
            return None
        if isinstance(plan, SourceQuery):
            return plan
        if isinstance(plan, ChoicePlan):
            best = min(plan.children, key=self.cost)
            return self.resolve(best)
        if isinstance(plan, Postprocess):
            return Postprocess(plan.condition, plan.attrs, self.resolve(plan.input))
        if isinstance(plan, UnionPlan):
            return UnionPlan([self.resolve(c) for c in plan.children])
        if isinstance(plan, IntersectPlan):
            return IntersectPlan([self.resolve(c) for c in plan.children])
        raise PlanExecutionError(f"cannot resolve plan node {type(plan).__name__}")

    def cheaper(self, left: Plan | None, right: Plan | None) -> Plan | None:
        """The cheaper of two (possibly missing) plans -- PR2's mincost."""
        if left is None:
            return right
        if right is None:
            return left
        return left if self.cost(left) <= self.cost(right) else right


def enumerate_concrete(plan: Plan | None, limit: int = 100000) -> Iterator[Plan]:
    """Every concrete plan a Choice-bearing plan stands for.

    This is GenModular's plan *set* made explicit; the optimality-parity
    tests minimize over it.  Raises :class:`PlanExecutionError` when more
    than ``limit`` plans would be produced.
    """
    if plan is None:
        return
    count = 0
    for concrete in _expand(plan):
        count += 1
        if count > limit:
            raise PlanExecutionError(f"more than {limit} concrete plans")
        yield concrete


@dataclass(frozen=True)
class BottleneckCostModel(CostModel):
    """Response-time costing: the plan's queries run in parallel.

    cost(plan) = max over source queries of ``k1 + k2 * |result(sq)|``.

    This model changes which pruning rules are safe:

    * **PR1 is UNSOUND**: for a disjunctive query, each branch of a
      union plan retrieves a *subset* of the pure plan's rows, so the
      union's bottleneck can be strictly cheaper than the pure plan.
      The model advertises ``pr1_sound=False`` and IPG then keeps
      searching past a feasible pure plan.
    * PR2/PR3 remain sound (``max`` is monotone in every component, so
      swapping a sub-plan for a cheaper-or-equal one covering at least
      as much never hurts).
    * The MCSC combination step becomes a *min-max* cover, solved
      exactly by :func:`repro.planners.mcsc.solve_minmax` (IPG switches
      on ``aggregate_kind``).
    * :meth:`source_query_floor` is None -- the bound is argued from
      Eq. 1's sum, like PR1 -- so GenCompact never stops at its first
      plan.
    """

    aggregate_kind: str = "max"
    pr1_sound: bool = False

    def aggregate(self, costs) -> float:
        return max(costs, default=0.0)


def count_concrete(plan: Plan | None) -> int:
    """How many concrete plans a Choice-bearing plan stands for.

    Computed by the obvious product/sum recursion; this is the size of
    GenModular's plan space for a CT without materializing it (used by
    the search-space experiment E4).
    """
    if plan is None:
        return 0
    if isinstance(plan, SourceQuery):
        return 1
    if isinstance(plan, ChoicePlan):
        return sum(count_concrete(alt) for alt in plan.children)
    out = 1
    for child in plan.children:
        out *= count_concrete(child)
    return out


def _expand(plan: Plan) -> Iterator[Plan]:
    if isinstance(plan, SourceQuery):
        yield plan
        return
    if isinstance(plan, ChoicePlan):
        for alternative in plan.children:
            yield from _expand(alternative)
        return
    if isinstance(plan, Postprocess):
        for inner in _expand(plan.input):
            yield Postprocess(plan.condition, plan.attrs, inner)
        return
    if isinstance(plan, (UnionPlan, IntersectPlan)):
        cls = type(plan)
        for combo in product(*[list(_expand(c)) for c in plan.children]):
            yield cls(list(combo))
        return
    raise PlanExecutionError(f"cannot expand plan node {type(plan).__name__}")
