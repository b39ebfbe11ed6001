"""IPG -- the Integrated Plan Generator (Algorithm 6.1, Figures 4-6).

IPG integrates GenModular's mark, generate and cost modules: it walks a
*canonical* condition tree top-down and returns the single best feasible
plan, using the cost model and pruning rules during the search:

* **PR1** -- if the pure plan ``SP(n, A, R)`` is feasible, return it
  immediately; no impure plan can beat it under the Eq. 1 cost model.
* **PR2** -- keep only the cheapest sub-plan per covered child-subset.
* **PR3** -- before the set-cover step, drop sub-plans dominated by a
  cheaper-or-equal sub-plan covering a superset of children; and skip
  recursive calls that a pure superset sub-plan already dominates
  (Figure 6, line 12).

Each pruning rule can be disabled independently (benchmark E5's
ablation); with all pruning off, IPG degenerates to an exhaustive search
over the same plan space and must find the same optimum -- a property
the test suite checks.

Because IPG processes canonical trees and considers every child subset,
it covers the plans GenModular only reaches through the associativity
and copy rewrite rules (Section 6.4's key observation).

Which child subsets of a node the source supports does not depend on the
attribute set asked for, nor on which rewritten CT reached the node, so
one run keeps a subset table per connector node and asks ``Check`` once
per (node, subset) -- and only over children every atom of which some
template of the grammar can match (DESIGN.md, "Planner hot path").
"""

from __future__ import annotations

from itertools import combinations

from repro.conditions.tree import TRUE, Condition, conjunction, disjunction
from repro.errors import ReproError
from repro.planners.base import CheckCounter, PlannerStats
from repro.planners.mcsc import (
    CoverCandidate,
    CoverSolution,
    coverage_mask,
    prune_dominated,
    solve_dp,
    solve_enumerate,
    solve_greedy,
    solve_minmax,
)
from repro.plans.cost import CostModel
from repro.plans.nodes import (
    IntersectPlan,
    Plan,
    Postprocess,
    SourceQuery,
    UnionPlan,
    sp,
)
from repro.ssdl.description import CheckResult

#: Child-subset enumeration is O(2^k); refuse beyond this fanout.
MAX_FANOUT = 14

_SOLVERS = {
    "dp": solve_dp,
    "enumerate": solve_enumerate,
    "greedy": solve_greedy,
}

#: A plan with its cost under the run's cost model, carried together so
#: no step of the search walks a plan again to price it.
Costed = tuple[Plan, float]

#: Sub-plans found for a node, by the bitmask of the children they cover.
SubPlans = dict[int, list[Costed]]


class _NodeTable:
    """What one planning run knows about a connector node, whichever
    attribute set or rewritten CT reaches it.

    ``supported`` lists the child subsets whose combination the source
    accepts -- ``(mask, condition, CheckResult)``, in the order the
    subsets are enumerated.  Only *live* children are enumerated: a
    child holding an atom no template of the grammar can match appears
    in no supported ``SP`` (``SourceDescription.atom_matchable``).
    """

    __slots__ = ("children", "child_attrs", "attrs", "supported", "_combine",
                 "_conds")

    def __init__(self, node: Condition, checker: CheckCounter):
        children = self.children = node.children
        self._combine = disjunction if node.is_or else conjunction
        self._conds: dict[int, Condition] = {}
        matchable = checker.description.atom_matchable
        child_attrs = []
        live = []
        for index, child in enumerate(children):
            atoms = child.atoms()
            child_attrs.append(frozenset(atom.attribute for atom in atoms))
            if all(map(matchable, atoms)):
                live.append(index)
        self.child_attrs = tuple(child_attrs)
        self.attrs = frozenset().union(*child_attrs)
        self.supported: list[tuple[int, Condition, CheckResult]] = []
        for size in range(1, len(live) + 1):
            for indices in combinations(live, size):
                cond = self._combine([children[i] for i in indices])
                result = checker.check(cond)
                if result:
                    self.supported.append((coverage_mask(indices), cond, result))

    def cond(self, mask: int) -> Condition:
        """The node's connector over the children in ``mask``."""
        cond = self._conds.get(mask)
        if cond is None:
            cond = self._conds[mask] = self._combine([
                child for index, child in enumerate(self.children)
                if mask >> index & 1
            ])
        return cond


class IPG:
    """One IPG run over canonical condition trees of a single source."""

    def __init__(
        self,
        source_name: str,
        checker: CheckCounter,
        cost_model: CostModel,
        stats: PlannerStats | None = None,
        pr1: bool = True,
        pr2: bool = True,
        pr3: bool = True,
        mcsc_solver: str = "dp",
        max_fanout: int = MAX_FANOUT,
    ):
        self.source_name = source_name
        self.checker = checker
        self.cost_model = cost_model
        self.stats = stats if stats is not None else PlannerStats()
        # PR1 assumes the pure plan is never beaten, which holds for
        # additive (Eq. 1) costing but not, e.g., for the bottleneck
        # model -- the model advertises soundness (DESIGN.md).
        self.pr1 = pr1 and getattr(cost_model, "pr1_sound", True)
        self.pr2 = pr2
        self.pr3 = pr3
        self.max_fanout = max_fanout
        if getattr(cost_model, "aggregate_kind", "sum") == "max":
            # The combination step becomes a min-max cover.
            self._solver = solve_minmax
        else:
            try:
                self._solver = _SOLVERS[mcsc_solver]
            except KeyError:
                raise ReproError(
                    f"unknown MCSC solver {mcsc_solver!r}; pick one of "
                    f"{sorted(_SOLVERS)}"
                ) from None
        # Everything below lives as long as this run (one ``plan()`` call).
        self._memo: dict[tuple[Condition, frozenset[str]], Costed | None] = {}
        self._tables: dict[Condition, _NodeTable] = {}
        self._coverage: dict[int, frozenset[int]] = {}
        self._download: CheckResult | None = None

    # ------------------------------------------------------------------
    def _source_query(self, condition: Condition, attributes: frozenset[str]) -> Costed:
        query = SourceQuery(condition, attributes, self.source_name)
        return query, self.cost_model.cost(query)

    @staticmethod
    def _cheaper(left: Costed | None, right: Costed | None) -> Costed | None:
        """The cheaper of two (possibly missing) plans -- PR2's mincost."""
        if left is None:
            return right
        if right is None:
            return left
        return left if left[1] <= right[1] else right

    # ------------------------------------------------------------------
    def best_plan(self, node: Condition, attributes: frozenset[str]) -> Plan | None:
        """The best feasible plan for ``SP(node, attributes, R)`` or None."""
        best = self._best(node, attributes)
        return None if best is None else best[0]

    def _best(self, node: Condition, attributes: frozenset[str]) -> Costed | None:
        key = (node, attributes)
        if key in self._memo:
            return self._memo[key]
        self.stats.recursive_calls += 1
        result = self._best_uncached(node, attributes)
        self._memo[key] = result
        return result

    def _best_uncached(
        self, node: Condition, attributes: frozenset[str]
    ) -> Costed | None:
        # The pure plan (Algorithm 6.1, first check).
        pure: Costed | None = None
        if self.checker.check(node).supports(attributes):
            pure = self._source_query(node, attributes)
            if self.pr1:
                self.stats.pr1_fires += 1
                return pure  # PR1: nothing can beat the pure plan.

        if node.is_leaf or node.is_true:
            return self._cheaper(
                pure, self._download_plan(node, attributes, node.attributes()))
        if len(node.children) > self.max_fanout:
            raise ReproError(
                f"connector fanout {len(node.children)} exceeds the supported "
                f"maximum of {self.max_fanout} (child-subset enumeration is "
                "exponential); split the query"
            )
        table = self._tables.get(node)
        if table is None:
            table = self._tables[node] = _NodeTable(node, self.checker)
        plan_impure = self._download_plan(node, attributes, table.attrs)
        if node.is_or:
            impure = self._or_impure(table, attributes, plan_impure)
        else:
            impure = self._and_impure(table, attributes, plan_impure)
        return self._cheaper(pure, impure)

    def _download_plan(
        self, node: Condition, attributes: frozenset[str],
        node_attrs: frozenset[str],
    ) -> Costed | None:
        """The download option: ``SP(node, A, SP(true, A ∪ Attr(node), R))``."""
        if self._download is None:
            self._download = self.checker.check(TRUE)
        fetch = attributes | node_attrs
        if not self._download.supports(fetch):
            return None
        inner, cost = self._source_query(TRUE, fetch)
        return sp(node, attributes, inner), cost

    # ------------------------------------------------------------------
    # Sub-plan bookkeeping shared by the OR and AND procedures.
    # ------------------------------------------------------------------
    def _record(self, subplans: SubPlans, mask: int, costed: Costed) -> None:
        """Record a sub-plan covering ``mask``; PR2 keeps only the cheapest."""
        self.stats.subplans_considered += 1
        bucket = subplans.setdefault(mask, [])
        if self.pr2:
            if not bucket:
                bucket.append(costed)
            else:
                self.stats.pr2_fires += 1
                if costed[1] < bucket[0][1]:
                    bucket[0] = costed
        elif costed not in bucket:
            bucket.append(costed)

    def _combine(
        self,
        subplans: SubPlans,
        n_children: int,
        plan_impure: Costed | None,
        combiner,
    ) -> Costed | None:
        """Step 2 of Figures 5/6: the MCSC combination of sub-plans."""
        coverage = self._coverage
        candidates = []
        for mask, bucket in subplans.items():
            covered = coverage.get(mask)
            if covered is None:
                covered = coverage[mask] = frozenset(
                    i for i in range(n_children) if mask >> i & 1)
            for plan, cost in bucket:
                candidates.append(CoverCandidate(covered, cost, plan))
        if self.pr3:
            survivors = prune_dominated(candidates)
            self.stats.pr3_fires += len(candidates) - len(survivors)
            candidates = survivors
        self.stats.mcsc_sets += len(candidates)
        self.stats.mcsc_problems += 1
        solution: CoverSolution | None = self._solver(n_children, candidates)
        best = plan_impure
        if solution is not None and solution.chosen:
            chosen = solution.chosen
            if len(chosen) == 1:
                combined = (chosen[0].payload, chosen[0].cost)
            else:
                combined = (
                    combiner([c.payload for c in chosen]),
                    self.cost_model.aggregate([c.cost for c in chosen]),
                )
            best = self._cheaper(best, combined)
        return best

    # ------------------------------------------------------------------
    # Figure 5: processing an OR node.
    # ------------------------------------------------------------------
    def _or_impure(
        self, table: _NodeTable, attributes: frozenset[str],
        plan_impure: Costed | None,
    ) -> Costed | None:
        children = table.children
        k = len(children)
        subplans: SubPlans = {}

        # Lines 3-5: pure sub-plans for every supported child subset.
        for mask, cond, result in table.supported:
            if result.supports(attributes):
                self._record(subplans, mask, self._source_query(cond, attributes))

        # Lines 6-7: impure sub-plans, for single children only.  PR1
        # skips children that already have a pure sub-plan.
        for i in range(k):
            singleton = 1 << i
            if self.pr1 and singleton in subplans:
                self.stats.pr1_fires += 1
                continue
            sub = self._best(children[i], attributes)
            if sub is not None:
                self._record(subplans, singleton, sub)

        # Lines 8-14: choose the minimum-cost cover; combine with union.
        return self._combine(subplans, k, plan_impure, UnionPlan)

    # ------------------------------------------------------------------
    # Figure 6: processing an AND node.
    # ------------------------------------------------------------------
    def _and_impure(
        self, table: _NodeTable, attributes: frozenset[str],
        plan_impure: Costed | None,
    ) -> Costed | None:
        children = table.children
        child_attrs = table.child_attrs
        k = len(children)
        subplans: SubPlans = {}
        pure_masks: list[int] = []

        # Lines 3-9: source-supported conjunctions of child subsets, each
        # optionally extended with mediator-evaluated children whose
        # attributes the source query can export (MaxEval).
        for mask, cond, result in table.supported:
            if result.supports(attributes):
                pure_masks.append(mask)
                self._record(subplans, mask, self._source_query(cond, attributes))
            # MaxEval: children evaluable at the mediator from what
            # this source query can export.
            rest = [j for j in range(k) if not mask >> j & 1]
            for exported in result.attribute_sets:
                if not attributes <= exported:
                    continue
                addable = [j for j in rest if child_attrs[j] <= exported]
                for m_size in range(1, len(addable) + 1):
                    for m_indices in combinations(addable, m_size):
                        m_mask = coverage_mask(m_indices)
                        needed = attributes.union(
                            *[child_attrs[j] for j in m_indices])
                        inner, cost = self._source_query(cond, needed)
                        plan = Postprocess(
                            table.cond(m_mask), attributes, inner)
                        self._record(subplans, mask | m_mask, (plan, cost))

        # Lines 10-13: recursive sub-plans.  Evaluate one child via a
        # recursive IPG call that also exports the attributes of sibling
        # children, which are then filtered at the mediator.
        for i in range(k):
            others = [j for j in range(k) if j != i]
            for size in range(0, k):
                for rest_indices in combinations(others, size):
                    rest_mask = coverage_mask(rest_indices)
                    n_prime = rest_mask | 1 << i
                    if self._dominated_by_pure(n_prime, pure_masks):
                        continue  # Figure 6 line 12 (PR1 / PR3)
                    needed = attributes.union(
                        *[child_attrs[j] for j in rest_indices])
                    sub = self._best(children[i], needed)
                    if sub is None:
                        continue
                    if rest_mask:
                        sub = (
                            Postprocess(table.cond(rest_mask),
                                        attributes, sub[0]),
                            sub[1],
                        )
                    self._record(subplans, n_prime, sub)

        # Lines 14-20: choose the minimum-cost cover; combine with
        # intersection.
        return self._combine(subplans, k, plan_impure, IntersectPlan)

    def _dominated_by_pure(self, mask: int, pure_masks: list[int]) -> bool:
        """Figure 6, line 12: skip the recursive call when a pure sub-plan
        covers exactly this subset (PR1) or a superset (PR3)."""
        if self.pr1 and mask in pure_masks:
            self.stats.pr1_fires += 1
            return True
        if self.pr3:
            for pure in pure_masks:
                if pure != mask and pure & mask == mask:
                    self.stats.pr3_fires += 1
                    return True
        return False
