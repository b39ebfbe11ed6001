"""Multi-source selection: mirrors and horizontal partitions.

Real mediators rarely see a logical relation behind exactly one form.
Two common multi-source shapes, both built from the paper's
single-source machinery:

* **Mirrors** -- several sources hold the *same* data with different
  capabilities and cost constants (a fast site with a poor form vs. a
  slow site with a rich form).  Planning = plan against every mirror,
  keep the cheapest feasible plan.  A query only one mirror's form can
  express is still answerable -- capability-sensitive source *selection*.
  At execution time the mirrors are also each other's **failover
  targets**: when the chosen mirror dies mid-plan, the failed source
  query is re-planned against a surviving mirror instead of aborting.
* **Partitions** -- each source holds a disjoint horizontal slice (e.g.
  regional listings).  Planning = plan the query per partition and union
  the results; the whole query is feasible iff every partition can
  answer it (a partition that cannot would silently lose tuples).
  ``ask(query, partial=True)`` degrades gracefully instead: partitions
  that are down or cannot express the query are skipped and the answer
  comes back *flagged* as incomplete.

Both groups hold **one** executor for their lifetime (optionally with a
shared :class:`~repro.plans.cache.ResultCache` and a
:class:`~repro.plans.retry.RetryPolicy`), so repeated queries benefit
from caching across calls.  Pass ``parallel_workers=N`` to make that
executor a :class:`~repro.plans.parallel.ParallelExecutor`: a
partitioned query's per-slice source calls then overlap instead of
queueing -- the natural fit, since a partition plan is a Union over
independent slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.relation import Relation
from repro.errors import (
    InfeasiblePlanError,
    SchemaError,
    TransientSourceError,
)
from repro.planners.base import Planner, PlannerStats, PlanningResult
from repro.planners.gencompact import GenCompact
from repro.plans.cache import ResultCache
from repro.plans.cost import CostModel
from repro.plans.execute import ExecutionReport, Executor
from repro.plans.nodes import Plan, SourceQuery, UnionPlan
from repro.plans.parallel import ParallelExecutor
from repro.plans.retry import RetryPolicy
from repro.query import TargetQuery
from repro.source.metering import MeterSnapshot
from repro.source.source import CapabilitySource


def _make_executor(
    catalog: dict[str, CapabilitySource],
    parallel_workers: int | None = None,
    **kwargs,
) -> Executor:
    """The group's long-lived executor: serial, or parallel when asked."""
    if parallel_workers is None:
        return Executor(catalog, **kwargs)
    return ParallelExecutor(catalog, max_workers=parallel_workers, **kwargs)


def _check_same_attributes(sources: list[CapabilitySource], role: str) -> None:
    if len(sources) < 2:
        raise SchemaError(f"a {role} group needs at least two sources")
    names = {s.name for s in sources}
    if len(names) != len(sources):
        raise SchemaError(f"duplicate source names in {role} group")
    first = set(sources[0].schema.attribute_names)
    for source in sources[1:]:
        if set(source.schema.attribute_names) != first:
            raise SchemaError(
                f"{role} group members must share an attribute set; "
                f"{source.name!r} differs from {sources[0].name!r}"
            )


@dataclass
class MirrorChoice:
    """Outcome of mirror planning: which mirror won and all the options."""

    chosen: PlanningResult | None
    per_source: dict[str, PlanningResult]

    @property
    def feasible(self) -> bool:
        return self.chosen is not None and self.chosen.feasible


class MirrorFailover:
    """Re-plans a failed source query against the surviving mirrors.

    The executor hands us the :class:`SourceQuery` that died and the set
    of sources already known to be down; because every mirror holds the
    same data, the query can be re-targeted at any survivor whose form
    can express it.  The cheapest feasible re-plan wins.
    """

    def __init__(self, group: "MirrorGroup"):
        self.group = group

    def replan(self, query: SourceQuery,
               failed: frozenset[str]) -> Plan | None:
        choice = self.group.plan(
            TargetQuery(query.condition, query.attrs, query.source),
            skip=failed,
        )
        return choice.chosen.plan if choice.feasible else None


class MirrorGroup:
    """The same logical relation served by several sources."""

    def __init__(
        self,
        sources: list[CapabilitySource],
        planner: Planner | None = None,
        k1: float = 100.0,
        k2: float = 1.0,
        per_source_constants: dict[str, tuple[float, float]] | None = None,
        cache: ResultCache | None = None,
        retry_policy: RetryPolicy | None = None,
        parallel_workers: int | None = None,
    ):
        """``cache`` (shared across every ``ask``) and ``retry_policy``
        configure the group's single long-lived executor; mirrors double
        as failover targets for each other automatically.
        ``parallel_workers`` makes that executor parallel."""
        _check_same_attributes(sources, "mirror")
        self.sources = {s.name: s for s in sources}
        self.planner = planner if planner is not None else GenCompact()
        self._cost_model = CostModel(
            {s.name: s.stats for s in sources},
            k1,
            k2,
            per_source=per_source_constants,
        )
        self.cache = cache
        self._executor = _make_executor(
            self.sources,
            cache=cache,
            retry_policy=retry_policy,
            failover=MirrorFailover(self),
            cost_model=self._cost_model,
            parallel_workers=parallel_workers,
        )

    def plan(self, query: TargetQuery,
             skip: frozenset[str] = frozenset()) -> MirrorChoice:
        """Plan against every mirror not in ``skip``; keep the cheapest
        feasible plan.

        ``query.source`` is ignored (the group *is* the logical source);
        each per-mirror attempt retargets the query.
        """
        per_source: dict[str, PlanningResult] = {}
        best: PlanningResult | None = None
        for name, source in self.sources.items():
            if name in skip:
                continue
            retargeted = TargetQuery(query.condition, query.attributes, name)
            result = self.planner.plan(retargeted, source, self._cost_model)
            per_source[name] = result
            if result.feasible and (best is None or result.cost < best.cost):
                best = result
        return MirrorChoice(best, per_source)

    def ask(self, query: TargetQuery) -> ExecutionReport:
        """Plan across the mirrors and execute the winning plan.

        Executes through the group's shared executor, so results are
        cached across calls and a mirror dying mid-execution fails over
        to a surviving one (report.failovers counts the re-routes).
        """
        choice = self.plan(query)
        if not choice.feasible:
            raise InfeasiblePlanError(
                f"no mirror of the group can answer {query}"
            )
        return self._executor.execute_with_report(choice.chosen.plan)

    def cost_model(self) -> CostModel:
        return self._cost_model


@dataclass
class PartitionPlan:
    """Outcome of partition planning: a union over per-partition plans."""

    plan: Plan | None
    cost: float
    per_source: dict[str, PlanningResult]
    infeasible_partitions: list[str]

    @property
    def feasible(self) -> bool:
        return self.plan is not None


@dataclass
class PartialAnswer:
    """A flagged, possibly incomplete answer from a partitioned source.

    ``complete`` is True only when every partition contributed;
    ``missing_partitions`` names the slices whose tuples are absent
    (down after retries, or unable to express the query at all).
    """

    result: Relation
    complete: bool
    missing_partitions: list[str] = field(default_factory=list)
    report: ExecutionReport | None = None

    @property
    def rows(self) -> list[dict]:
        return self.result.rows


class PartitionedSource:
    """A logical relation horizontally partitioned across sources."""

    def __init__(
        self,
        sources: list[CapabilitySource],
        planner: Planner | None = None,
        k1: float = 100.0,
        k2: float = 1.0,
        cache: ResultCache | None = None,
        retry_policy: RetryPolicy | None = None,
        parallel_workers: int | None = None,
    ):
        """``cache`` and ``retry_policy`` configure the group's single
        long-lived executor (shared across every ``ask``);
        ``parallel_workers`` makes it parallel, so the per-partition
        slices of a union plan are fetched concurrently."""
        _check_same_attributes(sources, "partition")
        self.sources = {s.name: s for s in sources}
        self.planner = planner if planner is not None else GenCompact()
        self._cost_model = CostModel(
            {s.name: s.stats for s in sources}, k1, k2
        )
        self.cache = cache
        self._executor = _make_executor(
            self.sources,
            cache=cache,
            retry_policy=retry_policy,
            cost_model=self._cost_model,
            parallel_workers=parallel_workers,
        )

    def plan(self, query: TargetQuery) -> PartitionPlan:
        """One plan per partition, combined by union.

        Every partition must be plannable: a partition that cannot
        answer the query makes the whole query infeasible (answering
        from the other partitions would silently drop tuples).
        """
        per_source: dict[str, PlanningResult] = {}
        plans: list[Plan] = []
        infeasible: list[str] = []
        total = 0.0
        for name, source in self.sources.items():
            retargeted = TargetQuery(query.condition, query.attributes, name)
            result = self.planner.plan(retargeted, source, self._cost_model)
            per_source[name] = result
            if result.feasible:
                plans.append(result.plan)
                total += result.cost
            else:
                infeasible.append(name)
        if infeasible:
            return PartitionPlan(None, float("inf"), per_source, infeasible)
        plan: Plan = plans[0] if len(plans) == 1 else UnionPlan(plans)
        return PartitionPlan(plan, total, per_source, [])

    def ask(self, query: TargetQuery, partial: bool = False
            ) -> ExecutionReport | PartialAnswer:
        """Plan and execute across all partitions.

        By default the usual all-or-nothing semantics: raise if any
        partition cannot answer (at planning time) and propagate any
        execution failure.  With ``partial=True`` the query degrades
        gracefully -- unplannable or dead partitions are dropped and a
        :class:`PartialAnswer` flags exactly what is missing.  At least
        one partition must answer; losing all of them still raises.
        """
        if partial:
            return self._ask_partial(query)
        outcome = self.plan(query)
        if outcome.plan is None:
            raise InfeasiblePlanError(
                "partitions without a feasible plan: "
                + ", ".join(outcome.infeasible_partitions)
            )
        return self._executor.execute_with_report(outcome.plan)

    def _ask_partial(self, query: TargetQuery) -> PartialAnswer:
        """Per-partition execution, skipping slices that are down."""
        missing: list[str] = []
        merged: Relation | None = None
        reports: list[ExecutionReport] = []
        for name, source in self.sources.items():
            retargeted = TargetQuery(query.condition, query.attributes, name)
            planned = self.planner.plan(retargeted, source, self._cost_model)
            if not planned.feasible:
                missing.append(name)
                continue
            try:
                report = self._executor.execute_with_report(planned.plan)
            except TransientSourceError:
                missing.append(name)
                continue
            reports.append(report)
            merged = report.result if merged is None \
                else merged.union(report.result)
        if merged is None:
            raise InfeasiblePlanError(
                "no partition could answer the query (missing: "
                + ", ".join(missing) + ")"
            )
        per_source: dict[str, MeterSnapshot] = {}
        for report in reports:
            for name, delta in report.per_source.items():
                existing = per_source.get(name)
                per_source[name] = delta if existing is None \
                    else existing + delta
        combined = ExecutionReport(
            merged,
            sum(r.queries for r in reports),
            sum(r.tuples_transferred for r in reports),
            attempts=sum(r.attempts for r in reports),
            retries=sum(r.retries for r in reports),
            failovers=sum(r.failovers for r in reports),
            backoff_seconds=sum(r.backoff_seconds for r in reports),
            duration_seconds=sum(r.duration_seconds for r in reports),
            per_source=per_source,
            call_seconds=tuple(s for r in reports for s in r.call_seconds),
            coalesced_hits=sum(r.coalesced_hits for r in reports),
        )
        return PartialAnswer(merged, not missing, missing, combined)

    def cost_model(self) -> CostModel:
        return self._cost_model


def merge_stats(results: dict[str, PlanningResult]) -> PlannerStats:
    """Aggregate planner stats across a group (for experiment reporting)."""
    merged = PlannerStats()
    for result in results.values():
        merged.merge(result.stats)
    return merged
