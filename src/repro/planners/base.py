"""Common planner infrastructure: interface, stats, counting Check wrapper.

Every plan-generation scheme in this package (GenModular, GenCompact and
the four baseline strategies) implements :class:`Planner` and returns a
:class:`PlanningResult`, so experiments can swap schemes freely.

:class:`PlannerStats` carries the counters the paper's evaluation is
about -- how many condition trees were processed, how many (sub-)plans
were examined, how many Check calls were made -- plus wall-clock time.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.conditions.tree import Condition
from repro.plans.cost import CostModel, INFINITE_COST
from repro.plans.nodes import Plan
from repro.query import TargetQuery
from repro.source.source import CapabilitySource
from repro.ssdl.description import CheckResult, SourceDescription


@dataclass
class PlannerStats:
    """Counters describing the work a planning run performed.

    ``pr1_fires``/``pr2_fires``/``pr3_fires`` count how often each of
    the paper's pruning rules actually cut something -- PR1 returning
    a pure plan early (or skipping a dominated recursion), PR2
    discarding a non-cheapest sub-plan for a covered subset, PR3
    dropping a dominated cover candidate.  They are what benchmark E5
    ablates and what the planner-phase trace spans surface.
    """

    cts_processed: int = 0
    plans_considered: int = 0
    subplans_considered: int = 0
    check_calls: int = 0
    #: Cache-missing Checks this run answered with the compiled
    #: (token-trie) recognizer vs. ones that fell back to Earley
    #: although a compiled form exists (condition beyond the horizon)
    #: vs. ones answered ∅ before either (an atom no template matches).
    check_compiled: int = 0
    check_fallbacks: int = 0
    check_prefiltered: int = 0
    recursive_calls: int = 0
    mcsc_sets: int = 0
    mcsc_problems: int = 0
    pr1_fires: int = 0
    pr2_fires: int = 0
    pr3_fires: int = 0
    rewrite_truncated: bool = False
    elapsed_sec: float = 0.0

    def merge(self, other: "PlannerStats") -> None:
        self.cts_processed += other.cts_processed
        self.plans_considered += other.plans_considered
        self.subplans_considered += other.subplans_considered
        self.check_calls += other.check_calls
        self.check_compiled += other.check_compiled
        self.check_fallbacks += other.check_fallbacks
        self.check_prefiltered += other.check_prefiltered
        self.recursive_calls += other.recursive_calls
        self.mcsc_sets += other.mcsc_sets
        self.mcsc_problems += other.mcsc_problems
        self.pr1_fires += other.pr1_fires
        self.pr2_fires += other.pr2_fires
        self.pr3_fires += other.pr3_fires
        self.rewrite_truncated = self.rewrite_truncated or other.rewrite_truncated
        self.elapsed_sec += other.elapsed_sec


@dataclass
class PlanningResult:
    """Outcome of planning one target query with one scheme."""

    planner: str
    query: TargetQuery
    plan: Plan | None
    cost: float
    stats: PlannerStats = field(default_factory=PlannerStats)
    #: Catalog version this result was planned (or rebound) under; set
    #: by the mediator so drift oracles can prove no stale plan is ever
    #: served (``None`` for results planned outside a mediator).
    catalog_version: int | None = None

    @property
    def feasible(self) -> bool:
        return self.plan is not None

    def describe(self) -> str:
        from repro.plans.printer import to_paper_notation

        status = f"cost={self.cost:.1f}" if self.feasible else "INFEASIBLE"
        return f"[{self.planner}] {status}: {to_paper_notation(self.plan)}"


class CheckCounter:
    """Counts ``Check`` requests a planner issues against a description.

    The description itself caches results; this wrapper counts *requests*
    (the planner-side work metric the paper's evaluation reports) while
    the description's own ``check_calls`` counts cache misses -- each
    answered by the compiled recognizer, by Earley, or prefiltered.
    """

    def __init__(self, description: SourceDescription):
        self.description = description
        self.calls = 0
        self._compiled_before = description.check_compiled
        self._fallbacks_before = description.check_fallbacks
        self._prefiltered_before = description.check_prefiltered

    def check(self, condition: Condition) -> CheckResult:
        self.calls += 1
        return self.description.check(condition)

    def supports(self, condition: Condition, attributes) -> bool:
        return self.check(condition).supports(attributes)

    @property
    def compiled_answers(self) -> int:
        """Description-side compiled-recognizer answers since this
        counter was created (approximate under concurrent planners)."""
        return self.description.check_compiled - self._compiled_before

    @property
    def fallbacks(self) -> int:
        """Description-side Earley fallbacks since this counter was
        created (approximate under concurrent planners)."""
        return self.description.check_fallbacks - self._fallbacks_before

    @property
    def prefiltered(self) -> int:
        """Description-side prefiltered answers since this counter was
        created (approximate under concurrent planners)."""
        return self.description.check_prefiltered - self._prefiltered_before


class Planner(ABC):
    """A plan-generation scheme."""

    #: Human-readable scheme name (used in experiment tables).
    name: str = "planner"

    @abstractmethod
    def plan(
        self,
        query: TargetQuery,
        source: CapabilitySource,
        cost_model: CostModel,
    ) -> PlanningResult:
        """Generate the best feasible plan for ``query`` (or None)."""

    def _timed(self, fn, query: TargetQuery) -> PlanningResult:
        """Helper: run ``fn()`` -> (plan, stats) and wrap with timing/cost."""
        started = time.perf_counter()
        plan, stats, cost_model = fn()
        stats.elapsed_sec = time.perf_counter() - started
        cost = cost_model.cost(plan) if plan is not None else INFINITE_COST
        return PlanningResult(self.name, query, plan, cost, stats)
