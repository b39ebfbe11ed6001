"""Common planner infrastructure: interface, stats, counting Check wrapper.

Every plan-generation scheme in this package (GenModular, GenCompact and
the four baseline strategies) implements :class:`Planner` and returns a
:class:`PlanningResult`, so experiments can swap schemes freely.

:class:`PlannerStats` carries the counters the paper's evaluation is
about -- how many condition trees were processed, how many (sub-)plans
were examined, how many Check calls were made -- plus wall-clock time.
"""

from __future__ import annotations

import logging
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.conditions.tree import Condition
from repro.observability.metrics import get_metrics
from repro.observability.trace import (
    get_tracer,
    trace_event,
    wants_trace_event,
)
from repro.planners.certificate import Certificate, certify
from repro.plans.cost import CostModel, INFINITE_COST
from repro.plans.nodes import Plan
from repro.query import TargetQuery
from repro.source.source import CapabilitySource
from repro.ssdl.description import CheckResult, SourceDescription

logger = logging.getLogger(__name__)


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
    #: CTs GenCompact skipped before IPG because they permute the
    #: children of a CT it already planned (order-free descriptions);
    #: ``cts_processed`` counts the CTs planned.
    cts_commuted: int = 0
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
    #: Runs the description's signatures proved infeasible before any
    #: rewriting, Check or plan generation, or once the original tree had
    #: no plan (``PlanningResult.witness``); runs whose first plan met the
    #: cost floor, so the rewrite module was skipped, or whose later CTs
    #: stopped at it (GenCompact only).
    certified_infeasible: int = 0
    rewrite_skipped: int = 0
    rewrite_stopped: int = 0
    elapsed_sec: float = 0.0

    def merge(self, other: "PlannerStats") -> None:
        self.cts_processed += other.cts_processed
        self.cts_commuted += other.cts_commuted
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
        self.certified_infeasible += other.certified_infeasible
        self.rewrite_skipped += other.rewrite_skipped
        self.rewrite_stopped += other.rewrite_stopped
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
    #: For a run certified infeasible: a DNF term of the condition that
    #: no query the source accepts can return rows for, with the
    #: projection asked.  None when a search came back empty-handed.
    witness: Condition | None = None
    #: The atom of the witness no query can push or filter on, when a
    #: per-atom witness proved the run infeasible.
    witness_atom: Condition | None = None

    @property
    def feasible(self) -> bool:
        return self.plan is not None

    def why_infeasible(self) -> str:
        """One sentence on why no plan exists (empty for a feasible
        result, or when the search simply found nothing)."""
        if self.witness is None:
            return ""
        why = (
            "no query the source's form accepts can return rows matching "
            f"`{self.witness}` with "
            f"{{{', '.join(sorted(self.query.attributes))}}}"
        )
        if self.witness_atom is not None:
            why += (f": `{self.witness_atom}` can be neither pushed to the "
                    "source nor filtered at the mediator")
        return why

    def describe(self) -> str:
        from repro.plans.printer import to_paper_notation

        status = f"cost={self.cost:.1f}" if self.feasible else "INFEASIBLE"
        text = f"[{self.planner}] {status}: {to_paper_notation(self.plan)}"
        why = self.why_infeasible()
        return f"{text} -- {why}" if why else text


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
        """Helper: run ``fn()`` -> (plan, stats, cost_model) and wrap
        with timing/cost."""
        started = time.perf_counter()
        plan, stats, cost_model = fn()
        stats.elapsed_sec = time.perf_counter() - started
        cost = cost_model.cost(plan) if plan is not None else INFINITE_COST
        return PlanningResult(self.name, query, plan, cost, stats)

    def _searched(
        self,
        query: TargetQuery,
        source: CapabilitySource,
        description: SourceDescription,
        search: Callable[
            [CheckCounter, PlannerStats, Certificate | None], Found],
    ) -> PlanningResult:
        """The frame GenCompact and GenModular share around their search:
        the ``planner.plan`` span, the certificate preamble, the Check
        accounting and the ``planner.planned`` event.

        ``search(checker, stats, certificate)`` runs the scheme's
        rewrite + generate modules and returns ``(best plan, its cost,
        rewrite budget spent)``.  It is not called at all when the
        description's signatures certify that no plan exists
        (:mod:`repro.planners.certificate`): the result is infeasible
        and carries the witness -- as it does when the search itself
        finds one (:meth:`Certificate.refute_by_atom`).
        """
        started = time.perf_counter()
        stats = PlannerStats()
        tracer = get_tracer()
        attributes = {
            "planner": self.name, "query": query.text, "source": source.name,
        } if tracer.enabled else {}
        with tracer.span("planner.plan", **attributes) as plan_span:
            checker = CheckCounter(description)
            certificate = certify(query, description)
            plan, cost, rewrite_steps = None, INFINITE_COST, 0
            if certificate is None or certificate.witness is None:
                plan, cost, rewrite_steps = search(checker, stats, certificate)
            witness, atom = (None, None) if certificate is None else (
                certificate.witness, certificate.atom)
            if witness is not None:
                stats.certified_infeasible = 1
                get_metrics().counter("planner.certified_infeasible").inc()
            elif stats.rewrite_skipped:
                get_metrics().counter("planner.rewrite_skipped").inc()
            stats.check_calls = checker.calls
            stats.check_compiled = checker.compiled_answers
            stats.check_fallbacks = checker.fallbacks
            stats.check_prefiltered = checker.prefiltered
            plan_span.set_attributes(
                feasible=plan is not None,
                Q=stats.subplans_considered,
                pr1_fires=stats.pr1_fires,
                pr2_fires=stats.pr2_fires,
                pr3_fires=stats.pr3_fires,
                check_calls=stats.check_calls,
                check_prefiltered=stats.check_prefiltered,
                rewrite_budget_spent=rewrite_steps,
                certified_infeasible=stats.certified_infeasible,
                rewrite_skipped=stats.rewrite_skipped,
                rewrite_stopped=stats.rewrite_stopped,
            )
            if wants_trace_event(logger, logging.DEBUG):
                trace_event(
                    logger, logging.DEBUG,
                    "%s planned %s: %d CTs (truncated=%s), %d Check calls, "
                    "best cost %s",
                    self.name, query, stats.cts_processed,
                    stats.rewrite_truncated, stats.check_calls,
                    f"{cost:.1f}" if plan is not None else "infeasible",
                    event="planner.planned", planner=self.name,
                    cts_processed=stats.cts_processed,
                    check_calls=stats.check_calls,
                    feasible=plan is not None,
                    cost=cost if plan is not None else None,
                )
        stats.elapsed_sec = time.perf_counter() - started
        return PlanningResult(
            self.name, query, plan,
            cost if plan is not None else INFINITE_COST, stats,
            witness=witness, witness_atom=atom,
        )


#: What a scheme's search hands back to :meth:`Planner._searched`: the
#: best plan found (or None), its cost, the rewrite budget it spent.
Found = tuple[Plan | None, float, int]
