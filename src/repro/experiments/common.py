"""Shared plumbing for the experiment suite."""

from __future__ import annotations

from repro.planners.base import Planner, PlanningResult
from repro.planners.baselines import (
    CNFPlanner,
    DiscoPlanner,
    DNFPlanner,
    NaivePlanner,
)
from repro.planners.gencompact import GenCompact
from repro.planners.genmodular import GenModular
from repro.plans.cost import CostModel
from repro.query import TargetQuery
from repro.source.source import CapabilitySource

#: The paper's cost constants used throughout the experiments.
K1 = 100.0
K2 = 1.0


def cost_model_for(source: CapabilitySource) -> CostModel:
    return CostModel({source.name: source.stats}, K1, K2)


def default_planners(genmodular_budget: int = 60) -> list[Planner]:
    """The scheme lineup the plan-quality experiments compare."""
    return [
        GenCompact(),
        GenModular(max_rewrites=genmodular_budget),
        CNFPlanner(),
        DNFPlanner(),
        DiscoPlanner(),
        NaivePlanner(),
    ]


def plan_with(
    planner: Planner, query: TargetQuery, source: CapabilitySource
) -> PlanningResult:
    return planner.plan(query, source, cost_model_for(source))
