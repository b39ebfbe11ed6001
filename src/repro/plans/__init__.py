"""Mediator plan algebra, cost model, feasibility checking and execution."""

from repro.plans.cost import (
    INFINITE_COST,
    BottleneckCostModel,
    CostModel,
    count_concrete,
    enumerate_concrete,
)
from repro.plans.execute import (
    ExecutionReport,
    Executor,
    FailoverTarget,
    make_executor,
    reference_answer,
)
from repro.plans.async_exec import AsyncExecutor
from repro.plans.coalesce import CoalesceStats, RequestCoalescer
from repro.plans.feasible import FeasibilityReport, validate_plan
from repro.plans.parallel import ParallelExecutor
from repro.plans.retry import RetryPolicy
from repro.plans.nodes import (
    ChoicePlan,
    IntersectPlan,
    Plan,
    Postprocess,
    SourceQuery,
    UnionPlan,
    download_plan,
    make_choice,
    sp,
)
from repro.cache import CacheStats
from repro.plans.cache import ResultCache
from repro.plans.printer import explain, explain_dict, to_paper_notation

__all__ = [
    "Plan",
    "SourceQuery",
    "Postprocess",
    "UnionPlan",
    "IntersectPlan",
    "ChoicePlan",
    "sp",
    "make_choice",
    "download_plan",
    "CostModel",
    "BottleneckCostModel",
    "INFINITE_COST",
    "enumerate_concrete",
    "count_concrete",
    "Executor",
    "make_executor",
    "ParallelExecutor",
    "AsyncExecutor",
    "RequestCoalescer",
    "CoalesceStats",
    "ExecutionReport",
    "FailoverTarget",
    "RetryPolicy",
    "reference_answer",
    "validate_plan",
    "FeasibilityReport",
    "explain",
    "explain_dict",
    "to_paper_notation",
    "ResultCache",
    "CacheStats",
]
