"""X1 (extension, not in the paper): wrapper plan-template reuse.

Section 2 argues wrappers must embed a GenCompact-like scheme.  A
wrapper serves many instances of the same query template; this bench
measures the payoff of instantiating a cached same-skeleton plan
(substitute constants + re-validate) instead of replanning, and asserts
the two paths return plans of identical shape.  The "without reuse"
arm runs GenCompact on every instance.
"""

from repro.conditions.parser import parse_condition
from repro.experiments.common import cost_model_for
from repro.planners.gencompact import GenCompact
from repro.query import TargetQuery
from repro.source.library import car_guide
from repro.wrapper import Wrapper

_SOURCE = car_guide(n=2000)

_TEMPLATE = (
    "style = 'sedan' and (size = 'compact' or size = 'midsize') and "
    "make = '{make}' and price <= {price}"
)
_INSTANCES = [
    parse_condition(_TEMPLATE.format(make=make, price=price))
    for make in ("Toyota", "BMW", "Honda", "Ford", "Mercedes", "Volkswagen")
    for price in (15000, 25000, 40000)
]
_ATTRS = ["id", "make", "model", "price"]


def _replan_all(source) -> list:
    """The "without reuse" arm: one GenCompact run per instance, over
    the compiled grammars a wrapper plans against."""
    if not source.capabilities_compiled:
        source.compile_capabilities()
    planner, model = GenCompact(), cost_model_for(source)
    return [
        planner.plan(TargetQuery(c, _ATTRS, source.name), source, model)
        for c in _INSTANCES
    ]


def test_x1_reuse_matches_replanning():
    with_reuse = Wrapper(car_guide(n=2000))
    for condition, planned in zip(_INSTANCES, _replan_all(car_guide(n=2000))):
        reused = with_reuse.plan(condition, _ATTRS)
        assert reused.feasible == planned.feasible
        if reused.feasible:
            assert len(list(reused.plan.source_queries())) == len(
                list(planned.plan.source_queries())
            )
    assert with_reuse.template_hits == len(_INSTANCES) - 1


def test_x1_bench_with_template_reuse(benchmark):
    def run():
        wrapper = Wrapper(_SOURCE)
        return [wrapper.plan(c, _ATTRS) for c in _INSTANCES]

    results = benchmark(run)
    assert all(r.feasible for r in results)


def test_x1_bench_without_template_reuse(benchmark):
    def run():
        return _replan_all(_SOURCE)

    results = benchmark(run)
    assert all(r.feasible for r in results)
