"""Unit tests for the Eq. 1 cost model and Choice resolution."""

import math

import pytest

from repro.conditions.parser import parse_condition
from repro.errors import PlanExecutionError
from repro.plans.cost import (
    CostModel,
    count_concrete,
    enumerate_concrete,
)
from repro.plans.nodes import (
    Postprocess,
    SourceQuery,
    UnionPlan,
    make_choice,
)


@pytest.fixture
def model(example41):
    return CostModel({example41.name: example41.stats}, k1=100.0, k2=1.0)


def sq(text, attrs=("model",), source="cars"):
    return SourceQuery(parse_condition(text), frozenset(attrs), source)


class TestCost:
    def test_source_query_cost(self, model, example41):
        plan = sq("make = 'BMW' and price < 40000")
        rows = example41.stats.estimated_rows(plan.condition)
        assert model.cost(plan) == pytest.approx(100 + rows)

    def test_download_counts_full_relation(self, model, example41):
        plan = sq("true")
        assert model.cost(plan) == pytest.approx(100 + len(example41.relation))

    def test_additive_over_source_queries(self, model):
        plan = UnionPlan(
            [sq("make = 'BMW' and price < 40000"),
             sq("make = 'Toyota' and price < 40000")]
        )
        assert model.cost(plan) == pytest.approx(
            model.cost(plan.children[0]) + model.cost(plan.children[1])
        )

    def test_postprocessing_is_free(self, model):
        inner = sq("make = 'BMW' and price < 40000", attrs=("model", "color"))
        wrapped = Postprocess(
            parse_condition("color = 'red'"), frozenset({"model"}), inner
        )
        assert model.cost(wrapped) == model.cost(inner)

    def test_none_is_infinite(self, model):
        assert model.cost(None) == math.inf

    def test_unknown_source_raises(self, model):
        with pytest.raises(PlanExecutionError):
            model.cost(sq("make = 'BMW' and price < 1", source="ghost"))

    def test_per_source_constants(self, example41):
        model = CostModel(
            {example41.name: example41.stats},
            k1=100.0,
            k2=1.0,
            per_source={"cars": (5.0, 2.0)},
        )
        plan = sq("make = 'BMW' and price < 40000")
        rows = example41.stats.estimated_rows(plan.condition)
        assert model.cost(plan) == pytest.approx(5 + 2 * rows)

    def test_choice_costs_cheapest_branch(self, model):
        cheap = sq("make = 'BMW' and price < 40000")
        expensive = sq("true")
        choice = make_choice([cheap, expensive])
        assert model.cost(choice) == model.cost(cheap)

    def test_cheaper_helper(self, model):
        cheap = sq("make = 'BMW' and price < 40000")
        expensive = sq("true")
        assert model.cheaper(cheap, expensive) is cheap
        assert model.cheaper(None, cheap) is cheap
        assert model.cheaper(cheap, None) is cheap
        assert model.cheaper(None, None) is None


class TestResolve:
    def test_resolve_picks_cheapest(self, model):
        cheap = sq("make = 'BMW' and price < 40000")
        choice = make_choice([cheap, sq("true")])
        assert model.resolve(choice) == cheap

    def test_resolve_recurses_into_composites(self, model):
        cheap = sq("make = 'BMW' and price < 40000", attrs=("model", "color"))
        choice = make_choice(
            [cheap, sq("true", attrs=("model", "color"))]
        )
        wrapped = Postprocess(
            parse_condition("color = 'red'"), frozenset({"model"}), choice
        )
        resolved = model.resolve(wrapped)
        assert resolved.is_concrete
        assert resolved.input == cheap

    def test_resolve_none(self, model):
        assert model.resolve(None) is None


class TestEnumerationAndCounting:
    def test_count_concrete(self, model):
        c1 = sq("make = 'BMW' and price < 40000")
        c2 = sq("make = 'Toyota' and price < 40000")
        c3 = sq("true")
        choice = make_choice([c1, c3])
        union = UnionPlan([choice, make_choice([c2, c3])])
        assert count_concrete(c1) == 1
        assert count_concrete(choice) == 2
        assert count_concrete(union) == 4
        assert count_concrete(None) == 0

    def test_enumerate_concrete_matches_count(self, model):
        c1 = sq("make = 'BMW' and price < 40000")
        c2 = sq("make = 'Toyota' and price < 40000")
        c3 = sq("true")
        union = UnionPlan([make_choice([c1, c3]), make_choice([c2, c3])])
        plans = list(enumerate_concrete(union))
        assert len(plans) == 4
        assert all(p.is_concrete for p in plans)
        assert len(set(plans)) == 4

    def test_enumerate_respects_limit(self, model):
        c1 = sq("make = 'BMW' and price < 40000")
        c3 = sq("true")
        union = UnionPlan([make_choice([c1, c3]), make_choice([c1, c3])])
        with pytest.raises(PlanExecutionError):
            list(enumerate_concrete(union, limit=3))

    def test_min_over_enumeration_equals_resolve(self, model):
        c1 = sq("make = 'BMW' and price < 40000")
        c2 = sq("make = 'Toyota' and price < 40000")
        c3 = sq("true")
        union = UnionPlan([make_choice([c1, c3]), make_choice([c2, c3])])
        best = min(enumerate_concrete(union), key=model.cost)
        assert model.cost(best) == pytest.approx(model.cost(model.resolve(union)))
