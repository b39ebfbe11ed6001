"""Parameterized plan templates: skeleton keys, rebinding, the mediator.

The exact canonical cache only helps when a query repeats *constants
included*; :class:`~repro.serving.PlanTemplates` keys on the
constant-stripped skeleton so constant-varying respellings of one query
shape cost a validated substitution instead of a planning run.  These
tests pin the key semantics, the store/instantiate/reject life cycle,
versioned invalidation, and the mediator integration (template hit
promoted to an exact entry).
"""

from __future__ import annotations

from repro.conditions.parser import parse_condition
from repro.mediator.mediator import Mediator
from repro.planners.base import PlanningResult
from repro.plans.cost import CostModel
from repro.query import TargetQuery
from repro.serving.plan_cache import PlanTemplates, template_cache_key

from tests.conftest import make_example41_source

ATTRS = frozenset({"make", "model"})


def _query(text: str, source: str = "cars") -> TargetQuery:
    return TargetQuery(parse_condition(text), ATTRS, source)


class TestTemplateKey:
    def test_constant_respellings_collide(self):
        a = template_cache_key(
            parse_condition("make = 'BMW' and price < 40000"), ATTRS, "cars"
        )
        b = template_cache_key(
            parse_condition("make = 'Audi' and price < 9000"), ATTRS, "cars"
        )
        assert a == b

    def test_shape_projection_source_and_scheme_separate(self):
        base = template_cache_key(
            parse_condition("make = 'BMW' and price < 1"), ATTRS, "cars"
        )
        assert base != template_cache_key(
            parse_condition("make = 'BMW' or price < 1"), ATTRS, "cars"
        )
        assert base != template_cache_key(
            parse_condition("make = 'BMW' and price < 1"),
            frozenset({"model"}), "cars",
        )
        assert base != template_cache_key(
            parse_condition("make = 'BMW' and price < 1"), ATTRS, "other"
        )
        assert base != template_cache_key(
            parse_condition("make = 'BMW' and price < 1"), ATTRS, "cars",
            scheme="genmodular",
        )

    def test_constant_class_is_part_of_the_skeleton(self):
        # A string constant and a numeric constant in the same slot are
        # different templates -- rebinding across classes is never legal.
        a = template_cache_key(parse_condition("make = 'BMW'"), ATTRS, "cars")
        b = template_cache_key(parse_condition("make = 7"), ATTRS, "cars")
        assert a != b


class TestPlanTemplatesStore:
    def _planned(self, source, text: str) -> PlanningResult:
        from repro.planners.gencompact import GenCompact

        cost_model = CostModel({source.name: source.stats})
        return GenCompact().plan(_query(text), source, cost_model)

    def test_rebinds_and_counts_hit(self):
        source = make_example41_source()
        cost_model = CostModel({source.name: source.stats})
        templates = PlanTemplates(metrics_prefix="test.template_cache")
        first = self._planned(source, "make = 'BMW' and price < 40000")
        key = templates.key(first.query)
        templates.store(key, first.query.condition, first)

        query = _query("make = 'Toyota' and price < 20000")
        rebound = templates.instantiate(
            templates.key(query), query, source, cost_model
        )
        assert rebound is not None
        assert rebound.planner.endswith("+template")
        assert rebound.feasible
        conditions = [q.condition for q in rebound.plan.source_queries()]
        assert query.condition in conditions
        assert templates.hits == 1
        assert templates.rejected == 0

    def test_miss_returns_none(self):
        source = make_example41_source()
        cost_model = CostModel({source.name: source.stats})
        templates = PlanTemplates(metrics_prefix="test.template_cache")
        query = _query("make = 'BMW' and price < 40000")
        assert templates.instantiate(
            templates.key(query), query, source, cost_model
        ) is None
        assert templates.stats.misses == 1
        assert templates.hits == 0

    def test_infeasible_results_are_not_stored(self):
        templates = PlanTemplates(metrics_prefix="test.template_cache")
        query = _query("year = 1999")
        infeasible = PlanningResult("gencompact", query, None, float("inf"))
        templates.store(templates.key(query), query.condition, infeasible)
        assert len(templates) == 0

    def test_first_feasible_template_wins(self):
        source = make_example41_source()
        templates = PlanTemplates(metrics_prefix="test.template_cache")
        first = self._planned(source, "make = 'BMW' and price < 40000")
        second = self._planned(source, "make = 'Honda' and price < 15000")
        key = templates.key(first.query)
        templates.store(key, first.query.condition, first)
        templates.store(key, second.query.condition, second)
        assert len(templates) == 1
        cost_model = CostModel({source.name: source.stats})
        query = _query("make = 'Toyota' and price < 20000")
        rebound = templates.instantiate(key, query, source, cost_model)
        # The stored template is still the first one (its constants were
        # BMW/40000), so the rebinding maps BMW -> Toyota.
        assert rebound is not None

    def test_version_bump_invalidates(self):
        source = make_example41_source()
        cost_model = CostModel({source.name: source.stats})
        templates = PlanTemplates(metrics_prefix="test.template_cache")
        first = self._planned(source, "make = 'BMW' and price < 40000")
        key = templates.key(first.query)
        templates.store(key, first.query.condition, first, version=1)
        query = _query("make = 'Toyota' and price < 20000")
        assert templates.instantiate(key, query, source, cost_model,
                                     version=2) is None
        assert templates.stats.invalidations == 1


class TestMediatorTemplates:
    def _mediator(self, **kwargs) -> Mediator:
        mediator = Mediator(plan_cache_entries=64, **kwargs)
        mediator.add_source(make_example41_source())
        return mediator

    def test_constant_respelling_hits_the_template(self):
        mediator = self._mediator()
        first = mediator.plan(
            "select make, model from cars where make = 'BMW' and price < 40000"
        )
        assert first.feasible
        second = mediator.plan(
            "select make, model from cars where make = 'Toyota' and price < 20000"
        )
        assert second.planner.endswith("+template")
        assert mediator.plan_templates.hits == 1

    def test_template_hit_is_promoted_to_exact_entry(self):
        mediator = self._mediator()
        mediator.plan(
            "select make, model from cars where make = 'BMW' and price < 40000"
        )
        text = "select make, model from cars where make = 'Toyota' and price < 20000"
        rebound = mediator.plan(text)
        again = mediator.plan(text)
        assert again is rebound  # exact canonical hit, not a re-rebind
        assert mediator.plan_templates.hits == 1

    def test_template_answers_match_fresh_planning(self):
        mediator = self._mediator()
        fresh = Mediator()
        fresh.add_source(make_example41_source())
        mediator.ask(
            "select make, model from cars where make = 'BMW' and price < 40000"
        )
        text = "select make, model from cars where make = 'Toyota' and price < 20000"
        assert (mediator.ask(text).result.as_row_set()
                == fresh.ask(text).result.as_row_set())
        assert mediator.plan_templates.hits == 1

    def test_add_source_invalidates_templates(self):
        mediator = self._mediator()
        mediator.plan(
            "select make, model from cars where make = 'BMW' and price < 40000"
        )
        mediator.add_source(make_example41_source("cars2"))
        second = mediator.plan(
            "select make, model from cars where make = 'Toyota' and price < 20000"
        )
        assert not second.planner.endswith("+template")
        assert mediator.plan_templates.stats.invalidations >= 1

    def test_add_source_compiles_capabilities(self):
        mediator = self._mediator()
        assert mediator.source("cars").compiled
        # The catalog bump from a second add_source triggers a lazy
        # recompile of existing sources at the next plan.
        source = mediator.source("cars")
        source.invalidate_compiled()
        mediator.add_source(make_example41_source("cars2"))
        mediator.plan(
            "select make, model from cars where make = 'BMW' and price < 40000"
        )
        assert source.compiled


def test_wrapper_compiles_its_source():
    from repro.wrapper import Wrapper

    source = make_example41_source()
    wrapper = Wrapper(source)
    assert source.compiled
    result = wrapper.plan("make = 'BMW' and price < 40000", ["model"])
    assert result.stats.check_compiled > 0
