"""Unit tests for condition skeletons and template plan reuse."""

import pytest

from repro.conditions.parser import parse_condition
from repro.conditions.skeleton import Skeleton
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.planners.base import PlanningResult
from repro.plans.nodes import Postprocess, SourceQuery, UnionPlan
from repro.query import TargetQuery
from repro.serving.plan_cache import PlanTemplates
from repro.wrapper import Wrapper
from tests.conftest import make_example41_source


class TestSkeleton:
    def test_same_template_different_constants(self):
        a = parse_condition("make = 'BMW' and price < 40000")
        b = parse_condition("make = 'Audi' and price < 15000")
        assert Skeleton.of(a).template == Skeleton.of(b).template
        assert Skeleton.of(a).values == ("BMW", 40000)

    def test_different_shapes_differ(self):
        a = parse_condition("make = 'BMW' and price < 40000")
        b = parse_condition("make = 'BMW' or price < 40000")
        assert Skeleton.of(a).template != Skeleton.of(b).template

    def test_different_constant_classes_differ(self):
        a = parse_condition("make = 'BMW'")
        b = parse_condition("make = 5")
        assert Skeleton.of(a).template != Skeleton.of(b).template

    def test_bind_round_trip(self):
        condition = parse_condition("make = 'BMW' and (p < 5 or p < 9)")
        skeleton = Skeleton.of(condition)
        assert skeleton.bind(skeleton.values) == condition

    def test_bind_new_values(self):
        skeleton = Skeleton.of(parse_condition("make = 'BMW' and price < 1"))
        rebound = skeleton.bind(("Audi", 2))
        assert rebound == parse_condition("make = 'Audi' and price < 2")

    def test_bind_arity_checked(self):
        skeleton = Skeleton.of(parse_condition("make = 'BMW'"))
        with pytest.raises(Exception):
            skeleton.bind(("a", "b"))


class _AnySource:
    def supports(self, condition, attributes) -> bool:
        return True


class _FlatCost:
    def cost(self, plan) -> float:
        return 1.0


def _rebind(old, new, plan=None):
    """A template stored for ``old`` (planned as one source query over it
    unless ``plan`` is given), instantiated for ``new``: the rebound
    result, or None when the template store refuses the substitution."""
    attrs = frozenset({"model"})
    templates = PlanTemplates()
    stored = PlanningResult("p", TargetQuery(old, attrs, "cars"),
                            plan or SourceQuery(old, attrs, "cars"), 1.0)
    key = templates.key(stored.query)
    with use_metrics(MetricsRegistry()):
        templates.store(key, old, stored)
        return templates.instantiate(key, TargetQuery(new, attrs, "cars"),
                                     _AnySource(), _FlatCost())


class TestAtomSubstitution:
    def test_basic_mapping(self):
        old = parse_condition("make = 'BMW' and price < 40000")
        new = parse_condition("make = 'Audi' and price < 15000")
        plan = Postprocess(
            parse_condition("price < 40000"), frozenset({"model"}),
            SourceQuery(parse_condition("make = 'BMW'"),
                        frozenset({"model", "price"}), "cars"))
        rebound = _rebind(old, new, plan)
        assert rebound is not None
        assert [q.condition for q in rebound.plan.source_queries()] == [
            parse_condition("make = 'Audi'")]
        assert rebound.plan.condition == parse_condition("price < 15000")

    def test_mismatched_skeletons_rejected(self):
        old = parse_condition("make = 'BMW' and price < 40000")
        new = parse_condition("make = 'Audi' or price < 15000")
        assert _rebind(old, new) is None

    def test_ambiguous_duplicates_rejected(self):
        old = parse_condition("p = 1 or p = 1")
        new = parse_condition("p = 2 or p = 3")
        assert _rebind(old, new) is None

    def test_consistent_duplicates_accepted(self):
        old = parse_condition("p = 1 or p = 1")
        new = parse_condition("p = 2 or p = 2")
        assert _rebind(old, new) is not None

    def test_substitute_plan_rewrites_all_conditions(self):
        old = parse_condition(
            "(make = 'BMW' and price < 9) or (make = 'Audi' and price < 5)"
        )
        new = parse_condition(
            "(make = 'VW' and price < 7) or (make = 'Kia' and price < 3)"
        )
        plan = UnionPlan([
            SourceQuery(old.children[0], frozenset({"model"}), "cars"),
            Postprocess(
                old.children[1].children[0],
                frozenset({"model"}),
                SourceQuery(
                    old.children[1].children[1],
                    frozenset({"model", "make"}),
                    "cars",
                ),
            ),
        ])
        rebound = _rebind(old, new, plan)
        conditions = [q.condition for q in rebound.plan.source_queries()]
        assert conditions == [parse_condition("make = 'VW' and price < 7"),
                              parse_condition("price < 3")]
        assert rebound.plan.children[1].condition == parse_condition(
            "make = 'Kia'")


class TestWrapperTemplateReuse:
    def test_second_instance_skips_planning(self):
        wrapper = Wrapper(make_example41_source())
        first = wrapper.plan("make = 'BMW' and price < 40000", ["model"])
        assert first.feasible
        assert wrapper.template_hits == 0
        second = wrapper.plan("make = 'Toyota' and price < 20000", ["model"])
        assert second.feasible
        assert wrapper.template_hits == 1
        assert second.planner.endswith("+template")

    def test_instantiated_plan_answers_correctly(self):
        wrapper = Wrapper(make_example41_source())
        wrapper.query("make = 'BMW' and price < 40000", ["model"])
        answer = wrapper.query("make = 'Toyota' and price < 20000", ["model"])
        assert answer.result.as_row_set() == {("Camry",), ("Corolla",)}

    def test_multi_conjunct_template_reuse_still_correct(self):
        wrapper = Wrapper(make_example41_source())
        first = wrapper.query(
            "price < 40000 and color = 'red' and make = 'BMW'",
            ["model"],
        )
        assert first.result.as_row_set() == {("328i",)}
        second = wrapper.query(
            "price < 25000 and color = 'red' and make = 'Toyota'",
            ["model"],
        )
        assert wrapper.template_hits == 1
        assert second.result.as_row_set() == {("Camry",), ("Celica",)}

    def test_validation_falls_back_to_replanning(self):
        """A literal template makes support value-dependent: the template
        plan for the supported literal must not be blindly reused."""
        from repro.data.relation import Relation
        from repro.data.schema import AttrType, Schema
        from repro.source.source import CapabilitySource
        from repro.ssdl.builder import DescriptionBuilder

        schema = Schema.of(
            "t", [("id", AttrType.INT), ("style", AttrType.STRING),
                  ("make", AttrType.STRING)], key="id"
        )
        desc = (
            DescriptionBuilder("d")
            # Only sedans are searchable by style+make...
            .rule("sedans", "style = 'sedan' and make = $str",
                  attributes=["id", "style", "make"])
            # ...but any single make works, exporting style for filtering.
            .rule("by_make", "make = $str", attributes=["id", "style", "make"])
            .build()
        )
        rows = [
            {"id": 0, "style": "sedan", "make": "a"},
            {"id": 1, "style": "coupe", "make": "a"},
            {"id": 2, "style": "sedan", "make": "b"},
        ]
        source = CapabilitySource("t", Relation(schema, rows), desc)
        wrapper = Wrapper(source)
        first = wrapper.query("style = 'sedan' and make = 'a'", ["id"])
        assert first.result.as_row_set() == {(0,)}
        # Same skeleton, but the literal 'sedan' becomes 'coupe': the
        # template plan is invalid and the wrapper must replan.
        second = wrapper.query("style = 'coupe' and make = 'a'", ["id"])
        assert second.result.as_row_set() == {(1,)}
        assert wrapper.template_hits == 0
