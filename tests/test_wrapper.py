"""Unit tests for the Wrapper (Section 2's relational facade)."""

import pytest

from repro.conditions.parser import parse_condition
from repro.errors import InfeasiblePlanError, UnknownAttributeError
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.wrapper import Wrapper
from tests.conftest import make_example41_source


@pytest.fixture
def wrapper():
    return Wrapper(make_example41_source())


class TestQueries:
    def test_directly_supported_query(self, wrapper):
        answer = wrapper.query("make = 'BMW' and price < 40000", ["model"])
        assert answer.result.as_row_set() == {("328i",), ("318i",)}
        assert answer.queries_sent == 1

    def test_query_the_form_cannot_take_verbatim(self, wrapper):
        # Three conjuncts in the wrong order: the wrapper splits + fixes.
        answer = wrapper.query(
            "price < 40000 and color = 'red' and make = 'BMW'",
            ["model", "year"],
        )
        assert answer.result.as_row_set() == {("328i", 1998)}

    def test_disjunctive_query(self, wrapper):
        answer = wrapper.query(
            "(make = 'BMW' and price < 40000) or "
            "(make = 'Toyota' and price < 12000)",
            ["model"],
        )
        assert answer.result.as_row_set() == {
            ("328i",), ("318i",), ("Corolla",),
        }
        assert answer.queries_sent == 2

    def test_truly_unanswerable_raises_before_contacting_source(self, wrapper):
        before = wrapper.source.meter.snapshot()
        with pytest.raises(InfeasiblePlanError):
            wrapper.query("year = 1999", ["model"])
        delta = wrapper.source.meter.snapshot() - before
        assert delta.queries == 0 and delta.rejected == 0

    def test_provably_empty_query_is_answered_without_the_source(
            self, wrapper):
        before = wrapper.source.meter.snapshot()
        answer = wrapper.query("make = 'BMW' and price < 10 and price > 20",
                               ["model"])
        assert answer.rows == []
        assert answer.queries_sent == 0
        assert answer.planning.planner == "unsatisfiable-shortcut"
        assert (wrapper.source.meter.snapshot() - before).queries == 0

    def test_supports_probe(self, wrapper):
        assert wrapper.supports("make = 'BMW' and price < 40000", ["model"])
        assert not wrapper.supports("year = 1999", ["model"])

    def test_unknown_attribute_rejected(self, wrapper):
        with pytest.raises(UnknownAttributeError):
            wrapper.query("ghost = 1", ["model"])
        with pytest.raises(UnknownAttributeError):
            wrapper.query("make = 'BMW' and price < 1", ["ghost"])


class TestPlanCache:
    def test_same_query_planned_once(self, wrapper):
        condition = parse_condition("make = 'BMW' and price < 40000")
        wrapper.query(condition, ["model"])
        size = wrapper.cache_size()
        wrapper.query(condition, ["model"])
        assert wrapper.cache_size() == size

    def test_different_projection_different_entry(self, wrapper):
        condition = parse_condition("make = 'BMW' and price < 40000")
        wrapper.query(condition, ["model"])
        wrapper.query(condition, ["model", "year"])
        assert wrapper.cache_size() == 2

    def test_cached_plan_still_executes(self, wrapper):
        condition = parse_condition("make = 'BMW' and price < 40000")
        first = wrapper.query(condition, ["model"])
        second = wrapper.query(condition, ["model"])
        assert first.result.as_row_set() == second.result.as_row_set()
        assert second.queries_sent == 1

    def test_cache_traffic_is_the_serving_plan_cache(self, wrapper):
        with use_metrics(MetricsRegistry()) as registry:
            wrapper.plan("make = 'BMW' and price < 40000", ["model"])
            wrapper.plan("price < 40000 and make = 'BMW'", ["model"])
        assert registry.counter("serving.plan_cache.misses").value == 1
        assert registry.counter("serving.plan_cache.hits").value == 1
