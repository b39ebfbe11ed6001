"""Integration tests for the Mediator facade and the query parser."""

import pytest

from repro.errors import (
    ConditionParseError,
    InfeasiblePlanError,
    PlanExecutionError,
    UnknownAttributeError,
)
from repro.mediator import Mediator
from repro.planners.baselines import DNFPlanner
from repro.query import parse_query
from tests.conftest import make_example41_source


@pytest.fixture
def mediator():
    m = Mediator()
    m.add_source(make_example41_source())
    return m


class TestParseQuery:
    def test_basic(self):
        query = parse_query(
            "SELECT model, year FROM cars WHERE make = 'BMW' and price < 40000"
        )
        assert query.attributes == {"model", "year"}
        assert query.source == "cars"
        assert query.condition.is_and

    def test_no_where_is_true(self):
        query = parse_query("SELECT model FROM cars")
        assert query.condition.is_true

    def test_case_insensitive_keywords(self):
        query = parse_query("select model from cars where make = 'BMW'")
        assert query.source == "cars"

    def test_trailing_semicolon(self):
        assert parse_query("SELECT a FROM t;").attributes == {"a"}

    def test_round_trip_text(self):
        query = parse_query("SELECT model FROM cars WHERE make = 'BMW'")
        again = parse_query(query.to_text())
        assert again == query

    @pytest.mark.parametrize(
        "bad",
        ["", "SELECT FROM cars", "model FROM cars", "SELECT a WHERE b = 1"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConditionParseError):
            parse_query(bad)


class TestMediator:
    def test_ask_end_to_end(self, mediator):
        answer = mediator.ask(
            "SELECT model, year FROM cars "
            "WHERE make = 'BMW' and price < 40000"
        )
        assert {row["model"] for row in answer.rows} == {"328i", "318i"}
        assert answer.report.queries == 1
        assert answer.planning.feasible

    def test_ask_fixes_order(self, mediator):
        answer = mediator.ask(
            "SELECT model FROM cars WHERE price < 40000 and make = 'BMW'"
        )
        assert len(answer.rows) == 2

    def test_infeasible_raises(self, mediator):
        with pytest.raises(InfeasiblePlanError):
            mediator.ask("SELECT model FROM cars WHERE year = 1999")

    def test_unknown_source(self, mediator):
        with pytest.raises(PlanExecutionError):
            mediator.ask("SELECT a FROM nowhere WHERE a = 1")

    def test_unknown_projection_attribute(self, mediator):
        with pytest.raises(UnknownAttributeError):
            mediator.plan("SELECT ghost FROM cars WHERE make = 'BMW'")

    def test_unknown_condition_attribute(self, mediator):
        with pytest.raises(UnknownAttributeError):
            mediator.plan("SELECT model FROM cars WHERE ghost = 1")

    def test_duplicate_source_rejected(self, mediator):
        with pytest.raises(PlanExecutionError):
            mediator.add_source(make_example41_source())

    def test_per_query_planner_override(self, mediator):
        result = mediator.plan(
            "SELECT model FROM cars WHERE make = 'BMW' and price < 40000",
            DNFPlanner(),
        )
        assert result.planner == "DNF"

    def test_answer_exposes_relation(self, mediator):
        answer = mediator.ask(
            "SELECT model FROM cars WHERE make = 'BMW' and color = 'red'"
        )
        assert answer.result.as_row_set() == {("328i",)}

    def test_cost_model_covers_all_sources(self, mediator):
        cm = mediator.cost_model()
        assert "cars" in cm.stats

    def test_unknown_engine_fails_before_planning(self):
        from repro.planners.gencompact import GenCompact
        from repro.source.library import standard_catalog

        class CountingPlanner(GenCompact):
            calls = 0

            def plan(self, *args, **kwargs):
                CountingPlanner.calls += 1
                return super().plan(*args, **kwargs)

        m = Mediator(planner=CountingPlanner(), event_log_entries=8)
        for source in standard_catalog().values():
            m.add_source(source)
        unsatisfiable = ("SELECT title FROM bookstore "
                         "WHERE price < 10 and price > 20")
        satisfiable = ("SELECT title FROM bookstore "
                       "WHERE author = 'Carl Jung' and title contains 'dreams'")
        for text in (unsatisfiable, satisfiable):
            with pytest.raises(PlanExecutionError, match="bogus"):
                m.ask(text, executor="bogus")
        assert CountingPlanner.calls == 0
        assert len(m.events) == 0
        # The same asks on a real engine do reach the planner.
        m.ask(satisfiable, executor="serial")
        assert CountingPlanner.calls == 1


class TestCompilesEachDescriptionOnce:
    """A description is compiled when it joins the catalog and never
    again: what other sources do is no reason to recompile it."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        from collections import Counter

        from repro.ssdl.description import SourceDescription

        counts = Counter()
        compile_ = SourceDescription.compile

        def counting(self, *args, **kwargs):
            counts[self.name] += 1
            return compile_(self, *args, **kwargs)

        monkeypatch.setattr(SourceDescription, "compile", counting)
        return counts

    ASKS = {
        "bookstore": "SELECT title FROM bookstore WHERE author = 'Carl Jung'",
        "car_guide": "SELECT model FROM car_guide WHERE make = 'BMW'",
        "classifieds": "SELECT id FROM classifieds WHERE make = 'Toyota'",
    }

    def test_set_up_and_asks_compile_every_description_once(self, compiles):
        from repro.source.library import standard_catalog

        mediator = Mediator(plan_cache_entries=8)
        for source in standard_catalog().values():
            mediator.add_source(source)
        after_set_up = dict(compiles)
        assert set(after_set_up.values()) == {1}
        assert len(after_set_up) == 2 * len(mediator.catalog)  # + closures
        for _ in range(3):
            for sql in self.ASKS.values():
                mediator.ask(sql)
        assert dict(compiles) == after_set_up

    def test_a_mutation_compiles_nothing_of_the_other_sources(self, compiles):
        from repro.source.library import bookstore_description, standard_catalog

        mediator = Mediator()
        for source in standard_catalog().values():
            mediator.add_source(source)
        compiles.clear()
        mediator.mutate_source("bookstore", bookstore_description())
        assert set(compiles) == {"bookstore", "bookstore+commuted"}
        for sql in self.ASKS.values():
            mediator.ask(sql)
        mediator.remove_source("classifieds")
        mediator.ask(self.ASKS["car_guide"])
        assert dict(compiles) == {"bookstore": 1, "bookstore+commuted": 1}

    def test_an_over_budget_grammar_is_not_retried_on_every_ask(
            self, compiles):
        mediator = Mediator()
        source = make_example41_source()
        # What add_source leaves behind for a grammar past the budget:
        # compilation attempted, no recognizer.
        source.compile_capabilities(max_sequences=1)
        assert not source.compiled and source.capabilities_compiled
        compiles.clear()
        mediator.add_source(source)
        mediator.ask("SELECT model FROM cars WHERE make = 'BMW' and price < 40000")
        assert not compiles

    def test_invalidated_forms_are_compiled_again_on_the_next_ask(
            self, mediator, compiles):
        source = mediator.source("cars")
        source.invalidate_compiled()
        assert not source.capabilities_compiled
        mediator.ask("SELECT model FROM cars WHERE make = 'BMW' and price < 40000")
        assert source.compiled and set(compiles.values()) == {1}
