"""Unit tests for the executor (mediator-side plan evaluation)."""

import asyncio

import pytest

from repro.conditions.parser import parse_condition
from repro.conditions.tree import TRUE
from repro.errors import (
    InterpreterSuspendedError,
    PlanExecutionError,
    UnsupportedQueryError,
)
from repro.observability import Tracer, use_tracer
from repro.plans.execute import Executor, reference_answer
from repro.plans.nodes import (
    IntersectPlan,
    Postprocess,
    SourceQuery,
    UnionPlan,
    make_choice,
)
from tests.conftest import make_example41_source


@pytest.fixture
def source():
    return make_example41_source()


@pytest.fixture
def executor(source):
    return Executor({source.name: source})


def sq(text, attrs=("model",), source="cars"):
    return SourceQuery(parse_condition(text), frozenset(attrs), source)


class TestSourceQueries:
    def test_simple(self, executor):
        result = executor.execute(sq("make = 'BMW' and price < 40000"))
        assert result.as_row_set() == {("328i",), ("318i",)}

    def test_fixes_order_automatically(self, executor):
        result = executor.execute(sq("price < 40000 and make = 'BMW'"))
        assert len(result) == 2

    def test_without_fixing_the_source_rejects(self, source):
        executor = Executor({source.name: source}, fix_queries=False)
        with pytest.raises(UnsupportedQueryError):
            executor.execute(sq("price < 40000 and make = 'BMW'"))

    def test_unknown_source(self, executor):
        with pytest.raises(PlanExecutionError):
            executor.execute(sq("make = 'BMW' and price < 1", source="ghost"))


class TestComposites:
    def test_postprocess_select_project(self, executor):
        inner = sq("make = 'BMW' and price < 40000", attrs=("model", "color"))
        plan = Postprocess(
            parse_condition("color = 'red'"), frozenset({"model"}), inner
        )
        assert executor.execute(plan).as_row_set() == {("328i",)}

    def test_postprocess_true_projects_only(self, executor):
        inner = sq("make = 'BMW' and price < 40000", attrs=("model", "color"))
        plan = Postprocess(TRUE, frozenset({"model"}), inner)
        assert executor.execute(plan).as_row_set() == {("328i",), ("318i",)}

    def test_union(self, executor):
        plan = UnionPlan(
            [sq("make = 'BMW' and color = 'red'"),
             sq("make = 'Toyota' and color = 'red'")]
        )
        assert executor.execute(plan).as_row_set() == {
            ("328i",), ("Camry",), ("Celica",),
        }

    def test_intersect(self, executor):
        plan = IntersectPlan(
            [sq("make = 'BMW' and price < 40000", attrs=("model", "year")),
             sq("make = 'BMW' and color = 'red'", attrs=("model", "year"))]
        )
        assert executor.execute(plan).as_row_set() == {("328i", 1998)}

    def test_choice_rejected(self, executor):
        choice = make_choice(
            [sq("make = 'BMW' and color = 'red'"),
             sq("make = 'BMW' and price < 40000")]
        )
        with pytest.raises(PlanExecutionError):
            executor.execute(choice)

    @pytest.mark.parametrize("node_cls", [UnionPlan, IntersectPlan])
    def test_empty_combination_raises_plan_error(self, executor, node_cls):
        # The constructor refuses < 2 children, but a degenerate node can
        # still reach the executor (hand-built, or from a future
        # deserializer bug).  Regression: this used to be a bare
        # IndexError from reading parts[0].
        degenerate = node_cls.__new__(node_cls)
        object.__setattr__(degenerate, "_children", ())
        with pytest.raises(PlanExecutionError, match="no inputs"):
            executor.execute(degenerate)


class TestReports:
    def test_execute_with_report_meters_traffic(self, executor, source):
        plan = UnionPlan(
            [sq("make = 'BMW' and color = 'red'"),
             sq("make = 'Toyota' and color = 'red'")]
        )
        report = executor.execute_with_report(plan)
        assert report.queries == 2
        assert report.tuples_transferred == 3
        assert report.measured_cost(100, 1) == 203

    def test_report_only_counts_this_plan(self, executor, source):
        source.execute(
            parse_condition("make = 'BMW' and color = 'red'"), ["model"]
        )
        report = executor.execute_with_report(
            sq("make = 'Toyota' and color = 'red'")
        )
        assert report.queries == 1


class TestLoopFreeDriver:
    def test_suspending_interpreter_raises_a_typed_error(self, source):
        """The serial driver runs the interpreter with no event loop; a
        primitive that awaits real I/O must fail loudly, not hang or
        return half an answer."""
        loop = asyncio.new_event_loop()
        pending = loop.create_future()

        class Suspending(Executor):
            async def _call(self, source, condition, attrs):
                return await pending

        executor = Suspending({source.name: source})
        try:
            with use_tracer(Tracer()) as tracer, \
                    pytest.raises(InterpreterSuspendedError):
                executor.execute(sq("make = 'BMW' and price < 40000"))
        finally:
            loop.close()
        assert not pending.done()  # closed while waiting, never resumed
        # Closing the coroutine ended its span; nothing reached the source.
        assert [s.name for s in tracer.finished_spans()] == [
            "executor.source_call"]
        assert source.meter.queries == 0


class TestReferenceAnswer:
    def test_ignores_capabilities(self, source):
        # year = 1999 is not supported by any form but ground truth works.
        result = reference_answer(
            source, parse_condition("year = 1999"), ["model"]
        )
        assert result.as_row_set() == {("740il",), ("Camry",), ("Civic",)}
