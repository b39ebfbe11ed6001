"""Unit tests for the source-query result cache."""

import random

import pytest

from repro.conditions.parser import parse_condition
from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema
from repro.mediator import Mediator
from repro.plans.cache import ResultCache
from repro.plans.execute import Executor
from repro.plans.nodes import SourceQuery
from tests.conftest import make_example41_source

A = frozenset({"model"})


def rel(n, name="t"):
    schema = Schema.of(name, [("id", AttrType.INT)], key="id")
    return Relation(schema, [{"id": i} for i in range(n)])


def cond(text):
    return parse_condition(text)


class TestResultCache:
    def test_get_put_round_trip(self):
        cache = ResultCache(100)
        assert cache.get("s", cond("a = 1"), frozenset({"id"})) is None
        cache.put("s", cond("a = 1"), frozenset({"id"}), rel(5))
        hit = cache.get("s", cond("a = 1"), frozenset({"id"}))
        assert hit is not None and len(hit) == 5
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_includes_attributes_and_source(self):
        cache = ResultCache(100)
        cache.put("s", cond("a = 1"), frozenset({"id"}), rel(5))
        assert cache.get("s", cond("a = 1"), frozenset({"id", "b"})) is None
        assert cache.get("other", cond("a = 1"), frozenset({"id"})) is None

    def test_lru_eviction_by_tuples(self):
        cache = ResultCache(10)
        cache.put("s", cond("a = 1"), frozenset({"id"}), rel(6))
        cache.put("s", cond("a = 2"), frozenset({"id"}), rel(6))
        # First entry evicted: 12 > 10.
        assert cache.get("s", cond("a = 1"), frozenset({"id"})) is None
        assert cache.get("s", cond("a = 2"), frozenset({"id"})) is not None
        assert cache.stats.evictions == 1
        assert cache.cached_tuples == 6

    def test_recently_used_survives(self):
        cache = ResultCache(12)
        cache.put("s", cond("a = 1"), frozenset({"id"}), rel(5))
        cache.put("s", cond("a = 2"), frozenset({"id"}), rel(5))
        cache.get("s", cond("a = 1"), frozenset({"id"}))  # touch
        cache.put("s", cond("a = 3"), frozenset({"id"}), rel(5))
        assert cache.get("s", cond("a = 1"), frozenset({"id"})) is not None
        assert cache.get("s", cond("a = 2"), frozenset({"id"})) is None

    def test_oversized_result_not_admitted(self):
        cache = ResultCache(3)
        cache.put("s", cond("a = 1"), frozenset({"id"}), rel(10))
        assert len(cache) == 0

    def test_invalidate(self):
        cache = ResultCache(100)
        cache.put("s1", cond("a = 1"), frozenset({"id"}), rel(2))
        cache.put("s2", cond("a = 1"), frozenset({"id"}), rel(2))
        cache.invalidate("s1")
        assert cache.get("s1", cond("a = 1"), frozenset({"id"})) is None
        assert cache.get("s2", cond("a = 1"), frozenset({"id"})) is not None
        cache.invalidate()
        assert len(cache) == 0 and cache.cached_tuples == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_mutating_a_hit_does_not_corrupt_the_cache(self):
        # Regression: a caller editing the rows of a hit once poisoned
        # every later hit.  Entries are shared by reference now; what
        # isolates them is that a Relation hands out only fresh dicts.
        cache = ResultCache(100)
        cache.put("s", cond("a = 1"), frozenset({"id"}), rel(3))
        hit = cache.get("s", cond("a = 1"), frozenset({"id"}))
        for row in hit:
            row["id"] = 999
        for row in hit.rows + hit.sample(2, random.Random(0)):
            row["id"] = 999
        fresh = cache.get("s", cond("a = 1"), frozenset({"id"}))
        assert fresh.as_row_set() == {(0,), (1,), (2,)}
        assert [row["id"] for row in fresh] == [0, 1, 2]

    def test_mutating_the_original_after_put_does_not_corrupt(self):
        cache = ResultCache(100)
        original = rel(3)
        cache.put("s", cond("a = 1"), frozenset({"id"}), original)
        for row in original:
            row["id"] = 999
        original.rows.clear()
        hit = cache.get("s", cond("a = 1"), frozenset({"id"}))
        assert hit.as_row_set() == {(0,), (1,), (2,)}


class TestCachedExecution:
    def test_second_execution_skips_the_source(self):
        source = make_example41_source()
        cache = ResultCache(1000)
        executor = Executor({"cars": source}, cache=cache)
        plan = SourceQuery(cond("make = 'BMW' and price < 40000"), A, "cars")
        first = executor.execute(plan)
        second = executor.execute(plan)
        assert first.as_row_set() == second.as_row_set()
        assert source.meter.queries == 1
        assert cache.stats.hits == 1

    def test_mediator_integration(self):
        mediator = Mediator(result_cache_tuples=10_000)
        mediator.add_source(make_example41_source())
        query = "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"
        a1 = mediator.ask(query)
        a2 = mediator.ask(query)
        assert a1.rows == a2.rows
        assert a2.report.queries == 0  # answered from cache
        assert mediator.result_cache.stats.hit_rate > 0

    def test_mediator_without_cache_requeries(self):
        mediator = Mediator()
        mediator.add_source(make_example41_source())
        query = "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"
        mediator.ask(query)
        again = mediator.ask(query)
        assert again.report.queries == 1

    def test_cache_hits_report_zero_measured_traffic(self):
        # Intended semantics, not a bug: execute_with_report measures
        # *source* traffic via the meters, so a plan answered entirely
        # from the result cache reports zero queries and zero tuples --
        # the optimizer's estimate and the measured cost diverge under
        # caching, and the meters tell you what the Internet saw.
        source = make_example41_source()
        cache = ResultCache(1000)
        executor = Executor({"cars": source}, cache=cache)
        plan = SourceQuery(cond("make = 'BMW' and price < 40000"), A, "cars")
        warm = executor.execute_with_report(plan)
        assert warm.queries == 1
        assert warm.tuples_transferred == 2
        hit = executor.execute_with_report(plan)
        assert hit.queries == 0
        assert hit.tuples_transferred == 0
        assert hit.measured_cost(100, 1) == 0.0
        assert hit.result.as_row_set() == warm.result.as_row_set()
        # The estimated cost of the plan is unchanged -- only the
        # measured side collapses.
        from repro.plans.cost import CostModel

        model = CostModel({"cars": source.stats})
        assert model.cost(plan) > 0.0
