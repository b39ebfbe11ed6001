"""Single-flight coalescing and disjunct batching, proven exact.

The sharing layer's promises (see :mod:`repro.plans.coalesce`):

* K concurrent identical asks cost **one** physical source query, and
  the one immutable answer they share cannot be changed through what
  it hands out -- one caller mutating its rows leaks into none of the
  others (the ResultCache isolation regression, extended to single
  flight);
* the books balance: the source's :class:`QueryMeter` counts the one
  physical call, exactly one :class:`ExecutionReport` claims it, and
  the joiners carry ``coalesced_hits`` instead (the double-counting
  fix), mirrored to the ``executor.coalesced_hits`` registry counter;
* when the grammar admits disjunctive constants, batched single-EQ
  asks merge into one ``SP(c1 or c2 or ...)`` call whose per-caller
  post-filtered slices equal each caller's own reference answer; when
  the grammar refuses the merge, the batcher falls back to per-constant
  flights and loses nothing.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.conditions.parser import parse_condition
from repro.data.generate import generate_books
from repro.observability.metrics import get_metrics
from repro.plans.async_exec import AsyncExecutor
from repro.plans.cache import ResultCache
from repro.plans.execute import reference_answer
from repro.plans.nodes import SourceQuery, UnionPlan
from repro.source.faults import SimulatedLatency
from repro.source.library import BOOK_EXPORTS, bookstore
from repro.source.source import CapabilitySource
from repro.ssdl.builder import DescriptionBuilder

_ATTRS = frozenset(BOOK_EXPORTS)
_JUNG = parse_condition("author = 'Carl Jung'")
_FREUD = parse_condition("author = 'Sigmund Freud'")
_JAMES = parse_condition("author = 'William James'")


def _slow_bookstore(base: float = 0.03) -> CapabilitySource:
    """A bookstore whose calls genuinely overlap (real slept latency),
    so concurrent identical asks are in flight together."""
    source = bookstore(n=150, seed=1999)
    source.latency = SimulatedLatency(seed=7, base=base, real_sleep=True)
    return source


def _disjunctive_shop(base: float = 0.0) -> CapabilitySource:
    """A bookstore variant whose grammar *admits* author disjunctions
    (recursive ``author_list`` helper, the car form's list idiom) --
    the precondition for merged batching."""
    description = (
        DescriptionBuilder("shop")
        .helper(
            "author_list",
            "author = $str or author = $str | author = $str or author_list",
        )
        .rule("by_author", "author = $str", attributes=BOOK_EXPORTS)
        .rule("by_authors", "( author_list )", attributes=BOOK_EXPORTS)
        .build()
    )
    source = CapabilitySource("shop", generate_books(300, 1999), description)
    if base > 0.0:
        source.latency = SimulatedLatency(seed=7, base=base, real_sleep=True)
    return source


def _fan_out(executor, call, k: int):
    """Run ``call`` from ``k`` real threads released together."""
    barrier = threading.Barrier(k)

    def one(index: int):
        barrier.wait()
        return call(index)

    with ThreadPoolExecutor(max_workers=k) as pool:
        return [future.result() for future in
                [pool.submit(one, index) for index in range(k)]]


class TestSingleFlight:
    def test_k_identical_asks_cost_one_physical_query(self):
        source = _slow_bookstore()
        plan = SourceQuery(_JUNG, _ATTRS, "bookstore")
        expected = reference_answer(source, _JUNG, _ATTRS).as_row_set()
        counter = get_metrics().counter("executor.coalesced_hits")
        before = counter.value
        k = 8
        with AsyncExecutor({"bookstore": source}) as executor:
            results = _fan_out(
                executor, lambda _: executor.execute(plan), k
            )
            stats = executor.coalesce_stats
        assert source.meter.snapshot().queries == 1
        assert stats.flights == 1
        assert stats.coalesced_hits == k - 1
        assert counter.value - before == k - 1
        for result in results:
            assert result.as_row_set() == expected

    def test_every_caller_gets_an_isolated_copy(self):
        source = _slow_bookstore()
        plan = SourceQuery(_JUNG, _ATTRS, "bookstore")
        with AsyncExecutor({"bookstore": source}) as executor:
            results = _fan_out(
                executor, lambda _: executor.execute(plan), 4
            )
        assert len(results[0]) > 0
        pristine = [result.as_row_set() for result in results]
        # Clobber everything one caller can reach of its answer ...
        for row in results[0]:
            row["title"] = "MUTATED"
            row["price"] = -1
        results[0].rows[0].clear()
        # ... and nobody's rows move, the clobbered caller's included
        # (the callers share one immutable relation).
        for result, rows in zip(results, pristine):
            assert result.as_row_set() == rows
            assert all(row["title"] != "MUTATED" for row in result)

    def test_coalesce_off_pays_per_caller(self):
        source = _slow_bookstore()
        plan = SourceQuery(_JUNG, _ATTRS, "bookstore")
        k = 4
        with AsyncExecutor({"bookstore": source}, coalesce=False) as executor:
            _fan_out(executor, lambda _: executor.execute(plan), k)
            assert executor.coalesce_stats.flights == 0
        assert source.meter.snapshot().queries == k

    def test_union_of_identical_leaves_coalesces_within_one_plan(self):
        source = _slow_bookstore()
        leaf = SourceQuery(_JUNG, _ATTRS, "bookstore")
        plan = UnionPlan([leaf] * 5)
        with AsyncExecutor({"bookstore": source}) as executor:
            report = executor.execute_with_report(plan)
        assert source.meter.snapshot().queries == 1
        assert report.queries == 1
        assert report.coalesced_hits == 4
        assert report.result.as_row_set() == \
            reference_answer(source, _JUNG, _ATTRS).as_row_set()


class TestReportReconciliation:
    def test_one_report_claims_the_physical_call_joiners_count_hits(self):
        # The double-counting fix: concurrent reports over one coalesced
        # call must sum to exactly one physical query -- the serial
        # global-meter diff would have counted it in every report.
        source = _slow_bookstore()
        plan = SourceQuery(_JUNG, _ATTRS, "bookstore")
        k = 6
        with AsyncExecutor({"bookstore": source}) as executor:
            reports = _fan_out(
                executor, lambda _: executor.execute_with_report(plan), k
            )
        meter = source.meter.snapshot()
        assert meter.queries == 1
        assert sum(report.queries for report in reports) == 1
        assert sum(report.coalesced_hits for report in reports) == k - 1
        leaders = [report for report in reports if report.queries == 1]
        assert len(leaders) == 1
        assert leaders[0].per_source["bookstore"].queries == 1
        assert leaders[0].per_source["bookstore"].tuples == meter.tuples
        assert leaders[0].coalesced_hits == 0
        for report in reports:
            if report is leaders[0]:
                continue
            assert report.coalesced_hits == 1
            assert report.per_source == {}
            assert report.tuples_transferred == 0

    def test_tuples_attributed_once_match_the_meter(self):
        source = _slow_bookstore()
        plan = SourceQuery(_FREUD, _ATTRS, "bookstore")
        with AsyncExecutor({"bookstore": source}) as executor:
            reports = _fan_out(
                executor, lambda _: executor.execute_with_report(plan), 5
            )
        meter = source.meter.snapshot()
        assert sum(r.tuples_transferred for r in reports) == meter.tuples


class TestResultCacheInterplay:
    def test_single_flight_fills_the_cache_with_a_pristine_copy(self):
        # The copy-on-get regression, extended: a caller mutating its
        # coalesced copy must not poison later cache hits.
        source = _slow_bookstore()
        plan = SourceQuery(_JUNG, _ATTRS, "bookstore")
        expected = reference_answer(source, _JUNG, _ATTRS).as_row_set()
        cache = ResultCache()
        with AsyncExecutor({"bookstore": source}, cache=cache) as executor:
            results = _fan_out(
                executor, lambda _: executor.execute(plan), 4
            )
            for row in results[0]:
                row["title"] = "MUTATED"
            warm = executor.execute(plan)
        assert source.meter.snapshot().queries == 1  # warm run = cache hit
        assert warm.as_row_set() == expected


class TestDisjunctBatching:
    def test_batched_authors_merge_into_one_call_and_post_filter(self):
        source = _disjunctive_shop(base=0.0)
        conditions = [_JUNG, _FREUD, _JAMES]
        plans = [SourceQuery(c, _ATTRS, "shop") for c in conditions]
        expected = [
            reference_answer(source, c, _ATTRS).as_row_set()
            for c in conditions
        ]
        counter = get_metrics().counter("executor.batched_hits")
        before = counter.value
        with AsyncExecutor({"shop": source}, batch_window=0.2) as executor:
            results = _fan_out(
                executor,
                lambda index: executor.execute(plans[index]),
                len(plans),
            )
            stats = executor.coalesce_stats
        # One physical disjunctive call served all three logical asks;
        # each caller's post-filtered slice is its own exact answer.
        assert source.meter.snapshot().queries == 1
        assert stats.batches == 1
        assert stats.batched_hits == 2
        assert counter.value - before == 2
        for result, rows in zip(results, expected):
            assert result.as_row_set() == rows

    def test_batched_reports_balance_like_coalesced_ones(self):
        source = _disjunctive_shop(base=0.0)
        plans = [SourceQuery(c, _ATTRS, "shop") for c in (_JUNG, _FREUD)]
        with AsyncExecutor({"shop": source}, batch_window=0.2) as executor:
            reports = _fan_out(
                executor,
                lambda index: executor.execute_with_report(plans[index]),
                len(plans),
            )
        assert source.meter.snapshot().queries == 1
        assert sum(report.queries for report in reports) == 1
        assert sum(report.batched_hits for report in reports) == 1

    def test_duplicate_constants_dedup_inside_the_batch(self):
        # Two callers asking the same constant plus one distinct: the
        # merged disjunction carries two distinct constants, all three
        # callers share the one call.
        source = _disjunctive_shop(base=0.0)
        conditions = [_JUNG, _JUNG, _FREUD]
        plans = [SourceQuery(c, _ATTRS, "shop") for c in conditions]
        with AsyncExecutor({"shop": source}, batch_window=0.2) as executor:
            results = _fan_out(
                executor,
                lambda index: executor.execute(plans[index]),
                len(plans),
            )
        assert source.meter.snapshot().queries == 1
        for result, condition in zip(results, conditions):
            assert result.as_row_set() == \
                reference_answer(source, condition, _ATTRS).as_row_set()

    def test_grammar_refusing_the_merge_falls_back_per_constant(self):
        # The stock bookstore form takes one author at a time -- the
        # batcher must detect the refusal and run per-constant flights.
        source = _slow_bookstore()
        conditions = [_JUNG, _FREUD, _JAMES]
        plans = [
            SourceQuery(c, _ATTRS, "bookstore") for c in conditions
        ]
        with AsyncExecutor(
            {"bookstore": source}, batch_window=0.2
        ) as executor:
            results = _fan_out(
                executor,
                lambda index: executor.execute(plans[index]),
                len(plans),
            )
            stats = executor.coalesce_stats
        assert source.meter.snapshot().queries == len(conditions)
        assert stats.batch_fallbacks >= 1
        assert stats.batched_hits == 0
        for result, condition in zip(results, conditions):
            assert result.as_row_set() == \
                reference_answer(source, condition, _ATTRS).as_row_set()

    def test_lone_batchable_ask_degrades_to_a_plain_call(self):
        source = _disjunctive_shop(base=0.0)
        plan = SourceQuery(_JUNG, _ATTRS, "shop")
        with AsyncExecutor({"shop": source}, batch_window=0.02) as executor:
            result = executor.execute(plan)
            stats = executor.coalesce_stats
        assert source.meter.snapshot().queries == 1
        assert stats.batched_hits == 0
        assert result.as_row_set() == \
            reference_answer(source, _JUNG, _ATTRS).as_row_set()

    def test_non_equality_leaves_never_batch(self):
        source = _slow_bookstore()
        plan = SourceQuery(
            parse_condition("title contains 'dream'"), _ATTRS, "bookstore"
        )
        with AsyncExecutor(
            {"bookstore": source}, batch_window=0.05
        ) as executor:
            result = executor.execute(plan)
            assert executor.coalesce_stats.batches == 0
        assert result.as_row_set() == reference_answer(
            source, plan.condition, _ATTRS
        ).as_row_set()


class TestCoalesceStats:
    def test_hit_rate_counts_shared_over_logical_calls(self):
        source = _slow_bookstore()
        plan = SourceQuery(_JUNG, _ATTRS, "bookstore")
        with AsyncExecutor({"bookstore": source}) as executor:
            _fan_out(executor, lambda _: executor.execute(plan), 4)
            stats = executor.coalesce_stats
        assert stats.hit_rate() == pytest.approx(3 / 4)

    def test_disabled_executor_reports_zero_stats(self):
        source = bookstore(n=20, seed=1999)
        with AsyncExecutor(
            {"bookstore": source}, coalesce=False
        ) as executor:
            executor.execute(SourceQuery(_JUNG, _ATTRS, "bookstore"))
            stats = executor.coalesce_stats
        assert stats.flights == 0
        assert stats.hit_rate() == 0.0
