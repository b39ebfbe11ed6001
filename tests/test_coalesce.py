"""Single-flight coalescing, proven exact.

The sharing layer's promises (see :mod:`repro.plans.coalesce`):

* K concurrent identical asks cost **one** physical source query, and
  the one immutable answer they share cannot be changed through what
  it hands out -- one caller mutating its rows leaks into none of the
  others (the ResultCache isolation regression, extended to single
  flight);
* the books balance: the source's :class:`QueryMeter` counts the one
  physical call, exactly one :class:`ExecutionReport` claims it, and
  the joiners carry ``coalesced_hits`` instead (the double-counting
  fix), mirrored to the ``executor.coalesced_hits`` registry counter.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.conditions.parser import parse_condition
from repro.observability.metrics import get_metrics
from repro.plans.async_exec import AsyncExecutor
from repro.plans.cache import ResultCache
from repro.plans.execute import reference_answer
from repro.plans.nodes import SourceQuery, UnionPlan
from repro.source.faults import SimulatedLatency
from repro.source.library import BOOK_EXPORTS, bookstore
from repro.source.source import CapabilitySource

_ATTRS = frozenset(BOOK_EXPORTS)
_JUNG = parse_condition("author = 'Carl Jung'")
_FREUD = parse_condition("author = 'Sigmund Freud'")


def _slow_bookstore(base: float = 0.03) -> CapabilitySource:
    """A bookstore whose calls genuinely overlap (real slept latency),
    so concurrent identical asks are in flight together."""
    source = bookstore(n=150, seed=1999)
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


class TestCoalesceStats:
    def test_hit_rate_counts_shared_over_logical_calls(self):
        source = _slow_bookstore()
        plan = SourceQuery(_JUNG, _ATTRS, "bookstore")
        with AsyncExecutor({"bookstore": source}) as executor:
            _fan_out(executor, lambda _: executor.execute(plan), 4)
            stats = executor.coalesce_stats
        assert stats.hit_rate() == pytest.approx(3 / 4)
