"""SLO error-budget accounting, the slow-query log, fingerprints.

The tracker's arithmetic must be *exact* -- the objective is a bucket
boundary, so attainment is a cumulative read, not an estimate -- and
the log's eviction accounting must stay exact under a thread storm.
Fingerprints must group by the canonical plan: two spellings of the
same query share one.
"""

from __future__ import annotations

import threading

import pytest

from repro.observability import (
    AskEvent,
    EventLog,
    Histogram,
    SLOTracker,
    plan_fingerprint,
)
from repro.query import parse_query
from repro.serving.plan_cache import plan_cache_key


class TestPlanFingerprint:
    def test_stable_and_short(self):
        key = plan_cache_key(parse_query(
            "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"
        ))
        assert plan_fingerprint(key) == plan_fingerprint(key)
        assert len(plan_fingerprint(key)) == 12

    def test_equivalent_spellings_share_a_fingerprint(self):
        a = parse_query(
            "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"
        )
        b = parse_query(
            "SELECT model FROM cars WHERE price < 40000 and make = 'BMW'"
        )
        assert plan_fingerprint(plan_cache_key(a)) == plan_fingerprint(
            plan_cache_key(b)
        )

    def test_different_queries_differ(self):
        a = parse_query("SELECT model FROM cars WHERE make = 'BMW'")
        b = parse_query("SELECT model FROM cars WHERE make = 'Audi'")
        assert plan_fingerprint(plan_cache_key(a)) != plan_fingerprint(
            plan_cache_key(b)
        )


def _slow(duration=0.2, query="SELECT model FROM cars"):
    return AskEvent(
        query=query, source="cars", outcome="ok",
        duration_seconds=duration, fingerprint="abc123def456",
        planner="gencompact", per_source={"cars": [2, 9]},
    )


class TestSlowQueryLog:
    """The slow-query log: an :class:`EventLog` of the breaching asks'
    events, printed against the objective they breached."""

    def test_append_and_oldest_first_entries(self):
        log = EventLog(capacity=4)
        for duration in (0.1, 0.2, 0.3):
            log.append(_slow(duration))
        assert [e.duration_seconds for e in log.events()] == [0.1, 0.2, 0.3]
        assert len(log) == 3
        assert log.recorded == 3
        assert log.evicted == 0

    def test_capacity_evicts_oldest_and_counts(self):
        log = EventLog(capacity=2)
        for duration in (0.1, 0.2, 0.3, 0.4):
            log.append(_slow(duration))
        assert [e.duration_seconds for e in log.events()] == [0.3, 0.4]
        assert log.recorded == 4
        assert log.evicted == 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_clear_resets_accounting(self):
        log = EventLog(capacity=2)
        log.append(_slow())
        log.clear()
        assert len(log) == 0 and log.recorded == 0 and log.evicted == 0

    def test_format_contains_fingerprint_and_breakdown(self):
        log = EventLog()
        entry = _slow()
        entry.timeline = "mediator.ask [####]"
        log.append(entry)
        text = log.format("slow-query log", objective_seconds=0.05)
        assert "slow-query log: 1 retained of 1 recorded (0 evicted)" in text
        assert "[abc123def456] 200.00 ms (objective 50.00 ms, ok)" in text
        assert "planner=gencompact source=cars" in text
        assert "cars: 2 queries, 9 tuples" in text
        assert "    mediator.ask [####]" in text

    def test_error_entries_are_flagged(self):
        entry = _slow()
        entry.error = "OverloadError: shed"
        text = entry.format_breach(0.05)
        assert "ERROR" in text and "error=OverloadError: shed" in text

    def test_concurrent_appends_keep_exact_accounting(self):
        log = EventLog(capacity=16)
        threads, per_thread = 8, 50
        barrier = threading.Barrier(threads)

        def storm() -> None:
            barrier.wait()
            for _ in range(per_thread):
                log.append(_slow())

        workers = [threading.Thread(target=storm) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        total = threads * per_thread
        assert log.recorded == total
        assert len(log) == 16
        assert log.evicted == total - 16


def _tracker(durations, objective=0.05, target=0.9):
    histogram = Histogram("ask", buckets=(0.01, objective, 0.1, 1.0))
    for duration in durations:
        histogram.observe(duration)
    return SLOTracker(histogram, objective, target=target)


class TestSLOTracker:
    def test_objective_must_be_a_bucket_boundary(self):
        histogram = Histogram("ask", buckets=(0.01, 0.1))
        with pytest.raises(ValueError, match="bucket boundary"):
            SLOTracker(histogram, 0.05)

    def test_rejects_bad_objective_and_target(self):
        histogram = Histogram("ask", buckets=(0.05,))
        with pytest.raises(ValueError):
            SLOTracker(histogram, 0.0)
        with pytest.raises(ValueError):
            SLOTracker(histogram, 0.05, target=1.0)

    def test_empty_histogram_is_ok_with_full_budget(self):
        status = _tracker([]).status()
        assert status["status"] == "ok"
        assert status["attainment"] == 1.0
        assert status["budget_burn"] == 0.0

    def test_exact_attainment_at_the_boundary(self):
        # 8 of 10 within the 50 ms objective (0.05 itself counts: le).
        status = _tracker(
            [0.001] * 5 + [0.05] * 3 + [0.09, 0.5], target=0.5
        ).status()
        assert status["total"] == 10
        assert status["breached"] == 2
        assert status["attainment"] == 0.8
        # Budget = (1 - 0.5) * 10 = 5 allowed breaches; 2 spent.
        assert status["budget_burn"] == pytest.approx(0.4)
        assert status["status"] == "ok"

    def test_budget_exhaustion_flips_to_degraded(self):
        tracker = _tracker([0.001] * 8 + [0.5, 0.5], target=0.9)
        # Budget = 1 allowed breach of 10; 2 spent -> burn 2.0.
        status = tracker.status()
        assert status["budget_burn"] == pytest.approx(2.0)
        assert status["status"] == "degraded"
        assert tracker.degraded

    def test_live_histogram_updates_flow_through(self):
        tracker = _tracker([0.001] * 99, target=0.9)
        assert not tracker.degraded
        for _ in range(20):
            tracker.histogram.observe(0.8)
        assert tracker.degraded

    def test_format_is_one_line_with_the_numbers(self):
        line = _tracker([0.001] * 9 + [0.5], target=0.5).format()
        assert line.startswith("slo ok:")
        assert "90.00% within 50.0 ms" in line
        assert "1/10 breached" in line
        assert "p99" in line
