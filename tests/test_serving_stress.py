"""Serving-layer concurrency regressions: exact accounting, no deadlocks.

Three guarantees under 16-thread contention:

* **reconciliation** -- every ``ask()`` outcome is accounted exactly
  once: plan-cache ``hits + misses`` equals the asks that reached the
  planner, admission ``admitted + shed`` equals the asks that reached
  the gate, and the registry counters agree with the local stats;
* **invalidation under mutation** -- concurrent ``add_source`` calls
  bump the catalog version and cached plans from the old catalog are
  never served (invalidations observed, answers stay correct);
* **deadline over deadlock** -- at ``max_in_flight=1`` with nested
  parallel-executor fan-out, contended asks end in ``OverloadError``
  within the queue timeout; nothing ever hangs (every test joins its
  threads under a hard deadline).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import OverloadError
from repro.mediator import Mediator
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.serving import AdmissionController
from repro.source.faults import SimulatedLatency
from repro.source.library import bookstore, car_guide

N_THREADS = 16
JOIN_DEADLINE = 30.0


def _run_threads(worker, count: int = N_THREADS) -> None:
    """Start ``count`` threads on ``worker(slot)`` and join them under a
    hard deadline -- a hang fails the test instead of freezing it."""
    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(count)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + JOIN_DEADLINE
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), \
        "worker threads did not finish before the deadline (deadlock?)"


QUERIES = [
    "SELECT id, title FROM bookstore WHERE author = 'Carl Jung'",
    "SELECT id, title FROM bookstore WHERE author = 'Sigmund Freud' "
    "and title contains 'dreams'",
    "SELECT id, model FROM car_guide WHERE make = 'BMW'",
    "SELECT id, model FROM car_guide WHERE style = 'sedan' "
    "and (size = 'compact' or size = 'midsize')",
]


def _mediator(**kwargs) -> Mediator:
    mediator = Mediator(**kwargs)
    mediator.add_source(bookstore(n=300, seed=1999))
    mediator.add_source(car_guide(n=300, seed=1999))
    return mediator


class TestCacheReconciliation:
    def test_16_threads_hits_plus_misses_equals_asks(self):
        with use_metrics(MetricsRegistry()) as registry:
            mediator = _mediator(plan_cache_entries=64)
            per_thread = 8
            failures: list[BaseException] = []

            def worker(slot: int) -> None:
                try:
                    for index in range(per_thread):
                        query = QUERIES[(slot + index) % len(QUERIES)]
                        mediator.ask(query)
                except BaseException as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)

            _run_threads(worker)
            assert not failures
            stats = mediator.plan_cache.stats
            total = N_THREADS * per_thread
            assert stats.hits + stats.misses == total
            # Racing threads may plan the same key concurrently (both
            # miss, both put), but never more often than once per
            # thread per key; the cache still converges to one entry
            # per canonical key.
            assert len(QUERIES) <= stats.misses <= len(QUERIES) * N_THREADS
            assert stats.hits >= total - len(QUERIES) * N_THREADS
            assert stats.invalidations == 0
            snapshot = registry.snapshot()
            assert snapshot["serving.plan_cache.hits"]["value"] == stats.hits
            assert snapshot["serving.plan_cache.misses"]["value"] == \
                stats.misses

    def test_invalidation_under_concurrent_add_source(self):
        with use_metrics(MetricsRegistry()):
            mediator = _mediator(plan_cache_entries=64)
            stop = threading.Event()
            failures: list[BaseException] = []
            answers: list[frozenset] = []

            def asker(slot: int) -> None:
                try:
                    while not stop.is_set():
                        answer = mediator.ask(QUERIES[slot % len(QUERIES)])
                        if slot % len(QUERIES) == 0:
                            answers.append(answer.result.as_row_set())
                except BaseException as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)

            threads = [
                threading.Thread(target=asker, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            version_before = mediator.catalog_version
            for index in range(5):
                extra = bookstore(n=50, seed=index)
                extra.name = f"mirror{index}"
                mediator.add_source(extra)
                time.sleep(0.02)
            stop.set()
            deadline = time.monotonic() + JOIN_DEADLINE
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            assert mediator.catalog_version == version_before + 5
            # Every post-mutation lookup dropped its stale entry ...
            assert mediator.plan_cache.stats.invalidations >= 1
            # ... and the answers never changed (the catalog only grew).
            assert len(set(answers)) == 1

    def test_stale_plan_is_never_served_across_a_bump(self):
        with use_metrics(MetricsRegistry()):
            mediator = _mediator(plan_cache_entries=16)
            cold = mediator.ask(QUERIES[0])
            mediator.bump_catalog()
            warm = mediator.ask(QUERIES[0])
            assert warm.planning is not cold.planning
            assert mediator.plan_cache.stats.invalidations == 1


class TestAdmissionReconciliation:
    def test_generous_gate_admits_everything(self):
        with use_metrics(MetricsRegistry()) as registry:
            mediator = _mediator(plan_cache_entries=64, max_in_flight=4,
                                 admission_timeout=10.0)
            failures: list[BaseException] = []

            def worker(slot: int) -> None:
                try:
                    for index in range(4):
                        mediator.ask(QUERIES[(slot + index) % len(QUERIES)])
                except BaseException as exc:  # noqa: BLE001 - recorded
                    failures.append(exc)

            _run_threads(worker)
            assert not failures
            admission = mediator.admission
            assert admission.admitted == N_THREADS * 4
            assert admission.shed == 0
            assert admission.in_flight == 0
            snapshot = registry.snapshot()
            assert snapshot["serving.admission.admitted"]["value"] == \
                admission.admitted
            gauge = snapshot["serving.admission.in_flight"]
            assert gauge["value"] == 0
            assert 1 <= gauge["max"] <= 4

    def test_overload_sheds_with_exact_accounting(self):
        with use_metrics(MetricsRegistry()) as registry:
            mediator = _mediator(max_in_flight=1, admission_timeout=0.02)
            slow = mediator.source("bookstore")
            slow.latency = SimulatedLatency(seed=7, base=0.08, jitter=0.0)
            outcomes: list[str] = []
            lock = threading.Lock()

            def worker(slot: int) -> None:
                try:
                    mediator.ask(QUERIES[0])
                    result = "ok"
                except OverloadError as exc:
                    assert exc.waited >= 0.0
                    result = "shed"
                with lock:
                    outcomes.append(result)

            _run_threads(worker, count=8)
            assert len(outcomes) == 8
            shed = outcomes.count("shed")
            admission = mediator.admission
            assert shed >= 1, "an 80ms source behind a 20ms queue must shed"
            assert outcomes.count("ok") >= 1
            assert admission.admitted + admission.shed == 8
            assert admission.shed == shed
            assert admission.in_flight == 0
            snapshot = registry.snapshot()
            assert snapshot["serving.admission.shed"]["value"] == shed
            waits = snapshot["serving.admission.queue_wait_seconds"]
            assert waits["count"] == 8

    def test_max_in_flight_one_with_nested_fanout_sheds_not_deadlocks(self):
        """The deadline guard: a parallel executor fanning a Union out
        *inside* one admitted request must not consume admission slots,
        so max_in_flight=1 stays live -- contenders shed within the
        queue timeout instead of deadlocking on the gate."""
        with use_metrics(MetricsRegistry()):
            mediator = _mediator(
                plan_cache_entries=16, max_in_flight=1,
                admission_timeout=0.2, executor="parallel",
            )
            slow = mediator.source("bookstore")
            slow.latency = SimulatedLatency(seed=11, base=0.03, jitter=0.0)
            # A two-branch Union plan (one source query per author).
            fanout_query = QUERIES[1].replace(
                "author = 'Sigmund Freud' and title contains 'dreams'",
                "author = 'Sigmund Freud' or author = 'Carl Jung'",
            )
            outcomes: list[str] = []
            lock = threading.Lock()

            def worker(slot: int) -> None:
                try:
                    answer = mediator.ask(fanout_query)
                    assert len(answer.rows) > 0
                    result = "ok"
                except OverloadError:
                    result = "shed"
                with lock:
                    outcomes.append(result)

            started = time.monotonic()
            _run_threads(worker, count=6)
            elapsed = time.monotonic() - started
            assert len(outcomes) == 6
            assert outcomes.count("ok") >= 1
            assert mediator.admission.admitted + mediator.admission.shed == 6
            # Liveness: six 60ms requests through a width-1 gate with a
            # 200ms shed deadline must finish far inside the join
            # deadline -- this bound is what "no deadlock" means.
            assert elapsed < JOIN_DEADLINE / 2


class TestAdmissionController:
    def test_reentrant_admission_never_self_deadlocks(self):
        with use_metrics(MetricsRegistry()):
            gate = AdmissionController(1, queue_timeout=0.05)
            with gate.admit():
                with gate.admit():      # same thread: passes through
                    assert gate.in_flight == 1
            assert gate.in_flight == 0
            assert gate.admitted == 1   # one request, however nested

    def test_timeout_zero_sheds_immediately_when_full(self):
        with use_metrics(MetricsRegistry()):
            gate = AdmissionController(1, queue_timeout=0.0)
            entered = threading.Event()
            release = threading.Event()

            def holder() -> None:
                with gate.admit():
                    entered.set()
                    release.wait(JOIN_DEADLINE)

            thread = threading.Thread(target=holder, daemon=True)
            thread.start()
            assert entered.wait(JOIN_DEADLINE)
            with pytest.raises(OverloadError):
                with gate.admit():
                    pass  # pragma: no cover - never admitted
            release.set()
            thread.join(JOIN_DEADLINE)
            assert not thread.is_alive()
            assert gate.admitted == 1 and gate.shed == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(1, queue_timeout=-1.0)
