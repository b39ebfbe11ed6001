"""Concurrency stress tests: faults, mirrors, budgets, and throttles.

Everything here runs under a deadline guard -- a hung pool (the classic
nested-fan-out deadlock this executor's inline-fallback design rules
out) fails the test instead of hanging the suite.  The accounting
assertions are *exact*: whatever the thread interleaving, every attempt
lands in a meter, every retry consumes one budget token, and no source
ever sees more in-flight calls than its declared capacity.
"""

from __future__ import annotations

import threading

import pytest

from repro.conditions.parser import parse_condition
from repro.errors import TransientSourceError
from repro.multisource import MirrorGroup
from repro.plans.execute import Executor
from repro.plans.nodes import SourceQuery, UnionPlan
from repro.plans.parallel import ParallelExecutor
from repro.plans.retry import RetryPolicy
from repro.source.faults import FaultInjector, SimulatedLatency
from repro.source.library import bookstore

ATTRS = frozenset({"id", "title"})
COND = parse_condition("author = 'Carl Jung'")
DEADLINE = 120.0


def _run_with_deadline(fn, seconds: float = DEADLINE):
    """Run ``fn`` on a thread; fail the test if it never finishes."""
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "parallel execution deadlocked"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


class _ProbeLatency(SimulatedLatency):
    """Latency that measures how many calls overlap *inside* the
    source's concurrency slot -- independent instrumentation for the
    never-oversubscribed assertion."""

    def __init__(self, base: float = 0.003):
        super().__init__(seed=0, base=base, real_sleep=True)
        self.peak = 0
        self._concurrent = 0
        self._probe_lock = threading.Lock()

    def apply(self) -> float:
        with self._probe_lock:
            self._concurrent += 1
            self.peak = max(self.peak, self._concurrent)
        try:
            return super().apply()
        finally:
            with self._probe_lock:
                self._concurrent -= 1


def _mirrors(n: int, fault_p: float = 0.0, limit: int | None = None,
             probe: bool = False) -> list:
    out = []
    for index in range(n):
        source = bookstore(n=150, seed=1999)
        source.name = f"m{index}"
        if fault_p > 0.0:
            source.fault_injector = FaultInjector(
                seed=1000 + index,
                transient_rate=0.6 * fault_p,
                timeout_rate=0.25 * fault_p,
                rate_limit_rate=0.15 * fault_p,
            )
        if limit is not None:
            source.max_concurrency = limit
        if probe:
            source.latency = _ProbeLatency()
        out.append(source)
    return out


def _meters(catalog) -> dict:
    return {name: s.meter.snapshot() for name, s in catalog.items()}


def _delta(catalog, before) -> dict:
    totals = {"queries": 0, "failures": 0, "retries": 0, "rejected": 0}
    for name, source in catalog.items():
        diff = source.meter.snapshot() - before[name]
        totals["queries"] += diff.queries
        totals["failures"] += diff.failures
        totals["retries"] += diff.retries
        totals["rejected"] += diff.rejected
    return totals


# ----------------------------------------------------------------------


def test_stress_mirrors_20pct_faults_budget_and_exact_accounting():
    """The headline scenario from the issue: 20% per-call faults, four
    mirrors doubling as failover targets, a bounded retry budget, wide
    fan-out -- no deadlock, and the report's accounting reconciles
    exactly against the source meters."""
    mirrors = _mirrors(4, fault_p=0.2, limit=3, probe=True)
    group = MirrorGroup(
        mirrors,
        retry_policy=RetryPolicy(
            max_attempts=6, base_backoff=0.001, retry_budget=200,
        ),
        executor="parallel",
    )
    catalog = group.sources
    # A wide union across all mirrors (every mirror holds the same
    # data, so the union is feasible and equal to any single answer).
    plan = UnionPlan(
        [SourceQuery(COND, ATTRS, name) for name in catalog] * 3
    )
    expected = Executor({"ref": bookstore(n=150, seed=1999)}).execute(
        SourceQuery(COND, ATTRS, "ref")
    ).as_row_set()

    before = _meters(catalog)
    report = _run_with_deadline(
        lambda: group._executor.execute_with_report(plan)
    )
    moved = _delta(catalog, before)

    assert report.result.as_row_set() == expected
    # Every attempt ended at a meter: success, injected fault, or
    # rejection -- nothing lost, nothing double-counted.
    assert report.attempts == (
        moved["queries"] + moved["failures"] + moved["rejected"]
    )
    assert moved["rejected"] == 0
    # Every retry the context charged was recorded at some source.
    assert report.retries == moved["retries"]
    assert report.retries == sum(
        delta.retries for delta in report.per_source.values()
    )
    assert report.retries <= 200
    # Backoff was accounted (simulated) whenever a retry happened.
    assert (report.backoff_seconds > 0.0) == (report.retries > 0)
    # The per-source throttle held, measured two independent ways.
    for source in catalog.values():
        assert source.max_in_flight <= 3
        assert source.latency.peak <= 3
        assert source.in_flight == 0


def test_stress_retry_budget_is_consumed_exactly_once_plan_wide():
    """All sources hard-down, generous per-query attempts, tiny shared
    budget: however the branches race, exactly ``budget`` retry tokens
    get consumed."""
    mirrors = _mirrors(4)
    for source in mirrors:
        source.fault_injector = FaultInjector(seed=0)
        source.fault_injector.take_down()
    catalog = {s.name: s for s in mirrors}
    plan = UnionPlan([SourceQuery(COND, ATTRS, name) for name in catalog])
    budget = 3
    executor = ParallelExecutor(
        catalog,
        retry_policy=RetryPolicy(
            max_attempts=10, base_backoff=0.0, jitter=0.0,
            retry_budget=budget,
        ),
        max_workers=4,
    )
    before = _meters(catalog)
    with executor:
        with pytest.raises(TransientSourceError):
            _run_with_deadline(lambda: executor.execute(plan))
    moved = _delta(catalog, before)
    assert moved["retries"] == budget
    # 4 first attempts + exactly `budget` re-attempts, all faulted.
    assert moved["failures"] == len(catalog) + budget
    assert moved["queries"] == 0


def test_stress_failover_counts_are_exact_in_parallel():
    """One mirror hard-down, one healthy: the dead branch burns its two
    attempts, fails over, and the report shows exactly that -- even
    though the healthy branch runs concurrently."""
    mirrors = _mirrors(2)
    mirrors[0].fault_injector = FaultInjector(seed=0)
    mirrors[0].fault_injector.take_down()
    group = MirrorGroup(
        mirrors,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.001),
        executor="parallel",
    )
    plan = UnionPlan([
        SourceQuery(COND, ATTRS, "m0"),
        SourceQuery(COND, ATTRS, "m1"),
    ])
    report = _run_with_deadline(
        lambda: group._executor.execute_with_report(plan)
    )
    # m0: first attempt + one retry (both fault), then a failover
    # re-plan answered by m1; m1's own branch: one attempt.
    assert report.failovers == 1
    assert report.retries == 1
    assert report.per_source["m0"].retries == 1
    assert report.attempts == 4
    assert mirrors[0].meter.failures == 2
    assert mirrors[1].meter.queries == 2
    expected = Executor({"m1": mirrors[1]}).execute(
        SourceQuery(COND, ATTRS, "m1")
    ).as_row_set()
    assert report.result.as_row_set() == expected


def test_stress_deep_nested_fan_out_does_not_deadlock_tiny_pool():
    """A 3-deep tree of unions on a 2-worker pool: the inline-fallback
    design must keep making progress (this is the shape that deadlocks
    a naive bounded-pool executor)."""
    catalog = {s.name: s for s in _mirrors(4, probe=True)}
    names = sorted(catalog)

    def tree(depth: int) -> UnionPlan:
        if depth == 0:
            return UnionPlan(
                [SourceQuery(COND, ATTRS, name) for name in names]
            )
        return UnionPlan([tree(depth - 1), tree(depth - 1)])

    plan = tree(3)
    serial_rows = Executor(catalog).execute(plan).as_row_set()
    with ParallelExecutor(catalog, max_workers=2) as executor:
        rows = _run_with_deadline(lambda: executor.execute(plan))
    assert rows.as_row_set() == serial_rows


def test_stress_many_plans_reuse_one_pool_without_leaking_slots():
    """Back-to-back executions on one executor: the worker-slot
    semaphore must end each run fully released (a leak would strangle
    later runs into serial execution, or deadlock)."""
    catalog = {s.name: s for s in _mirrors(4, fault_p=0.2)}
    plan = UnionPlan(
        [SourceQuery(COND, ATTRS, name) for name in sorted(catalog)]
    )
    policy = RetryPolicy(max_attempts=8, base_backoff=0.0)
    with ParallelExecutor(
        catalog, retry_policy=policy, max_workers=4
    ) as executor:
        for _ in range(25):
            _run_with_deadline(lambda: executor.execute(plan))
        # All worker tokens are back: we can immediately take them all.
        for _ in range(executor.max_workers):
            assert executor._slots.acquire(blocking=False)
        for _ in range(executor.max_workers):
            executor._slots.release()
