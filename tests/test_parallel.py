"""Unit tests for the parallel executor.

Semantics first: on every plan shape the ParallelExecutor must be a
drop-in for the serial Executor -- same rows, same errors, same
capability behaviour.  Then the concurrency machinery itself: the
worker cap, the per-source semaphore, inline fallback at
``max_workers=1``, pool lifecycle, and the multisource integration.
The wall-clock speedup claim lives in ``benchmarks/test_x9_parallel.py``;
the serial/parallel parity battery in ``tests/test_parallel_parity.py``.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro.conditions.parser import parse_condition
from repro.conditions.tree import TRUE
from repro.errors import (
    PlanExecutionError,
    SourceUnavailableError,
    UnsupportedQueryError,
)
from repro.multisource import MirrorGroup, PartitionedSource
from repro.plans.cache import ResultCache
from repro.plans.execute import Executor
from repro.plans.nodes import (
    IntersectPlan,
    Postprocess,
    SourceQuery,
    UnionPlan,
)
from repro.plans.parallel import ParallelExecutor
from repro.plans.retry import RetryPolicy
from repro.query import TargetQuery
from repro.source.faults import FaultInjector, SimulatedLatency
from repro.source.library import bookstore

ATTRS = frozenset({"id", "title"})
COND = parse_condition("author = 'Carl Jung'")


def _mirror_catalog(n_sources: int = 4, n_rows: int = 150) -> dict:
    """``n_sources`` renamed copies of the bookstore (same data)."""
    catalog = {}
    for index in range(n_sources):
        source = bookstore(n=n_rows, seed=1999)
        source.name = f"b{index}"
        catalog[source.name] = source
    return catalog


def _author_union(catalog) -> UnionPlan:
    return UnionPlan([
        SourceQuery(COND, ATTRS, name) for name in sorted(catalog)
    ])


# ----------------------------------------------------------------------
# Drop-in semantics


def test_union_rows_match_serial():
    catalog = _mirror_catalog()
    plan = _author_union(catalog)
    expected = Executor(catalog).execute(plan).as_row_set()
    with ParallelExecutor(catalog, max_workers=4) as executor:
        assert executor.execute(plan).as_row_set() == expected


def test_intersect_and_nested_combinations_match_serial():
    catalog = _mirror_catalog()
    inner = IntersectPlan([
        SourceQuery(COND, ATTRS, "b0"),
        SourceQuery(COND, ATTRS, "b1"),
    ])
    plan = UnionPlan([
        inner,
        Postprocess(TRUE, ATTRS, SourceQuery(COND, ATTRS, "b2")),
        _author_union(catalog),
    ])
    expected = Executor(catalog).execute(plan).as_row_set()
    with ParallelExecutor(catalog, max_workers=3) as executor:
        assert executor.execute(plan).as_row_set() == expected


def test_max_workers_one_degenerates_to_serial():
    catalog = _mirror_catalog()
    plan = _author_union(catalog)
    expected = Executor(catalog).execute(plan).as_row_set()
    with ParallelExecutor(catalog, max_workers=1) as executor:
        assert executor.execute(plan).as_row_set() == expected
        assert executor._pool is None  # no thread ever started


def test_capability_rejection_matches_serial_and_names_first_child():
    # b1's form rejects this condition; b3 would too, but serial
    # surfaces the earliest failing child and parallel must agree.
    # (fix_queries=False so the rejection comes from the source itself.)
    catalog = _mirror_catalog()
    bad = parse_condition("price <= 10")
    plan = UnionPlan([
        SourceQuery(COND, ATTRS, "b0"),
        SourceQuery(bad, ATTRS, "b1"),
        SourceQuery(COND, ATTRS, "b2"),
        SourceQuery(bad, ATTRS, "b3"),
    ])
    with pytest.raises(UnsupportedQueryError) as serial_err:
        Executor(catalog, fix_queries=False).execute(plan)
    with ParallelExecutor(
        catalog, fix_queries=False, max_workers=4
    ) as executor:
        with pytest.raises(UnsupportedQueryError) as parallel_err:
            executor.execute(plan)
    assert "'b1'" in str(serial_err.value)
    assert "'b1'" in str(parallel_err.value)


def test_unknown_source_still_raises():
    catalog = _mirror_catalog(2)
    plan = UnionPlan([
        SourceQuery(COND, ATTRS, "b0"),
        SourceQuery(COND, ATTRS, "nope"),
    ])
    with ParallelExecutor(catalog, max_workers=2) as executor:
        with pytest.raises(PlanExecutionError, match="unknown source"):
            executor.execute(plan)


def test_report_counts_sources_exactly_once_per_branch():
    catalog = _mirror_catalog()
    plan = _author_union(catalog)
    with ParallelExecutor(catalog, max_workers=4) as executor:
        report = executor.execute_with_report(plan)
    assert report.queries == 4
    assert report.attempts == 4
    assert report.retries == 0 and report.failovers == 0


# ----------------------------------------------------------------------
# Concurrency machinery


def test_worker_cap_bounds_global_fan_out():
    """With max_workers=2 at most 3 branches run at once (two workers
    plus the submitting thread running its inline share)."""
    catalog = _mirror_catalog(8)
    in_flight = []
    lock = threading.Lock()
    current = [0]

    async def tracking(self, source, condition, attrs):
        # The I/O primitive every engine calls once per source attempt.
        with lock:
            current[0] += 1
            in_flight.append(current[0])
        try:
            # A small real delay so branches genuinely overlap.
            threading.Event().wait(0.01)
            return source.execute(condition, attrs)
        finally:
            with lock:
                current[0] -= 1

    plan = _author_union(catalog)
    with ParallelExecutor(catalog, max_workers=2) as executor:
        executor._call = tracking.__get__(executor)
        executor.execute(plan)
    assert len(in_flight) == len(catalog)  # every branch went through it
    assert max(in_flight) <= 3
    assert max(in_flight) >= 2  # and it really did run concurrently


def test_per_source_semaphore_never_oversubscribed():
    source = bookstore(n=100, seed=1999)
    source.max_concurrency = 2
    source.latency = SimulatedLatency(seed=0, base=0.005)
    catalog = {"bookstore": source}
    # Eight branches, all against the same source.
    plan = UnionPlan([SourceQuery(COND, ATTRS, "bookstore")] * 8)
    with ParallelExecutor(catalog, max_workers=8) as executor:
        executor.execute(plan)
    assert source.max_in_flight <= 2
    assert source.in_flight == 0
    assert source.meter.queries == 8


def test_pool_is_reusable_across_executions_and_closes_idempotently():
    catalog = _mirror_catalog()
    plan = _author_union(catalog)
    executor = ParallelExecutor(catalog, max_workers=4)
    first = executor.execute(plan).as_row_set()
    second = executor.execute(plan).as_row_set()
    assert first == second
    pool = executor._pool
    assert pool is not None
    executor.close()
    executor.close()  # idempotent
    assert executor._pool is None


def test_invalid_max_workers_rejected():
    with pytest.raises(ValueError, match="max_workers"):
        ParallelExecutor({}, max_workers=0)


def test_shared_cache_masks_repeat_queries():
    catalog = _mirror_catalog()
    cache = ResultCache()
    plan = _author_union(catalog)
    with ParallelExecutor(catalog, cache=cache, max_workers=4) as executor:
        executor.execute(plan)
        before = {n: s.meter.queries for n, s in catalog.items()}
        executor.execute(plan)  # all hits: sources not contacted again
        after = {n: s.meter.queries for n, s in catalog.items()}
    assert before == after
    assert cache.stats.hits >= 4


def test_retry_recovers_faulted_branches():
    catalog = _mirror_catalog()
    plan = _author_union(catalog)
    expected = Executor(catalog).execute(plan).as_row_set()
    for index, source in enumerate(catalog.values()):
        source.fault_injector = FaultInjector(seed=index, transient_rate=0.4)
    policy = RetryPolicy(max_attempts=30)
    with ParallelExecutor(
        catalog, retry_policy=policy, max_workers=4
    ) as executor:
        report = executor.execute_with_report(plan)
    assert report.result.as_row_set() == expected
    assert report.attempts == report.queries + sum(
        s.meter.failures for s in catalog.values()
    )


def test_branch_that_exhausts_retries_propagates_fault():
    catalog = _mirror_catalog(3)
    catalog["b1"].fault_injector = FaultInjector(seed=0)
    catalog["b1"].fault_injector.take_down()
    plan = _author_union(catalog)
    policy = RetryPolicy(max_attempts=2)
    with ParallelExecutor(
        catalog, retry_policy=policy, max_workers=3
    ) as executor:
        with pytest.raises(SourceUnavailableError):
            executor.execute(plan)


# ----------------------------------------------------------------------
# Multisource integration


def _partitions() -> list:
    out = []
    for index in range(3):
        part = bookstore(n=120, seed=2000 + index)
        part.name = f"part{index}"
        out.append(part)
    return out


def test_partitioned_source_on_the_pool():
    serial_group = PartitionedSource(_partitions())
    parallel_group = PartitionedSource(_partitions(), executor="parallel")
    assert isinstance(parallel_group._executor, ParallelExecutor)
    query = TargetQuery(COND, ATTRS, "books")
    expected = serial_group.ask(query).result.as_row_set()
    got = parallel_group.ask(query).result.as_row_set()
    assert got == expected


def test_mirror_group_on_the_pool_answers_and_fails_over():
    mirrors = []
    for name in ("m0", "m1"):
        mirror = bookstore(n=120, seed=1999)
        mirror.name = name
        mirrors.append(mirror)
    group = MirrorGroup(
        mirrors,
        retry_policy=RetryPolicy(max_attempts=2),
        executor="parallel",
    )
    assert isinstance(group._executor, ParallelExecutor)
    query = TargetQuery(COND, ATTRS, "books")
    healthy = group.ask(query).result.as_row_set()
    # Take the cheapest mirror down: the group must fail over.
    mirrors[0].fault_injector = FaultInjector(seed=0)
    mirrors[0].fault_injector.take_down()
    mirrors[1].fault_injector = FaultInjector(seed=1)
    report = group.ask(query)
    assert report.result.as_row_set() == healthy


def _mirrors() -> list:
    out = []
    for name in ("m0", "m1"):
        mirror = bookstore(n=120, seed=1999)
        mirror.name = name
        out.append(mirror)
    return out


@pytest.mark.parametrize("make_group", [
    lambda: MirrorGroup(_mirrors(), executor="parallel"),
    lambda: PartitionedSource(_partitions(), executor="parallel"),
], ids=["mirror", "partition"])
def test_closing_a_group_stops_its_pool_threads(make_group):
    """A group's worker pool lives until ``close()`` -- or the end of
    its ``with`` block -- not until garbage collection; the group stays
    usable and the pool restarts on the next fan-out."""
    fan_out = TargetQuery(
        parse_condition("author = 'Carl Jung' or author = 'Sigmund Freud'"),
        ATTRS, "books",
    )

    def pool_threads(before: set) -> list:
        return [t for t in threading.enumerate() if t not in before
                and t.name.startswith("repro-parallel")]

    before = set(threading.enumerate())
    with make_group() as group:
        answer = group.ask(fan_out).result.as_row_set()
        started = pool_threads(before)
        assert started  # the union fanned out onto the pool
    assert not any(t.is_alive() for t in started)
    assert group.ask(fan_out).result.as_row_set() == answer
    assert pool_threads(before)
    group.close()
    group.close()
    assert pool_threads(before) == []


def test_a_dropped_mirror_group_stops_its_pool_threads():
    """The group's failover hook holds the group weakly, so dropping an
    unclosed group frees its executor by reference counting and the pool
    threads exit -- no cyclic collection needed."""
    before = set(threading.enumerate())
    fan_out = TargetQuery(
        parse_condition("author = 'Carl Jung' or author = 'Sigmund Freud'"),
        ATTRS, "books",
    )
    gc.disable()
    try:
        group = MirrorGroup(_mirrors(), executor="parallel")
        group.ask(fan_out)
        started = [t for t in threading.enumerate() if t not in before
                   and t.name.startswith("repro-parallel")]
        assert started
        del group
        deadline = time.monotonic() + 5.0
        while any(t.is_alive() for t in started):
            assert time.monotonic() < deadline, "pool threads outlived the group"
            time.sleep(0.005)
    finally:
        gc.enable()
