"""Thread-safety regression tests for the shared execution-layer state.

The parallel executor hits one source's meter, one shared result cache
and one fault injector from many worker threads at once.  All three
were plain read-modify-write before PR 2; these tests hammer each from
16 threads and assert that not a single increment is lost and not a
single torn value is observed.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.conditions.atoms import Atom, Op
from repro.conditions.parser import parse_condition
from repro.conditions.tree import Leaf
from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema
from repro.plans.async_exec import AsyncExecutor
from repro.plans.cache import ResultCache
from repro.plans.execute import Executor
from repro.plans.nodes import SourceQuery
from repro.plans.parallel import ParallelExecutor
from repro.source.faults import FaultInjector, SimulatedLatency
from repro.source.library import bookstore
from repro.source.metering import MeterSnapshot, QueryMeter

N_THREADS = 16
N_OPS = 500


def _hammer(worker, n_threads: int = N_THREADS) -> None:
    """Run ``worker(thread_index)`` on N threads, started simultaneously."""
    barrier = threading.Barrier(n_threads)

    def _run(index: int) -> None:
        barrier.wait()
        worker(index)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(_run, i) for i in range(n_threads)]
        for future in futures:
            future.result()


# ----------------------------------------------------------------------
# QueryMeter


def test_meter_increments_are_exact_under_16_threads():
    meter = QueryMeter()

    def worker(_index: int) -> None:
        for _ in range(N_OPS):
            meter.record(result_size=3)
            meter.record_rejection()
            meter.record_failure()
            meter.record_retry()

    _hammer(worker)
    snap = meter.snapshot()
    assert snap.queries == N_THREADS * N_OPS
    assert snap.tuples == 3 * N_THREADS * N_OPS
    assert snap.rejected == N_THREADS * N_OPS
    assert snap.failures == N_THREADS * N_OPS
    assert snap.retries == N_THREADS * N_OPS


def test_meter_snapshots_are_consistent_cuts():
    """queries and tuples move together under the lock: a snapshot taken
    mid-hammer never shows one advanced without the other."""
    meter = QueryMeter()
    stop = threading.Event()
    torn: list = []

    def reader() -> None:
        while not stop.is_set():
            snap = meter.snapshot()
            if snap.tuples != 3 * snap.queries:
                torn.append(snap)
                return

    reader_thread = threading.Thread(target=reader)
    reader_thread.start()
    try:
        _hammer(lambda _i: [meter.record(3) for _ in range(N_OPS)])
    finally:
        stop.set()
        reader_thread.join()
    assert not torn, f"torn snapshot observed: {torn[:1]}"


# ----------------------------------------------------------------------
# ResultCache


def _relation(rows: list[dict]) -> Relation:
    schema = Schema.of("t", [("k", AttrType.INT), ("v", AttrType.STRING)])
    return Relation(schema, rows)


def test_cache_concurrent_put_get_same_key_returns_consistent_copies():
    cache = ResultCache(max_tuples=10_000)
    condition = parse_condition("k = 1")
    attrs = frozenset({"k", "v"})
    # Two candidate values; whatever interleaving happens, a get must
    # return one of them whole, never a mixture or a shared reference.
    payloads = [
        _relation([{"k": i, "v": f"val{i}"} for i in range(10)]),
        _relation([{"k": i, "v": f"VAL{i}"} for i in range(10)]),
    ]
    valid = {p.as_row_set() for p in payloads}
    bad: list = []

    def worker(index: int) -> None:
        mine = payloads[index % 2]
        for _ in range(N_OPS):
            cache.put("s", condition, attrs, mine)
            got = cache.get("s", condition, attrs)
            if got is None:
                continue
            if got.as_row_set() not in valid:
                bad.append(got)
                return
            # The rows a relation hands out are ours to mutate; doing
            # so must not corrupt what other threads read next.
            got.rows[0]["v"] = "mutated"
            for row in got:
                row["v"] = "mutated"

    _hammer(worker)
    assert not bad, "cache returned a torn or corrupted relation"
    final = cache.get("s", condition, attrs)
    assert final is not None and final.as_row_set() in valid


def test_cache_lru_accounting_survives_concurrent_eviction():
    """The tuple budget stays exact when 16 threads force evictions."""
    cache = ResultCache(max_tuples=50)
    attrs = frozenset({"k", "v"})
    payload = _relation([{"k": i, "v": "x"} for i in range(10)])

    def worker(index: int) -> None:
        for op in range(N_OPS // 5):
            condition = parse_condition(f"k = {index * 1000 + op}")
            cache.put("s", condition, attrs, payload)
            cache.get("s", condition, attrs)

    _hammer(worker)
    assert cache.cached_tuples <= cache.max_tuples
    assert cache.cached_tuples == sum(
        len(cache._entries[key]) for key in cache._entries
    )
    assert cache.stats.evictions > 0


# ----------------------------------------------------------------------
# FaultInjector / SimulatedLatency


def test_fault_injector_draws_exactly_once_per_call_under_threads():
    injector = FaultInjector(seed=42, transient_rate=0.5)
    faults: list = []

    def worker(_index: int) -> None:
        mine = 0
        for _ in range(N_OPS):
            if injector.draw("s") is not None:
                mine += 1
        faults.append(mine)

    _hammer(worker)
    total_calls = N_THREADS * N_OPS
    # Counters are exact: every injected fault was returned to somebody.
    assert injector.total_injected == sum(faults)
    # The seeded sequence was consumed once per call: the fault fraction
    # matches the configured rate (law of large numbers at 8000 draws).
    assert abs(sum(faults) / total_calls - 0.5) < 0.05


def test_simulated_latency_accounting_is_exact_under_threads():
    latency = SimulatedLatency(seed=7, base=0.0, jitter=0.001,
                               real_sleep=False)

    def worker(_index: int) -> None:
        for _ in range(N_OPS):
            latency.apply()

    _hammer(worker)
    assert latency.calls == N_THREADS * N_OPS
    # All draws came from the seeded sequence, none lost or duplicated:
    # replaying the RNG serially reproduces the accumulated total.
    import random
    rng = random.Random(7)
    expected = sum(rng.random() * 0.001 for _ in range(latency.calls))
    assert abs(latency.slept_seconds - expected) < 1e-9


# ----------------------------------------------------------------------
# ExecutionReport


@pytest.mark.parametrize("engine", ["serial", "parallel", "async"])
def test_concurrent_reports_count_only_their_own_calls(engine):
    """Regression: the serial and parallel engines diffed the *global*
    source meters around an execution, so N overlapping executions
    reported 1, 2, ... N queries instead of 1 each."""
    n_threads = 6
    source = bookstore(n=600, seed=1999)
    source.latency = SimulatedLatency(seed=3, base=0.05, real_sleep=True)
    authors = sorted({row["author"] for row in source.relation})[:n_threads]
    attrs = frozenset({"id", "title", "author"})
    plans = [
        SourceQuery(Leaf(Atom("author", Op.EQ, author)), attrs, "bookstore")
        for author in authors
    ]
    catalog = {"bookstore": source}
    executor = {
        "serial": lambda: Executor(catalog),
        "parallel": lambda: ParallelExecutor(catalog, max_workers=4),
        "async": lambda: AsyncExecutor(catalog),
    }[engine]()
    reports = [None] * n_threads

    def worker(index: int) -> None:
        reports[index] = executor.execute_with_report(plans[index])

    try:
        _hammer(worker, n_threads)
    finally:
        if engine != "serial":
            executor.close()
    # The calls really did overlap, so a meter diff would see them all.
    assert source.max_in_flight > 1
    for report in reports:
        rows = len(report.result)
        assert rows > 0
        assert (report.queries, report.tuples_transferred) == (1, rows)
        assert report.per_source == {
            "bookstore": MeterSnapshot(queries=1, tuples=rows)
        }
    meter = source.meter.snapshot()
    assert meter.queries == sum(r.queries for r in reports) == n_threads
    assert meter.tuples == sum(r.tuples_transferred for r in reports)
