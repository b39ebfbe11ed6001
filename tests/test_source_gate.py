"""The ``max_concurrency`` gate: one in-flight count for every caller.

A throttled :class:`~repro.source.source.CapabilitySource` serves at
most ``max_concurrency`` calls at once, whoever makes them: blocking
callers on threads, awaiting callers on one event loop or on several,
or all of these at the same time.  Calls past the limit queue in
arrival order and a leaving call hands its slot to the oldest one.
Each case below runs on a site with a 200 ms round trip and one slot,
so an oversubscribed gate shows as ``max_in_flight`` 2.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.mediator import Mediator
from repro.plans.async_exec import AsyncExecutor
from repro.plans.execute import reference_answer
from repro.plans.nodes import SourceQuery
from repro.query import parse_query
from repro.source.faults import SimulatedLatency
from repro.source.library import bookstore

TEXT = "SELECT id, title FROM bookstore WHERE author = 'Carl Jung'"
QUERY = parse_query(TEXT)
CALL = (QUERY.condition, QUERY.attributes)


def _throttled(limit: int = 1):
    source = bookstore(n=100, seed=1999)
    source.latency = SimulatedLatency(base=0.2, jitter=0.0)
    source.max_concurrency = limit
    return source


def _wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


def _in_background(call) -> tuple[threading.Thread, list]:
    """Start ``call`` on a thread; its return value lands in the list."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(call()))
    thread.start()
    return thread, out


def _expected(source):
    return reference_answer(source, *CALL).as_row_set()


def test_a_blocking_and_an_awaiting_ask_share_the_limit():
    source = _throttled()
    with Mediator() as mediator:
        mediator.add_source(source)
        serial, out = _in_background(lambda: mediator.ask(TEXT))
        _wait_until(lambda: source.in_flight == 1)
        on_loop = mediator.ask(TEXT, executor="async")
        serial.join()
    assert source.max_in_flight == 1
    assert out[0].result.as_row_set() == _expected(source)
    assert on_loop.result.as_row_set() == _expected(source)
    assert source.in_flight == 0


def test_two_event_loops_share_the_limit():
    source = _throttled()
    plan = SourceQuery(*CALL, "bookstore")
    catalog = {"bookstore": source}
    with AsyncExecutor(catalog) as first, AsyncExecutor(catalog) as second:
        thread, out = _in_background(lambda: first.execute(plan))
        _wait_until(lambda: source.in_flight == 1)
        answer = second.execute(plan)
        thread.join()
    assert source.max_in_flight == 1
    assert out[0].as_row_set() == _expected(source)
    assert answer.as_row_set() == _expected(source)
    assert source.in_flight == 0


class TestCancellation:
    """A waiter cancelled at the gate takes no slot and leaks none."""

    @staticmethod
    def _settled(source) -> None:
        assert source.in_flight == 0
        assert not source._queue
        # Only the holder reached the site; then a blocking call gets in.
        assert source.meter.queries == 1
        assert source.execute(*CALL).as_row_set() == _expected(source)
        assert source.max_in_flight == 1

    def test_cancelled_while_queued(self):
        source = _throttled()

        async def scenario():
            holder = asyncio.ensure_future(source.execute_async(*CALL))
            while source.in_flight == 0:
                await asyncio.sleep(0.002)
            waiter = asyncio.ensure_future(source.execute_async(*CALL))
            while not source._queue:
                await asyncio.sleep(0.002)
            ticket = source._queue[0]
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert ticket.cancelled()
            await holder

        asyncio.run(scenario())
        self._settled(source)

    def test_cancelled_as_the_slot_is_handed_over(self):
        source = _throttled()

        async def scenario():
            holder = asyncio.ensure_future(source.execute_async(*CALL))
            while source.in_flight == 0:
                await asyncio.sleep(0.002)
            waiter = asyncio.ensure_future(source.execute_async(*CALL))
            while not source._queue:
                await asyncio.sleep(0.002)
            ticket = source._queue[0]
            # The holder's exit hands its slot to the waiter's ticket;
            # the waiter is cancelled before it resumes to take it.
            await holder
            assert ticket.done() and not ticket.cancelled()
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter

        asyncio.run(scenario())
        self._settled(source)


class TestLiveLimit:
    def test_lowering_the_limit_holds_for_the_next_calls(self):
        source = _throttled(limit=3)
        trio = [_in_background(lambda: source.execute(*CALL)) for _ in range(3)]
        for thread, _ in trio:
            thread.join()
        assert source.max_in_flight == 3
        source.max_concurrency = 1
        source.max_in_flight = 0
        trio = [_in_background(lambda: source.execute(*CALL)) for _ in range(3)]
        for thread, _ in trio:
            thread.join()
        assert source.max_in_flight == 1
        assert source.in_flight == 0

    def test_lowering_the_limit_holds_for_queued_calls(self):
        source = _throttled(limit=2)
        first = [_in_background(lambda: source.execute(*CALL)) for _ in range(2)]
        _wait_until(lambda: source.in_flight == 2)
        queued = [_in_background(lambda: source.execute(*CALL)) for _ in range(2)]
        _wait_until(lambda: len(source._queue) == 2)
        source.max_concurrency = 1
        for thread, _ in first:
            thread.join()
        # From here on the two queued calls are served one at a time.
        peak = 0
        while any(thread.is_alive() for thread, _ in queued):
            peak = max(peak, source.in_flight)
            time.sleep(0.002)
        assert peak == 1
        assert source.in_flight == 0 and not source._queue
        assert source.meter.queries == 4

    def test_raising_the_limit_admits_queued_calls(self):
        source = _throttled(limit=1)
        calls = [_in_background(lambda: source.execute(*CALL))
                 for _ in range(4)]
        _wait_until(lambda: len(source._queue) == 3)
        source.max_concurrency = 3
        assert source.in_flight == 3
        source.max_concurrency = None
        assert source.in_flight == 4 and not source._queue
        for thread, _ in calls:
            thread.join()
        assert source.max_in_flight == 4
        assert source.in_flight == 0
        for _, out in calls:
            assert out[0].as_row_set() == _expected(source)


@pytest.mark.parametrize("limit", [0, -1])
def test_an_invalid_limit_is_refused_at_assignment(limit):
    source = _throttled()
    with pytest.raises(ValueError, match="max_concurrency must be at least 1"):
        source.max_concurrency = limit
    assert source.max_concurrency == 1
    with pytest.raises(ValueError, match="max_concurrency must be at least 1"):
        type(source)(source.name, source.relation, source.description,
                     max_concurrency=limit)
