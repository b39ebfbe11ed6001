"""Single-flight coalescing for the async executor.

At internet scale identical work arrives *concurrently*: under a Zipf
constant mix, many in-flight asks name the same ``SP(C, A)`` on the
same source.  The serial and parallel executors pay one round-trip per
logical caller; the :class:`RequestCoalescer` is the execution-time
sharing layer that collapses them: callers whose ``(source, canonical
condition, attributes)`` key matches an in-flight physical call join it
instead of issuing their own.  One physical call runs (as its own task,
owned by the coalescer); every logical caller -- the initiator
included -- receives the same immutable
:class:`~repro.data.relation.Relation`, which hands out only fresh row
dicts, so nothing one caller does to its answer can leak into
another's.

Disjunctions need no execution-time merging: GenCompact already sends a
disjunction the source's form accepts as one source query (Eq. 1
charges ``k1`` per query), so the plan itself carries that saving.

The coalescer is **loop-confined**: every method that touches its map
runs on the executor's event loop, so there are no locks -- the event
loop is the serialization point.  Waiters are refcounted: a flight
whose every logical caller was cancelled is itself cancelled, leaving
no orphan task behind.
"""

from __future__ import annotations

# ``asyncio`` (with the ``ssl``, ``socket`` and ``selectors`` it loads) is
# imported inside the functions that run on a loop: a process on the
# serial or pool engine never loads it (DESIGN.md, "Resident size").
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.conditions.canonical import canonicalize
from repro.conditions.tree import Condition
from repro.data.relation import Relation

#: The coalescing identity of one source query.
FlightKey = tuple[str, Condition, frozenset]


def flight_key(source: str, condition: Condition,
               attributes: frozenset) -> FlightKey:
    """The single-flight key: regrouped spellings of a condition (one
    canonical tree, Section 6.4) share one flight."""
    return (source, canonicalize(condition), attributes)


@dataclass
class CoalesceStats:
    """What the coalescer saved (monotonic; read by tests and X16)."""

    #: Physical calls actually started by single flights.
    flights: int = 0
    #: Logical callers served by joining someone else's flight.
    coalesced_hits: int = 0

    def hit_rate(self) -> float:
        """Share of logical calls answered without their own round-trip."""
        total = self.flights + self.coalesced_hits
        return self.coalesced_hits / total if total else 0.0


class _Flight:
    """One in-flight physical call and its refcounted waiters."""

    __slots__ = ("future", "task", "waiters")

    def __init__(self) -> None:
        import asyncio
        self.future: asyncio.Future = \
            asyncio.get_running_loop().create_future()
        self.task: asyncio.Task | None = None
        self.waiters = 0


class RequestCoalescer:
    """The async executor's sharing layer (loop-confined, lock-free)."""

    def __init__(self) -> None:
        self.stats = CoalesceStats()
        self._flights: dict[FlightKey, _Flight] = {}

    # -- single flight -------------------------------------------------
    async def single_flight(
        self, key: FlightKey, start: Callable[[], Awaitable[Relation]]
    ) -> tuple[Relation, bool]:
        """Run ``start()`` once per in-flight key; share its answer.

        Returns ``(answer, shared)`` where ``shared`` says this caller
        joined an existing flight instead of starting one.  Errors propagate to
        every waiter.  A caller cancelled while waiting detaches; the
        last waiter to detach cancels the physical call itself.
        """
        import asyncio
        flight = self._flights.get(key)
        shared = flight is not None
        if flight is None:
            flight = _Flight()
            self._flights[key] = flight
            flight.task = asyncio.ensure_future(
                self._run_flight(key, flight, start())
            )
            self.stats.flights += 1
        else:
            self.stats.coalesced_hits += 1
        flight.waiters += 1
        try:
            # shield: a waiter's own cancellation must not cancel the
            # shared future out from under the other waiters.
            result = await asyncio.shield(flight.future)
        finally:
            flight.waiters -= 1
            if flight.waiters == 0:
                if flight.task is not None and not flight.task.done():
                    # Every logical caller is gone: abandon the call.
                    flight.task.cancel()
                elif flight.future.cancelled():
                    pass
                elif flight.future.done():
                    # Mark a dangling exception retrieved so an
                    # all-waiters-cancelled flight never warns.
                    flight.future.exception()
        return result, shared

    async def _run_flight(self, key: FlightKey, flight: _Flight,
                          call: Awaitable[Relation]) -> None:
        import asyncio
        try:
            result = await call
        except asyncio.CancelledError:
            if not flight.future.done():
                flight.future.cancel()
            raise
        except BaseException as exc:  # noqa: BLE001 - relayed to waiters
            if not flight.future.done():
                flight.future.set_exception(exc)
        else:
            if not flight.future.done():
                flight.future.set_result(result)
        finally:
            self._flights.pop(key, None)

    # -- shutdown ------------------------------------------------------
    def drain(self) -> None:
        """Cancel every outstanding flight (executor close)."""
        for flight in list(self._flights.values()):
            if flight.task is not None and not flight.task.done():
                flight.task.cancel()
        self._flights.clear()
