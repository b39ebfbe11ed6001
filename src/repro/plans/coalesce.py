"""Single-flight coalescing and disjunct batching for the async executor.

At internet scale identical work arrives *concurrently*: under a Zipf
constant mix, many in-flight asks name the same ``SP(C, A)`` on the
same source.  The serial and parallel executors pay one round-trip per
logical caller; the :class:`RequestCoalescer` is the execution-time
sharing layer that collapses them:

* **single flight** -- callers whose ``(source, canonical condition,
  attributes)`` key matches an in-flight physical call join it instead
  of issuing their own.  One physical call runs (as its own task, owned
  by the coalescer); every logical caller -- the initiator included --
  receives the same immutable :class:`~repro.data.relation.Relation`,
  which hands out only fresh row dicts, so nothing one caller does to
  its answer can leak into another's.
* **disjunct batching** -- when several pending asks differ only in the
  constant of one equality atom (``author = 'X'`` vs ``author = 'Y'``)
  and the source's compiled grammar admits disjunctive constants on
  that attribute, the coalescer holds them for a short window and the
  executor issues **one** merged ``SP(X or Y, A + {attr})``, then
  post-filters per caller.  When the grammar refuses the disjunction
  the batch falls back to individual single flights -- never a
  capability error the callers didn't ask for.

The coalescer is **loop-confined**: every method that touches its maps
runs on the executor's event loop, so there are no locks -- the event
loop is the serialization point.  Waiters are refcounted: a flight (or
batch) whose every logical caller was cancelled is itself cancelled,
leaving no orphan task behind.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

from repro.conditions.atoms import Op
from repro.conditions.canonical import canonicalize
from repro.conditions.tree import Condition, Leaf, disjunction
from repro.data.relation import Relation

#: The coalescing identity of one source query.
FlightKey = tuple[str, Condition, frozenset]
#: The batching identity: source, answer attributes, batched attribute.
BatchKey = tuple[str, frozenset, str]


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
    #: Merged disjunctive physical calls issued.
    batches: int = 0
    #: Logical callers folded into a merged batch (followers only).
    batched_hits: int = 0
    #: Batches whose grammar refused the disjunction (fell back).
    batch_fallbacks: int = 0

    def hit_rate(self) -> float:
        """Share of logical calls answered without their own round-trip."""
        shared = self.coalesced_hits + self.batched_hits
        total = self.flights + self.batches + shared
        return shared / total if total else 0.0


class _Flight:
    """One in-flight physical call and its refcounted waiters."""

    __slots__ = ("future", "task", "waiters")

    def __init__(self) -> None:
        self.future: asyncio.Future = \
            asyncio.get_running_loop().create_future()
        self.task: asyncio.Task | None = None
        self.waiters = 0


@dataclass
class _BatchEntry:
    condition: Condition
    future: asyncio.Future
    cancelled: bool = False


@dataclass
class _Batch:
    """Pending asks for one ``(source, attrs, attr)`` awaiting a flush."""

    entries: list[_BatchEntry] = field(default_factory=list)
    flusher: asyncio.Task | None = None
    closed: bool = False


class RequestCoalescer:
    """The async executor's sharing layer (loop-confined, lock-free)."""

    def __init__(self, batch_window: float | None = None,
                 batch_max: int = 16):
        """``batch_window`` is how long (seconds) the first pending ask
        of a batchable shape waits for companions before flushing;
        ``None`` disables batching (single flight still applies).
        ``batch_max`` flushes a batch early once that many asks piled
        up."""
        if batch_max < 2:
            raise ValueError("batch_max must be at least 2")
        self.batch_window = batch_window
        self.batch_max = batch_max
        self.stats = CoalesceStats()
        self._flights: dict[FlightKey, _Flight] = {}
        self._batches: dict[BatchKey, _Batch] = {}

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

    # -- disjunct batching ---------------------------------------------
    @staticmethod
    def batchable(condition: Condition) -> str | None:
        """The batched attribute, if ``condition`` is one equality atom."""
        if isinstance(condition, Leaf) and condition.atom.op is Op.EQ:
            return condition.atom.attribute
        return None

    async def batch_call(
        self,
        key: BatchKey,
        condition: Condition,
        supports: Callable[[Sequence[Condition]], bool],
        run_merged: Callable[[Condition], Awaitable[Relation]],
    ) -> tuple[Relation | None, str]:
        """Join the pending batch for ``key``; flush after the window.

        ``supports`` decides (from the compiled grammar) whether the
        distinct conditions' disjunction is acceptable; ``run_merged``
        issues the one physical call.  Exactly one pending caller's
        ``run_merged`` closure is invoked (the batch opener's, or the
        early-flush trigger's when ``batch_max`` fills first), so the
        physical call's accounting lands on that caller -- the batch
        **leader**.

        Returns ``(relation, role)``:

        * ``(rel, "merged")`` -- ``rel`` is the **shared merged**
          answer over ``attrs + {attr}``; the caller must post-filter
          with its own condition and project.
        * ``(None, "single")`` -- the batch didn't pay off (lone entry,
          or grammar refused the disjunction): the caller should fall
          back to its own single flight.
        """
        if self.batch_window is None:
            return None, "single"
        batch = self._batches.get(key)
        if batch is None or batch.closed:
            batch = _Batch()
            self._batches[key] = batch
            batch.flusher = asyncio.ensure_future(
                self._flush_later(key, batch, supports, run_merged)
            )
        entry = _BatchEntry(
            condition, asyncio.get_running_loop().create_future()
        )
        batch.entries.append(entry)
        if len(batch.entries) >= self.batch_max:
            self._close(key, batch)
            if batch.flusher is not None:
                batch.flusher.cancel()
            asyncio.ensure_future(
                self._flush(batch, supports, run_merged)
            )
        try:
            return await asyncio.shield(entry.future)
        except asyncio.CancelledError:
            entry.cancelled = True
            if all(e.cancelled for e in batch.entries):
                self._close(key, batch)
                if batch.flusher is not None:
                    batch.flusher.cancel()
            raise

    def _close(self, key: BatchKey, batch: _Batch) -> None:
        batch.closed = True
        if self._batches.get(key) is batch:
            del self._batches[key]

    async def _flush_later(self, key, batch, supports, run_merged) -> None:
        await asyncio.sleep(self.batch_window or 0.0)
        if batch.closed:
            return
        self._close(key, batch)
        await self._flush(batch, supports, run_merged)

    async def _flush(self, batch: _Batch, supports, run_merged) -> None:
        entries = [e for e in batch.entries if not e.cancelled]
        if not entries:
            return
        distinct: list[Condition] = []
        for entry in entries:
            if entry.condition not in distinct:
                distinct.append(entry.condition)
        if len(distinct) < 2 or not supports(distinct):
            if len(distinct) >= 2:
                self.stats.batch_fallbacks += 1
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_result((None, "single"))
            return
        merged = disjunction(distinct)
        try:
            result = await run_merged(merged)
        except asyncio.CancelledError:
            for entry in entries:
                if not entry.future.done():
                    entry.future.cancel()
            raise
        except BaseException as exc:  # noqa: BLE001 - relayed to waiters
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(exc)
            return
        self.stats.batches += 1
        self.stats.batched_hits += len(entries) - 1
        for entry in entries:
            if not entry.future.done():
                entry.future.set_result((result, "merged"))

    # -- shutdown ------------------------------------------------------
    def drain(self) -> None:
        """Cancel every outstanding flight and batch (executor close)."""
        for flight in list(self._flights.values()):
            if flight.task is not None and not flight.task.done():
                flight.task.cancel()
        self._flights.clear()
        for batch in list(self._batches.values()):
            if batch.flusher is not None and not batch.flusher.done():
                batch.flusher.cancel()
        self._batches.clear()
