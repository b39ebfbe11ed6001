"""The simulated capability-limited Internet source.

A :class:`CapabilitySource` bundles

* a relation (the site's data),
* a **native** SSDL description -- possibly order sensitive, exactly what
  the site's form accepts,
* a lazily built **commutation-closed** description (Section 6.1) that
  planners use so they need not fire the commutativity rewrite rule, and
* statistics and a traffic meter.

The source *enforces* its capabilities: :meth:`execute` re-checks every
incoming query against the native description and raises
:class:`UnsupportedQueryError` otherwise -- the stand-in for a web form
that simply has no field for the condition you wanted to send.  This
independent enforcement is what makes the feasibility guarantees of the
planners testable rather than assumed.

Sources are safe to call from many threads and event loops at once,
and they enforce their *own* concurrency ceiling: a ``max_concurrency``
limit gates every call on one in-flight count (calls past it queue in
arrival order), the stand-in for a site that throttles past N
simultaneous connections.  The ``max_in_flight`` high-water mark makes
the guarantee testable -- however aggressive the callers, it never
exceeds the limit.

A call has one body, ``_serve``, and two entry points:
:meth:`execute` drives it to completion without an event loop and
:meth:`execute_async` awaits it.  Only the two waits differ between
them -- how a queued call waits for its slot and how the round trip
is spent.
"""

from __future__ import annotations

# ``asyncio`` (with the ``ssl``, ``socket`` and ``selectors`` it loads) is
# imported inside the functions that run on a loop: a process on the
# serial or pool engine never loads it (DESIGN.md, "Resident size").
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Iterable

from repro.conditions.tree import Condition
from repro.data.relation import Relation
from repro.data.stats import TableStats
from repro.errors import InterpreterSuspendedError, UnsupportedQueryError
from repro.observability.metrics import get_metrics
from repro.observability.trace import get_tracer
from repro.source.faults import FaultInjector, SimulatedLatency
from repro.source.metering import QueryMeter
from repro.ssdl.commute import commutation_closure, fix_condition
from repro.ssdl.description import CheckResult, SourceDescription


def drive(coroutine):
    """Run a coroutine to completion inline, without an event loop.

    A coroutine whose ``await`` chain only reaches blocking calls never
    suspends, so one ``send`` finishes it: the plan interpreter under the
    serial and pool engines, and a blocking source call.  One that does
    suspend waits on something only a loop delivers: it is closed (its
    ``finally`` blocks end the open spans) and
    :class:`~repro.errors.InterpreterSuspendedError` is raised.
    """
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise InterpreterSuspendedError(
        "the plan interpreter suspended under the loop-free driver; "
        "primitives that await real I/O need an event-loop driver"
    )


class CapabilitySource:
    """A relation fronted by an SSDL-described, capability-enforcing interface."""

    def __init__(
        self,
        name: str,
        relation: Relation,
        description: SourceDescription,
        order_insensitive: bool = False,
        fault_injector: FaultInjector | None = None,
        latency: SimulatedLatency | None = None,
        max_concurrency: int | None = None,
    ):
        """``order_insensitive=True`` records that the native grammar's
        conjunct order is immaterial to the real source; the closed
        description is then used for enforcement too (no fixing needed).

        ``fault_injector`` (also assignable after construction) makes
        calls fail transiently with the injector's seeded probabilities
        -- the offline stand-in for a flaky live site.

        ``latency`` (also assignable after construction) charges every
        call a seeded round-trip delay -- the offline stand-in for a
        distant live site, and what makes parallel execution pay off.

        ``max_concurrency`` caps simultaneous in-flight calls
        (``None`` = unlimited): the source's declared capacity,
        enforced on one in-flight count so no executor -- however
        parallel, on however many loops -- can hammer the site past it.
        Assignable at any time: each call reads the current limit, and
        raising it admits queued calls at once.
        """
        self.name = name
        self.relation = relation
        self.description = description
        self.order_insensitive = order_insensitive
        self.fault_injector = fault_injector
        self.latency = latency
        self.meter = QueryMeter()
        #: High-water mark of simultaneous in-flight calls (for tests
        #: asserting the limit is never oversubscribed).  The gate is
        #: ``_in_flight`` and the queued calls' tickets in arrival
        #: order, both under ``_flight_lock``.
        self.max_in_flight = 0
        self._in_flight = 0
        self._queue: deque[Future] = deque()
        self._flight_lock = threading.Lock()
        self.max_concurrency = max_concurrency
        self._state_lock = threading.Lock()
        self._stats: TableStats | None = None
        self._closed: SourceDescription | None = None
        #: Cached registry instruments, invalidated when the process
        #: registry is swapped (kept off the hot path: one identity
        #: check per call instead of name lookups).
        self._metrics_cache: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self.relation.schema

    @property
    def stats(self) -> TableStats:
        """Table statistics, built on first use (thread-safe)."""
        if self._stats is None:
            with self._state_lock:
                if self._stats is None:
                    self._stats = TableStats.from_relation(self.relation)
        return self._stats

    @property
    def closed_description(self) -> SourceDescription:
        """The commutation-closed description (built on first use,
        thread-safe: concurrent first callers build it once)."""
        if self._closed is None:
            with self._state_lock:
                if self._closed is None:
                    self._closed = commutation_closure(self.description)
        return self._closed

    @property
    def enforcing_description(self) -> SourceDescription:
        """What :meth:`execute` validates against."""
        return self.closed_description if self.order_insensitive else self.description

    # ------------------------------------------------------------------
    def compile_capabilities(
        self,
        max_tokens: int | None = None,
        max_sequences: int | None = None,
    ) -> dict[str, "CompilationReport"]:
        """Compile this source's grammars into token-trie recognizers.

        The registration-time step of the capability-compilation story:
        both the planning (commutation-closed) description and the
        native (enforcing) description are compiled, so planner Checks
        *and* execution-time enforcement become token walks.  Grammars
        exceeding the budget keep their Earley recognizer (the reports
        say which).  Idempotent and cheap to repeat; call again after
        mutating a description.
        """
        from repro.ssdl.compiled import (
            DEFAULT_MAX_SEQUENCES,
            DEFAULT_MAX_TOKENS,
        )

        kwargs = {
            "max_tokens": DEFAULT_MAX_TOKENS if max_tokens is None else max_tokens,
            "max_sequences": (
                DEFAULT_MAX_SEQUENCES if max_sequences is None else max_sequences
            ),
        }
        reports = {"native": self.description.compile(**kwargs)}
        closed = self.closed_description
        if closed is not self.description:
            reports["closed"] = closed.compile(**kwargs)
        return reports

    def invalidate_compiled(self) -> None:
        """Drop compiled capability forms (capability drift): Checks
        fall back to Earley until :meth:`compile_capabilities` reruns."""
        self.description.invalidate_compiled()
        if self._closed is not None:
            self._closed.invalidate_compiled()

    def replace_description(
        self,
        description: SourceDescription,
        order_insensitive: bool | None = None,
    ) -> None:
        """Capability drift: the autonomous site changed its form.

        Swaps the native description and drops every piece of state
        derived from the old one -- the commutation closure and (with
        it) the compiled recognizers and Check caches, which all live
        on the discarded description objects.  The caller (normally
        :meth:`~repro.mediator.Mediator.mutate_source`) must bump the
        catalog version so cached plans built against the old grammar
        are invalidated too.
        """
        with self._state_lock:
            self.description = description
            self._closed = None
            if order_insensitive is not None:
                self.order_insensitive = order_insensitive

    @property
    def compiled(self) -> bool:
        """Is the planning description's compiled recognizer active?"""
        return self.closed_description.compiled

    @property
    def capabilities_compiled(self) -> bool:
        """Have the current descriptions been through
        :meth:`compile_capabilities` -- whether or not the budget let a
        recognizer come out of it?  False again after
        :meth:`replace_description` or :meth:`invalidate_compiled`."""
        return (self.description.compilation is not None
                and self.closed_description.compilation is not None)

    def check(self, condition: Condition) -> CheckResult:
        """``Check(C, R)`` against the planning (closed) description."""
        return self.closed_description.check(condition)

    def supports(self, condition: Condition, attributes: Iterable[str]) -> bool:
        """Is ``SP(condition, attributes, this)`` plannable?"""
        return self.check(condition).supports(attributes)

    def fix(self, condition: Condition, attributes: Iterable[str]) -> Condition:
        """Reorder a planned condition into natively acceptable form."""
        if self.order_insensitive:
            return condition
        return fix_condition(
            condition, self.description, frozenset(attributes)
        )

    # ------------------------------------------------------------------
    @property
    def max_concurrency(self) -> int | None:
        """The most calls served at once (``None`` = unlimited)."""
        return self._max_concurrency

    @max_concurrency.setter
    def max_concurrency(self, limit: int | None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("max_concurrency must be at least 1")
        with self._flight_lock:
            self._max_concurrency = limit
            self._admit()

    @property
    def in_flight(self) -> int:
        """How many calls are being served right now."""
        return self._in_flight

    def _instruments(self) -> dict:
        """This source's registry instruments (cached per registry).

        The cache is re-keyed by registry identity, so swapping the
        process registry (``use_metrics`` in tests) transparently
        redirects the source's publishing.
        """
        metrics = get_metrics()
        cached = self._metrics_cache
        if cached is None or cached[0] is not metrics:
            prefix = f"source.{self.name}"
            cached = (
                metrics,
                {
                    "queries": metrics.counter(f"{prefix}.queries"),
                    "tuples": metrics.counter(f"{prefix}.tuples"),
                    "rejected": metrics.counter(f"{prefix}.rejected"),
                    "failures": metrics.counter(f"{prefix}.failures"),
                    "in_flight": metrics.gauge(f"{prefix}.in_flight"),
                    "queue_wait": metrics.histogram(
                        f"{prefix}.queue_wait_seconds"
                    ),
                },
            )
            self._metrics_cache = cached
        return cached[1]

    async def _serve(self, condition: Condition, attributes: Iterable[str],
                     on_loop: bool) -> Relation:
        """The one call body behind :meth:`execute` and
        :meth:`execute_async`: gate, in-flight accounting, the
        ``source.service`` span, latency, the fault draw, enforcement
        and metering.  ``on_loop`` changes only the two waits -- for
        the slot :meth:`_admit` grants a queued call, and the round trip;
        blocking callers never suspend, so :func:`drive` finishes the
        call with one ``send``.  A call cancelled while queued takes no
        slot; one cancelled as the slot reaches it gives the slot back.
        """
        instruments = self._instruments()
        limit = self._max_concurrency
        if limit is not None:
            waited_from = time.perf_counter()
        ticket = None
        with self._flight_lock:
            if limit is None or (self._in_flight < limit and not self._queue):
                self._in_flight += 1
                if self._in_flight > self.max_in_flight:
                    self.max_in_flight = self._in_flight
            else:
                ticket = Future()
                self._queue.append(ticket)
        if ticket is not None:
            try:
                if on_loop:
                    import asyncio
                    await asyncio.wrap_future(ticket)
                else:
                    ticket.result()
            except BaseException:
                if not ticket.cancel():
                    self._leave()
                raise
        queue_wait = 0.0
        if limit is not None:
            queue_wait = time.perf_counter() - waited_from
            instruments["queue_wait"].observe(queue_wait)
        instruments["in_flight"].set(self._in_flight)
        try:
            with get_tracer().span("source.service", source=self.name) as span:
                span.set_attribute("queue_wait_seconds", queue_wait)
                latency = self.latency
                if latency is not None:
                    if on_loop:
                        delay = latency.draw()
                        if latency.real_sleep and delay > 0.0:
                            import asyncio
                            await asyncio.sleep(delay)
                    else:
                        delay = latency.apply()
                    span.set_attribute("latency_seconds", delay)
                if self.fault_injector is not None:
                    fault = self.fault_injector.draw(self.name)
                    if fault is not None:
                        self.meter.record_failure()
                        instruments["failures"].inc()
                        raise fault
                attrs = frozenset(attributes)
                result = self.enforcing_description.check(condition)
                if not result.supports(attrs):
                    self.meter.record_rejection()
                    instruments["rejected"].inc()
                    raise self._rejection(condition, attrs, result)
                answer = self.relation.sp(condition, attrs)
                self.meter.record(len(answer))
                instruments["queries"].inc()
                instruments["tuples"].inc(len(answer))
                span.set_attribute("rows", len(answer))
                return answer
        finally:
            self._leave()

    def _leave(self) -> None:
        """Free a call's slot; queued calls take the room it leaves."""
        with self._flight_lock:
            self._in_flight -= 1
            if self._queue:
                self._admit()

    def _admit(self) -> None:
        """Admit the oldest queued calls still waiting while the current
        limit has room (all of them without one).  Call under
        ``_flight_lock``."""
        limit = self._max_concurrency
        queue = self._queue
        while queue and (limit is None or self._in_flight < limit):
            ticket = queue.popleft()
            if ticket.set_running_or_notify_cancel():
                ticket.set_result(None)
                self._in_flight += 1
                if self._in_flight > self.max_in_flight:
                    self.max_in_flight = self._in_flight

    def _rejection(self, condition: Condition, attrs: frozenset,
                   result: CheckResult) -> UnsupportedQueryError:
        """Why the form refuses ``SP(condition, attrs)``."""
        if not result:
            reason = "the condition expression is not accepted by the form"
        else:
            exportable = " | ".join(
                "{" + ", ".join(sorted(s)) + "}" for s in result.attribute_sets
            )
            reason = (f"the form cannot export attributes {sorted(attrs)} "
                      f"for this condition (exportable: {exportable})")
        return UnsupportedQueryError(
            f"source {self.name!r} rejected SP({condition}, {sorted(attrs)}): {reason}",
            condition=condition, attributes=attrs,
        )

    def execute(self, condition: Condition, attributes: Iterable[str]) -> Relation:
        """Answer the source query ``SP(condition, attributes, R)``.

        Enforces the native capabilities; meters traffic.  Raises
        :class:`UnsupportedQueryError` for anything the form cannot
        express -- callers are expected to have fixed query order first
        (see :meth:`fix`).

        With a :class:`FaultInjector` attached, the call may instead
        raise a :class:`~repro.errors.TransientSourceError`: the network
        fails before the form can even reject, so faults are drawn
        *before* capability enforcement and metered as ``failures``
        (distinct from ``rejected``).

        With a :class:`SimulatedLatency` attached, every call -- faulted
        or not -- first pays its seeded round-trip delay
        (:meth:`SimulatedLatency.apply`), held inside the concurrency
        slot so a throttled site really does serialize the waits.
        """
        return drive(self._serve(condition, attributes, False))

    async def execute_async(
        self, condition: Condition, attributes: Iterable[str]
    ) -> Relation:
        """:meth:`execute`'s call body, awaited by a caller on an event loop.

        Only the waits differ: the same seeded round trip is spent with
        ``await asyncio.sleep`` and a queued call awaits its slot, so
        thousands of in-flight calls cost tasks, not threads.  Blocking
        and awaiting callers, on any number of loops, share the one
        in-flight count and the one queue.
        """
        return await self._serve(condition, attributes, True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CapabilitySource({self.name!r}, {len(self.relation)} rows, "
            f"{self.description.rule_count()} grammar rules)"
        )
