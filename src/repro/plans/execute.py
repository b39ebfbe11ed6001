"""Plan execution: run a concrete plan against the simulated sources.

The executor performs the mediator's half of the paper's architecture:
it submits the plan's source queries (fixing their conjunct order first,
Section 6.1), then applies the mediator postprocessing operators --
selection, projection, union, intersection, duplicate elimination.

Sources are autonomous Internet sites, so calls fail.  The executor is
the resilience point of the architecture:

* a :class:`~repro.plans.retry.RetryPolicy` governs re-attempts of
  transiently failed source queries (exponential backoff, deterministic
  jitter, per-plan retry budget).  Capability rejections
  (:class:`~repro.errors.UnsupportedQueryError`) are **never** retried:
  they are a property of the query, not of the moment.
* an optional **failover** hook re-plans a source query that exhausted
  its retries against equivalent sources (mirrors) instead of aborting
  the whole plan.
* a **Choice** node -- the paper's operator for equivalent alternative
  plans -- can be resolved *at execution time* when the executor holds a
  cost model: the cheapest alternative runs first and the survivors are
  natural failover targets when it dies.

All of that is written once, as the ``async def`` plan interpreter on
:class:`Executor`.  The three engines -- this serial one,
:class:`~repro.plans.parallel.ParallelExecutor` and
:class:`~repro.plans.async_exec.AsyncExecutor` -- differ only in four
primitives: ``_run`` (the driver of one execution),
``_execute_combination`` (the fan-out policy), ``_call`` (one source
call) and ``_backoff`` (one retry's wait); the async engine also wraps
``_fetch`` in single-flight coalescing.  Here the primitives are
blocking calls, so the interpreter never suspends and
:func:`~repro.source.source.drive` runs it to completion with one
``send`` -- no event loop.
"""

from __future__ import annotations

import logging
import sys
import threading
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Protocol

from repro.data.relation import Relation
from repro.errors import (
    PlanExecutionError,
    TransientSourceError,
    UnsupportedQueryError,
)
from repro.observability.metrics import (
    Counter,
    Histogram,
    get_metrics,
)
from repro.observability.trace import (
    get_tracer,
    trace_event,
    wants_trace_event,
)
from repro.plans.nodes import (
    ChoicePlan,
    IntersectPlan,
    Plan,
    Postprocess,
    SourceQuery,
    UnionPlan,
)
from repro.plans.retry import RetryPolicy
from repro.source.metering import MeterSnapshot
from repro.source.source import CapabilitySource, drive

logger = logging.getLogger(__name__)

#: What an executor without a retry policy applies (immutable, shared).
NO_RETRY = RetryPolicy.none()


def _worker_name() -> str:
    """Who runs a source call: the event-loop task, else the thread.

    Only a loaded :mod:`asyncio` can be running a loop; the serial and
    pool drivers never import it.
    """
    asyncio = sys.modules.get("asyncio")
    if asyncio is None:
        return threading.current_thread().name
    try:
        task = asyncio.current_task()
    except RuntimeError:  # no running loop: the serial or pool driver
        return threading.current_thread().name
    return task.get_name() if task is not None else "loop"


@dataclass
class ExecutionReport:
    """What executing a plan actually cost (tallied at its source calls).

    ``per_source`` maps each source that saw traffic to the
    :class:`MeterSnapshot` of what *this* execution caused there -- its
    own calls only, however many other executions ran at the same
    time.  The paper's two cost drivers (``queries`` issued,
    ``tuples_transferred``) and the ``retries`` are its sums, so the
    totals and the breakdown cannot disagree.  Besides those the report
    carries resilience accounting: how many source-call ``attempts``
    were made, how many ``failovers`` re-routed a dead source query to
    a mirror, and how much (simulated) time was spent in
    ``backoff_seconds``.

    ``duration_seconds`` is the wall-clock time of the execution; each
    source call's own duration goes to the registry's
    ``executor.call_seconds`` histogram.
    """

    result: Relation
    attempts: int = 0
    failovers: int = 0
    backoff_seconds: float = 0.0
    duration_seconds: float = 0.0
    per_source: dict[str, MeterSnapshot] = field(default_factory=dict)
    #: Logical source calls answered by joining another caller's
    #: in-flight physical call (async executor's single-flight
    #: coalescing).  The attribution rule: a shared physical call is
    #: counted -- queries, tuples, attempts, retries -- **once**, on
    #: the logical caller that initiated it; every joiner reports one
    #: ``coalesced_hits`` and no per-source traffic for it.
    coalesced_hits: int = 0
    #: Always 0 -- a disjunction reaches a source as one planned query,
    #: never merged at execution time; kept because the X18 harness
    #: (``benchmarks/anatomy``) reads it.
    batched_hits: int = 0

    @property
    def queries(self) -> int:
        return sum(map(attrgetter("queries"), self.per_source.values()))

    @property
    def tuples_transferred(self) -> int:
        return sum(map(attrgetter("tuples"), self.per_source.values()))

    @property
    def retries(self) -> int:
        return sum(map(attrgetter("retries"), self.per_source.values()))

    def measured_cost(self, k1: float, k2: float) -> float:
        return self.queries * k1 + self.tuples_transferred * k2


class FailoverTarget(Protocol):
    """Anything that can re-plan a failed source query elsewhere."""

    def replan(self, query: SourceQuery,
               failed: frozenset[str]) -> Plan | None:
        """An equivalent plan avoiding ``failed`` sources, or ``None``."""
        ...  # pragma: no cover - protocol


@dataclass
class _ExecutionContext:
    """Per-top-level-execution bookkeeping (retry budget, counters).

    Counter updates are serialized on a lock: the parallel executor
    shares one context across every branch of a plan, and the
    accounting (and especially the retry budget) must stay exact under
    contention.  The serial executor pays one uncontended lock per
    source call -- noise next to the call itself.

    Source traffic is tallied here, at the call site, not read back
    from the source meters: the meters count every execution's calls,
    so a diff around one execution would also report whatever ran
    beside it (and, under coalescing, one shared physical call in every
    overlapping report).  A physical call lands once, on the execution
    that issued it; joiners count ``coalesced_hits``.
    """

    attempts: int = 0
    failovers: int = 0
    backoff: float = 0.0
    coalesced_hits: int = 0
    per_source: dict[str, MeterSnapshot] = field(default_factory=dict)
    failed_sources: set[str] = field(default_factory=set)
    budget_left: int | None = None
    #: The registry's ``executor.attempts`` counter and
    #: ``executor.call_seconds`` histogram, bound by the executor.
    registry_attempts: Counter | None = None
    registry_call_seconds: Histogram | None = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add_attempt(self) -> None:
        with self._lock:
            self.attempts += 1
        self.registry_attempts.inc()

    def add_retry(self, delay: float) -> None:
        with self._lock:
            self.backoff += delay
        metrics = get_metrics()
        metrics.counter("executor.retries").inc()
        metrics.histogram("executor.backoff_seconds").observe(delay)

    def add_failover(self) -> None:
        with self._lock:
            self.failovers += 1
        get_metrics().counter("executor.failovers").inc()

    def add_coalesced(self) -> None:
        with self._lock:
            self.coalesced_hits += 1
        get_metrics().counter("executor.coalesced_hits").inc()

    def tally(self, source: str, **deltas: int) -> None:
        """Attribute source traffic caused by this execution."""
        delta = MeterSnapshot(**deltas)
        with self._lock:
            seen = self.per_source.get(source)
            self.per_source[source] = delta if seen is None else seen + delta

    def report(self, result: Relation, duration: float) -> ExecutionReport:
        """This execution's accounting, as handed to the caller."""
        return ExecutionReport(
            result,
            attempts=self.attempts,
            failovers=self.failovers,
            backoff_seconds=self.backoff,
            duration_seconds=duration,
            per_source=dict(self.per_source),
            coalesced_hits=self.coalesced_hits,
        )

    def mark_failed(self, source: str) -> None:
        with self._lock:
            self.failed_sources.add(source)

    def any_failed(self, sources: Iterable[str]) -> bool:
        with self._lock:
            if not self.failed_sources:
                return False
            return any(s in self.failed_sources for s in sources)

    def take_retry_token(self) -> bool:
        """Consume one unit of the plan-wide retry budget (if bounded)."""
        with self._lock:
            if self.budget_left is None:
                return True
            if self.budget_left <= 0:
                return False
            self.budget_left -= 1
            return True


class Executor:
    """Runs concrete plans over a catalog of sources."""

    def __init__(
        self,
        catalog: Mapping[str, CapabilitySource],
        fix_queries: bool = True,
        cache=None,
        retry_policy: RetryPolicy | None = None,
        failover: FailoverTarget | None = None,
        cost_model=None,
    ):
        """``fix_queries=False`` submits planned conditions verbatim --
        useful in tests demonstrating that order-sensitive sources reject
        unfixed queries.

        ``cache`` is an optional :class:`repro.plans.cache.ResultCache`;
        source-query results are looked up there (keyed by the *planned*
        condition, before fixing) and stored after execution.  A cache
        hit never contacts the source, so it also masks its faults.

        ``retry_policy`` governs re-attempts after transient source
        failures (default: fail fast, the pre-resilience behaviour).
        ``failover`` re-plans a source query whose retries are exhausted
        (see :class:`FailoverTarget`; mirrors implement it).
        ``cost_model`` lets the executor resolve Choice nodes itself --
        cheapest alternative first, next alternative on transient
        failure; without one, Choice nodes are rejected as before.

        The catalog mapping is held by reference, so sources registered
        after the executor is created are visible to it (the mediator
        relies on this).
        """
        self.catalog = catalog
        self.fix_queries = fix_queries
        self.cache = cache
        self.retry_policy = retry_policy
        self.failover = failover
        self.cost_model = cost_model
        #: ``(registry, attempts counter, call-seconds histogram)``: the
        #: per-call instruments, bound once per process registry.
        self._bound: tuple | None = None

    def _source(self, name: str) -> CapabilitySource:
        try:
            return self.catalog[name]
        except KeyError:
            raise PlanExecutionError(f"unknown source {name!r}") from None

    def close(self) -> None:
        """Release the engine's threads (none here; idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def execute(self, plan: Plan) -> Relation:
        """Evaluate a concrete plan; returns the mediator's result relation."""
        return self._run(plan, self._new_context())

    def _run(self, plan: Plan, ctx: _ExecutionContext) -> Relation:
        """The driver of one top-level execution: inline, no loop (the
        async engine hands the same interpreter to its event loop)."""
        return drive(self._execute(plan, ctx))

    def _new_context(self) -> _ExecutionContext:
        policy = self.retry_policy
        budget = policy.retry_budget if policy is not None else None
        metrics = get_metrics()
        bound = self._bound
        if bound is None or bound[0] is not metrics:
            # Re-keyed by registry identity, like the sources' instruments:
            # swapping the process registry redirects the publishing.
            bound = self._bound = (
                metrics, metrics.counter("executor.attempts"),
                metrics.histogram("executor.call_seconds"),
            )
        return _ExecutionContext(
            budget_left=budget, registry_attempts=bound[1],
            registry_call_seconds=bound[2],
        )

    # -- the plan interpreter ------------------------------------------
    async def _execute(self, plan: Plan, ctx: _ExecutionContext) -> Relation:
        if isinstance(plan, ChoicePlan):
            return await self._execute_choice(plan, ctx)
        if isinstance(plan, SourceQuery):
            return await self._execute_source_query(plan, ctx)
        if isinstance(plan, Postprocess):
            inner = await self._execute(plan.input, ctx)
            return inner.sp(plan.condition, plan.attrs)
        if isinstance(plan, (UnionPlan, IntersectPlan)):
            if not plan.children:
                raise PlanExecutionError(
                    f"cannot execute a {plan.op_name} plan with no inputs; "
                    f"plans must combine at least one sub-plan"
                )
            return await self._execute_combination(plan, ctx)
        raise PlanExecutionError(f"cannot execute plan node {type(plan).__name__}")

    async def _execute_combination(
        self, plan: UnionPlan | IntersectPlan, ctx: _ExecutionContext
    ) -> Relation:
        """Evaluate a Union/Intersect node's children and combine them.

        The fan-out policy: the serial executor runs the children left
        to right; the parallel and async engines override exactly this
        method to fan them out (the children of a combination node are
        independent -- no data flows between them).
        """
        parts = []
        for child in plan.children:
            parts.append(await self._execute(child, ctx))
        return self._combine(plan, parts)

    @staticmethod
    def _combine(
        plan: UnionPlan | IntersectPlan, parts: list[Relation]
    ) -> Relation:
        out = parts[0]
        combine = (
            Relation.union if isinstance(plan, UnionPlan)
            else Relation.intersect
        )
        for part in parts[1:]:
            out = combine(out, part)
        return out

    async def _execute_choice(self, plan: ChoicePlan, ctx: _ExecutionContext
                              ) -> Relation:
        """Resolve a Choice at execution time (cheapest first, then failover).

        The paper resolves Choice with the cost model *before* execution
        (Section 5.3); keeping the losing alternatives around until now
        turns them into failover targets for free.
        """
        if self.cost_model is None:
            raise PlanExecutionError(
                "plan still contains a Choice operator; resolve it with the "
                "cost model before execution (or construct the Executor "
                "with cost_model=... to resolve and fail over at runtime)"
            )
        ranked = sorted(plan.children, key=self.cost_model.cost)
        last_fault: TransientSourceError | None = None
        for index, alternative in enumerate(ranked):
            if ctx.any_failed(
                sq.source for sq in alternative.source_queries()
            ):
                continue
            try:
                return await self._execute(alternative, ctx)
            except TransientSourceError as fault:
                trace_event(
                    logger, logging.WARNING,
                    "Choice alternative %d failed (%s); trying the next one",
                    index, fault,
                    event="choice.failover", alternative=index,
                    fault=str(fault),
                )
                last_fault = fault
                ctx.add_failover()
        if last_fault is not None:
            raise last_fault
        raise PlanExecutionError(
            "every Choice alternative depends on a failed source"
        )

    async def _execute_source_query(
        self, plan: SourceQuery, ctx: _ExecutionContext
    ) -> Relation:
        """One source query under its span: a cache hit, or a fetch."""
        tracer = get_tracer()
        attributes = {
            "source": plan.source,
            "condition": str(plan.condition),
            "worker": _worker_name(),
        } if tracer.enabled else {}
        with tracer.span("executor.source_call", **attributes) as span:
            started = time.perf_counter()
            try:
                source = self._source(plan.source)
                cached = None if self.cache is None else self.cache.get(
                    plan.source, plan.condition, plan.attrs
                )
                if cached is None:
                    return await self._fetch(plan, ctx, span, source)
                if wants_trace_event(logger, logging.DEBUG):
                    trace_event(
                        logger, logging.DEBUG,
                        "cache hit for %s SP(%s)", plan.source,
                        plan.condition,
                        event="cache.hit", source=plan.source,
                        condition=str(plan.condition),
                    )
                get_metrics().counter("executor.cache_hits").inc()
                span.set_attributes(cache_hit=True, attempts=0)
                return cached
            finally:
                ctx.registry_call_seconds.observe(
                    time.perf_counter() - started)

    async def _attempts(
        self, plan: SourceQuery, ctx: _ExecutionContext, span,
        source: CapabilitySource,
    ) -> Relation:
        """The retry/failover loop for one physical source query."""
        policy = self.retry_policy if self.retry_policy is not None \
            else NO_RETRY
        attempt = 0
        retries = 0
        backoff = 0.0
        while True:
            attempt += 1
            ctx.add_attempt()
            try:
                result = await self._submit(source, plan, ctx)
                span.set_attributes(
                    attempts=attempt, retries=retries,
                    backoff_seconds=backoff, rows=len(result),
                )
                return result
            except TransientSourceError as fault:
                if policy.should_retry(attempt) and ctx.take_retry_token():
                    delay = policy.backoff_delay(
                        attempt, key=f"{plan.source}|{plan.condition}",
                        fault=fault,
                    )
                    retries += 1
                    backoff += delay
                    ctx.add_retry(delay)
                    ctx.tally(plan.source, retries=1)
                    source.meter.record_retry()
                    trace_event(
                        logger, logging.DEBUG,
                        "transient failure at %s (%s); retry %d/%d after "
                        "%.3fs", plan.source, fault, attempt,
                        policy.max_attempts - 1, delay,
                        event="retry", source=plan.source, attempt=attempt,
                        delay_seconds=delay, fault=str(fault),
                    )
                    await self._backoff(policy, delay)
                    continue
                # Retries exhausted: the source is failed for the rest
                # of this plan execution; try to route around it.
                span.set_attributes(
                    attempts=attempt, retries=retries, backoff_seconds=backoff
                )
                ctx.mark_failed(plan.source)
                if self.failover is not None:
                    alternative = self.failover.replan(
                        plan, frozenset(ctx.failed_sources)
                    )
                    if alternative is not None:
                        ctx.add_failover()
                        targets = sorted(
                            {sq.source for sq in alternative.source_queries()}
                        )
                        span.set_attribute("failover_targets", targets)
                        trace_event(
                            logger, logging.WARNING,
                            "failing over %s SP(%s) after %d attempts: %s",
                            plan.source, plan.condition, attempt, fault,
                            event="failover", source=plan.source,
                            attempts=attempt, targets=targets,
                            fault=str(fault),
                        )
                        return await self._execute(alternative, ctx)
                raise

    #: How a source query that missed the cache is fetched: the attempts
    #: loop itself here; the async engine overrides this hook to wrap
    #: the loop in single-flight coalescing.
    _fetch = _attempts

    async def _submit(self, source: CapabilitySource, plan: SourceQuery,
                      ctx: _ExecutionContext) -> Relation:
        """One attempt: fix order, call the source, tally, fill the cache."""
        condition = plan.condition
        if self.fix_queries and not condition.is_true:
            condition = source.fix(condition, plan.attrs)
            if condition != plan.condition \
                    and wants_trace_event(logger, logging.DEBUG):
                trace_event(
                    logger, logging.DEBUG,
                    "fixed query order for %s: %s -> %s",
                    plan.source, plan.condition, condition,
                    event="query.fixed", source=plan.source,
                    planned=str(plan.condition), fixed=str(condition),
                )
        try:
            result = await self._call(source, condition, plan.attrs)
        except UnsupportedQueryError:
            ctx.tally(source.name, rejected=1)
            raise
        except TransientSourceError:
            ctx.tally(source.name, failures=1)
            raise
        if wants_trace_event(logger, logging.DEBUG):
            trace_event(
                logger, logging.DEBUG,
                "source %s answered SP(%s) with %d tuples",
                plan.source, condition, len(result),
                event="source.answered", source=plan.source,
                condition=str(condition), rows=len(result),
            )
        ctx.tally(source.name, queries=1, tuples=len(result))
        if self.cache is not None:
            self.cache.put(plan.source, plan.condition, plan.attrs, result)
        return result

    # -- the I/O primitives (blocking here) -----------------------------
    async def _call(self, source: CapabilitySource, condition,
                    attrs: frozenset) -> Relation:
        """One source call."""
        return source.execute(condition, attrs)

    async def _backoff(self, policy: RetryPolicy, delay: float) -> None:
        """Spend one retry's backoff delay."""
        policy.wait(delay)

    # ------------------------------------------------------------------
    def execute_with_report(self, plan: Plan) -> ExecutionReport:
        """Execute and report the traffic this execution caused.

        The report is built from the execution context's call-site
        tallies, so it covers every source the execution touched --
        failover and execution-time Choice resolution may pull in
        sources the planned tree never mentions -- and nothing any
        concurrent execution did.

        Note on caching: only calls that reach a source are tallied, so
        a plan answered entirely from the result cache reports zero
        queries and zero tuples -- by design.  The optimizer's estimate
        and the measured cost diverge under caching; the report tells
        you what the Internet actually saw.
        """
        ctx = self._new_context()
        started = time.perf_counter()
        result = self._run(plan, ctx)
        return ctx.report(result, time.perf_counter() - started)


def make_executor(name: str, catalog: Mapping[str, CapabilitySource],
                  **options) -> Executor:
    """Build the engine called ``name`` -- ``"serial"``, ``"parallel"``
    or ``"async"`` -- over ``catalog``.

    ``options`` are the serial engine's constructor arguments, which
    every engine takes; the parallel engine's pool has its default
    width.  The pool and async engine modules are imported here because
    they import this one; neither loads :mod:`asyncio` before a loop
    runs.
    """
    if name == "serial":
        return Executor(catalog, **options)
    if name == "parallel":
        from repro.plans.parallel import ParallelExecutor

        return ParallelExecutor(catalog, **options)
    if name == "async":
        from repro.plans.async_exec import AsyncExecutor

        return AsyncExecutor(catalog, **options)
    raise PlanExecutionError(
        f"unknown executor {name!r}; pick one of serial, parallel, async"
    )


def reference_answer(
    source: CapabilitySource, condition, attributes
) -> Relation:
    """Ground truth: evaluate SP(C, A, R) directly on the full relation,
    ignoring capabilities.  Used by tests and experiment harnesses."""
    return source.relation.sp(condition, frozenset(attributes))
