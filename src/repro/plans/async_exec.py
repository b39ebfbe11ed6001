"""Asyncio plan execution: request-coalescing fan-out without threads.

The :class:`~repro.plans.parallel.ParallelExecutor` burns one worker
thread per in-flight source call; at the ROADMAP's millions-of-users
scale that caps out around the pool size.  :class:`AsyncExecutor`
drives the one plan interpreter of :mod:`repro.plans.execute` on
:mod:`asyncio` behind the **same blocking interface**:
``execute``/``execute_with_report`` are ordinary calls, but inside they
submit the interpreter's coroutine to a private, lazily started event
loop on one daemon thread, where every source call is a *task* --
thousands of concurrent simulated-latency calls cost coroutine frames,
not threads.

It is a driver, not a copy: query fixing, result caching, retry with
backoff, mirror failover and execution-time Choice resolution are the
serial engine's code.  What this engine supplies is its primitives --
``_call`` awaits :meth:`~repro.source.source.CapabilitySource
.execute_async`, ``_backoff`` is ``asyncio.sleep`` (never a blocked
thread) -- plus the execution-time sharing the loop-free engines cannot
express, as a wrapper around the attempts loop and as its fan-out
policy:

* **single-flight coalescing** -- identical in-flight ``SP(C, A)``
  calls (canonicalized, so commuted spellings match) share one
  physical call and its (immutable) answer (see
  :mod:`repro.plans.coalesce`).
* **streamed union merge** -- combination children complete in any
  order and the ready *prefix* is folded immediately, so the answer
  accumulates before the slowest source returns while the final
  relation stays byte-identical to serial child-order folding.

Error choice matches the parallel executor: a Union surfaces its
earliest-index child's failure after every branch settles; an
Intersect **cancels** its surviving branches on the first failure (the
result is doomed anyway) and reaps them before raising.

Accounting is exact under sharing: like the serial engines, this one
tallies traffic *per execution context at the call site* -- a shared
physical call lands once, on the logical caller that initiated it, and
joiners report ``coalesced_hits`` (mirrored to the metrics registry as
``executor.coalesced_hits``).

Determinism caveat (same as the parallel executor's): which call
consumes which draw of a *shared* seeded fault injector varies with
task scheduling, and coalescing collapses draws entirely -- seeded
experiments that must be bit-identical should stay serial.
"""

from __future__ import annotations

# ``asyncio`` (with the ``ssl``, ``socket`` and ``selectors`` it loads) is
# imported inside the functions that run on a loop: a process on the
# serial or pool engine never loads it (DESIGN.md, "Resident size").
import threading

from repro.data.relation import Relation
from repro.observability.trace import get_tracer
from repro.plans.coalesce import CoalesceStats, RequestCoalescer, flight_key
from repro.plans.execute import Executor, _ExecutionContext
from repro.plans.nodes import IntersectPlan, Plan, SourceQuery, UnionPlan
from repro.plans.retry import RetryPolicy
from repro.source.source import CapabilitySource


class AsyncExecutor(Executor):
    """A drop-in :class:`Executor` that runs plans on an event loop.

    Construct it with the serial executor's arguments; close it (or
    use it as a context manager) to stop the loop thread.  Concurrent
    ``execute`` calls from any number of threads share the one loop --
    which is exactly what lets their identical in-flight source calls
    coalesce across requests.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._coalescer = RequestCoalescer()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._loop_lock = threading.Lock()

    @property
    def coalesce_stats(self) -> CoalesceStats:
        """The coalescer's savings counters."""
        return self._coalescer.stats

    # -- event-loop lifecycle ------------------------------------------
    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        import asyncio
        with self._loop_lock:
            if self._loop is None:
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=loop.run_forever,
                    name="repro-async-loop",
                    daemon=True,
                )
                thread.start()
                self._loop, self._loop_thread = loop, thread
            return self._loop

    def close(self) -> None:
        """Stop the loop thread, cancelling any stragglers (idempotent)."""
        import asyncio
        with self._loop_lock:
            loop, self._loop = self._loop, None
            thread, self._loop_thread = self._loop_thread, None
        if loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), loop
            ).result(timeout=5.0)
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=5.0)
        loop.close()

    async def _shutdown(self) -> None:
        import asyncio
        self._coalescer.drain()
        tasks = [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def pending_task_count(self) -> int:
        """How many tasks the loop is running right now (tests assert 0
        after cancellation -- nothing orphaned)."""
        import asyncio
        loop = self._ensure_loop()

        async def count() -> int:
            return len(asyncio.all_tasks()) - 1  # minus this probe

        return asyncio.run_coroutine_threadsafe(count(), loop).result(5.0)

    # -- entry points --------------------------------------------------
    def _run(self, plan: Plan, ctx: _ExecutionContext) -> Relation:
        """The driver: submit the interpreter to the loop, block for it."""
        import asyncio
        loop = self._ensure_loop()
        tracer = get_tracer()
        token = tracer.current_context()

        async def entry() -> Relation:
            # The cross-thread span handoff, task edition: the caller
            # thread's active span becomes the parent of everything the
            # loop runs for this plan (same idiom as ParallelExecutor's
            # current_context()/attach pair).
            with get_tracer().attach(token):
                return await self._execute(plan, ctx)

        return asyncio.run_coroutine_threadsafe(entry(), loop).result()

    # -- the fan-out policy ---------------------------------------------
    async def _execute_combination(
        self, plan: UnionPlan | IntersectPlan, ctx: _ExecutionContext
    ) -> Relation:
        """Fan the children out as tasks; stream-merge the ready prefix.

        The merge folds child ``i`` into the accumulator as soon as
        children ``0..i`` have all finished -- results accumulate while
        slower siblings are still in flight, yet the fold order (and so
        the answer, row order included) is exactly serial's.
        """
        import asyncio
        children = plan.children
        if len(children) == 1:
            return await self._execute(children[0], ctx)
        tracer = get_tracer()
        token = tracer.current_context()

        async def branch(child: Plan) -> Relation:
            with get_tracer().attach(token):
                return await self._execute(child, ctx)

        tasks = [asyncio.ensure_future(branch(child)) for child in children]
        index_of = {task: index for index, task in enumerate(tasks)}
        combine = (
            Relation.union if isinstance(plan, UnionPlan)
            else Relation.intersect
        )
        cancel_on_error = isinstance(plan, IntersectPlan)
        parts: list[Relation | None] = [None] * len(tasks)
        settled = [False] * len(tasks)
        errors: list[tuple[int, BaseException]] = []
        merged: Relation | None = None
        merged_through = 0
        pending = set(tasks)
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    index = index_of[task]
                    settled[index] = True
                    try:
                        exc = task.exception()
                    except asyncio.CancelledError as cancelled:
                        exc = cancelled
                    if exc is not None:
                        errors.append((index, exc))
                    else:
                        parts[index] = task.result()
                if errors and cancel_on_error:
                    # An Intersect child failed: the combination cannot
                    # succeed, so stop paying for the survivors.
                    break
                while (
                    not errors
                    and merged_through < len(tasks)
                    and settled[merged_through]
                ):
                    part = parts[merged_through]
                    parts[merged_through] = None
                    merged = part if merged is None \
                        else combine(merged, part)
                    merged_through += 1
        finally:
            if pending:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
        if errors:
            # Raise the earliest child's failure so deterministic
            # errors match serial execution exactly (the parallel
            # executor's rule).
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        return merged  # type: ignore[return-value]

    # -- the primitives --------------------------------------------------
    async def _call(self, source: CapabilitySource, condition,
                    attrs: frozenset) -> Relation:
        return await source.execute_async(condition, attrs)

    async def _backoff(self, policy: RetryPolicy, delay: float) -> None:
        # Backing off suspends this task only -- the loop (and every
        # sibling call) keeps running.
        import asyncio
        if policy.real_sleep and delay > 0.0:
            await asyncio.sleep(delay)

    async def _fetch(
        self, plan: SourceQuery, ctx: _ExecutionContext, span,
        source: CapabilitySource,
    ) -> Relation:
        """The attempts loop, behind single flight."""
        result, shared = await self._coalescer.single_flight(
            flight_key(plan.source, plan.condition, plan.attrs),
            lambda: self._attempts(plan, ctx, span, source),
        )
        if shared:
            ctx.add_coalesced()
            span.set_attributes(coalesced=True, rows=len(result))
        return result
