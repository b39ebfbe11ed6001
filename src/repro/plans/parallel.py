"""Parallel plan execution: concurrent fan-out over independent branches.

The paper's sources are autonomous Internet sites, so the dominant
execution cost is round-trips -- and the serial
:class:`~repro.plans.execute.Executor` pays them one after another: a
Union over five wrappers is five sequential waits.  The children of a
Union/Intersect node are *independent* (no data flows between them),
which makes them the natural unit of concurrency.

:class:`ParallelExecutor` is a second *driver* of the one plan
interpreter in :mod:`repro.plans.execute`, not a copy of it: it
overrides only the fan-out policy.  A combination node hands branches
to a bounded thread pool, and each offloaded branch runs the
interpreter with the same loop-free driver the serial engine uses, on
its worker thread.  Source calls and backoff stay the serial engine's
blocking primitives, so query fixing, caching, retry, mirror failover
and execution-time Choice resolution are the serial code, running *per
branch*:

* retries back off inside the branch's own thread, never stalling the
  siblings;
* a failover re-plan executes in the branch that needed it;
* the shared :class:`~repro.plans.execute._ExecutionContext` keeps the
  attempt/retry/failover accounting and the plan-wide retry budget
  exact under contention (its counters are lock-guarded).

Two throttles bound the concurrency:

* ``max_workers`` caps the executor's total in-flight branches.  The
  pool is never over-submitted: a branch is handed to the pool only
  when a worker slot is free, otherwise the submitting thread runs it
  **inline**.  Nested combination nodes therefore can never deadlock
  the pool -- a worker that cannot offload its sub-branches simply
  executes them itself (work keeps moving even at ``max_workers=1``).
* each :class:`~repro.source.source.CapabilitySource` enforces its own
  ``max_concurrency`` on one in-flight count, so however wide the plan
  fans out, no wrapper sees more simultaneous calls than it declared.

Determinism: results are combined in child order and each branch's
computation is the serial one, so the *answer* is identical to serial
execution (the parity battery in ``tests/test_parallel_parity.py``
locks this down).  What legitimately varies with thread scheduling is
the interleaving of side effects -- which call consumes which draw of
a shared seeded :class:`~repro.source.faults.FaultInjector`, and the
resulting retry counts.  Seeded experiments that must be bit-identical
across runs should stay serial or give each source its own injector.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from repro.data.relation import Relation
from repro.observability.trace import Span, get_tracer
from repro.plans.execute import Executor, _ExecutionContext
from repro.plans.nodes import IntersectPlan, Plan, UnionPlan
from repro.source.source import drive

logger = logging.getLogger(__name__)


class ParallelExecutor(Executor):
    """A drop-in :class:`Executor` that fans combination nodes out.

    Construct it with the same arguments as the serial executor plus
    ``max_workers``.  The thread pool is created lazily on the first
    parallel opportunity and lives until :meth:`close` (the class is a
    context manager); a plan with no Union/Intersect nodes never starts
    a thread.
    """

    def __init__(self, *args, max_workers: int = 8, **kwargs):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        super().__init__(*args, **kwargs)
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # One token per worker: a branch is submitted to the pool only
        # with a token held, so submitted work never queues behind a
        # blocked parent -- the no-deadlock invariant.
        self._slots = threading.BoundedSemaphore(max_workers)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-parallel",
                )
            return self._pool

    # ------------------------------------------------------------------
    async def _execute_combination(
        self, plan: UnionPlan | IntersectPlan, ctx: _ExecutionContext
    ) -> Relation:
        children = plan.children
        if len(children) == 1 or self.max_workers == 1:
            return await super()._execute_combination(plan, ctx)

        futures: list[tuple[int, Future]] = []
        errors: list[tuple[int, BaseException]] = []
        parts: list[Relation | None] = [None] * len(children)
        pending = deque(enumerate(children))
        # Capture the submitting thread's span context once: every
        # offloaded branch re-attaches it on the worker side, so spans
        # opened there parent under the combination's span -- one
        # connected trace tree regardless of which thread ran what.
        trace_context = get_tracer().current_context()
        # Interleave offloading and inline work: before each inline
        # branch, hand as many *pending* branches as there are free
        # worker slots to the pool -- slots released by finished workers
        # are re-consumed mid-plan, so a long fan-out keeps every worker
        # busy instead of pre-splitting the children once.  At least one
        # branch per round stays inline, which is what makes nested
        # fan-outs deadlock-free at any pool size.
        while pending:
            while len(pending) > 1 and self._slots.acquire(blocking=False):
                index, child = pending.pop()
                try:
                    future = self._ensure_pool().submit(
                        self._run_branch, child, ctx, trace_context
                    )
                except BaseException:
                    self._slots.release()
                    raise
                futures.append((index, future))
            index, child = pending.popleft()
            try:
                parts[index] = await self._execute(child, ctx)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append((index, exc))
        if futures:
            logger.debug(
                "%s fan-out: %d branches offloaded, %d ran inline",
                plan.op_name, len(futures), len(children) - len(futures),
            )
        for index, future in futures:
            try:
                parts[index] = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append((index, exc))
        if errors:
            # Every branch has finished; surface the earliest child's
            # failure so deterministic errors (capability rejections,
            # infeasibility) match serial execution exactly.
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        return self._combine(plan, parts)

    def _run_branch(
        self,
        child: Plan,
        ctx: _ExecutionContext,
        trace_context: Span | None = None,
    ) -> Relation:
        """Worker-side driver: execute one branch, then free the slot.

        Re-attaches the submitting thread's span context so the
        branch's spans stay parented in the caller's trace tree.
        """
        try:
            with get_tracer().attach(trace_context):
                return drive(self._execute(child, ctx))
        finally:
            self._slots.release()
