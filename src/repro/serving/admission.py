"""Admission control: a bounded in-flight gate that sheds, never hangs.

A serving mediator has finite capacity; past it, queueing theory is
merciless -- latency explodes and every client times out.  The classic
remedy is to bound the number of requests *in flight* and shed the
excess quickly with a typed error the client can act on (back off,
retry elsewhere), instead of letting an unbounded queue build.

:class:`AdmissionController` is that gate:

* at most ``max_in_flight`` requests hold the gate at once;
* a request that cannot enter within ``queue_timeout`` seconds is shed
  with :class:`~repro.errors.OverloadError` -- the caller *always* gets
  an answer or a shed within a bounded wait, never a hang;
* the gate is **re-entrant per thread**: a thread already admitted
  passes nested ``admit()`` calls through for free, so a request that
  recursively asks the same mediator (or an executor callback that
  re-enters) can never deadlock against its own admission slot;
* worker threads a :class:`~repro.plans.parallel.ParallelExecutor`
  fans an admitted request out on never touch the gate at all -- the
  unit of admission is the *request*, not the source call -- which is
  what keeps ``max_in_flight=1`` safe above any fan-out.

Accounting goes to both local counters (exact reconciliation in tests:
``admitted + shed`` equals every ``admit()`` outcome) and the metrics
registry: ``serving.admission.admitted`` / ``.shed`` counters, a
``serving.admission.in_flight`` gauge with high-water mark, and a
``serving.admission.queue_wait_seconds`` histogram.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.errors import OverloadError
from repro.observability.metrics import get_metrics
from repro.observability.trace import get_tracer

#: The registry family the gate publishes under.
METRICS_PREFIX = "serving.admission"


class AdmissionController:
    """Bounds concurrent requests; sheds after ``queue_timeout`` seconds."""

    def __init__(self, max_in_flight: int, queue_timeout: float = 1.0):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if queue_timeout < 0:
            raise ValueError("queue_timeout must be non-negative")
        self.max_in_flight = max_in_flight
        self.queue_timeout = queue_timeout
        self._slots = threading.BoundedSemaphore(max_in_flight)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._in_flight = 0
        #: Requests that entered the gate / were shed at it (exact:
        #: every admit() outcome increments exactly one of the two).
        self.admitted = 0
        self.shed = 0

    @property
    def in_flight(self) -> int:
        """How many admitted requests are currently inside the gate."""
        with self._lock:
            return self._in_flight

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    # ------------------------------------------------------------------
    @contextmanager
    def admit(self) -> Iterator[None]:
        """Enter the gate (or raise :class:`OverloadError` within the
        queue timeout).  Re-entrant: a thread already inside passes."""
        if self._depth() > 0:
            self._local.depth += 1
            try:
                yield
            finally:
                self._local.depth -= 1
            return
        metrics = get_metrics()
        started = time.perf_counter()
        acquired = self._slots.acquire(timeout=self.queue_timeout)
        waited = time.perf_counter() - started
        metrics.histogram(
            f"{METRICS_PREFIX}.queue_wait_seconds"
        ).observe(waited)
        if not acquired:
            with self._lock:
                self.shed += 1
            metrics.counter(f"{METRICS_PREFIX}.shed").inc()
            get_tracer().event(
                "admission.shed", waited_seconds=waited,
                max_in_flight=self.max_in_flight,
            )
            raise OverloadError(
                f"admission queue full: {self.max_in_flight} requests in "
                f"flight and none finished within {self.queue_timeout:.3f}s",
                waited=waited,
            )
        with self._lock:
            self.admitted += 1
            self._in_flight += 1
            current = self._in_flight
        gauge = metrics.gauge(f"{METRICS_PREFIX}.in_flight")
        gauge.set(current)
        metrics.counter(f"{METRICS_PREFIX}.admitted").inc()
        self._local.depth = 1
        try:
            yield
        finally:
            self._local.depth = 0
            with self._lock:
                self._in_flight -= 1
                current = self._in_flight
            gauge.set(current)
            self._slots.release()
