"""Trace sampling: keep the interesting traces, bound the memory.

A recording :class:`~repro.observability.trace.Tracer` keeps *every*
span forever -- perfect for one traced query, unusable under serving
load.  :class:`SamplingTracer` is the production variant:

* **head sampling**: each trace is kept with probability ``ratio``,
  decided deterministically from the trace id and ``seed`` the moment
  the decision is needed -- the same run samples the same traces;
* **tail-based keep rules**: a trace the head decision would drop is
  kept anyway when it turns out interesting -- any span ended with
  ``ERROR`` status, or the root span exceeded ``slow_threshold``
  seconds.  Errors and slow queries are exactly the traces worth
  keeping, and a head decision cannot see them;
* **bounded ring buffer**: kept spans land in a ``deque(maxlen=...)``,
  so memory is capped however long the process serves; the oldest kept
  spans are evicted first (counted, never silently);
* **pinned traces**: a trace whose latency landed in a histogram's
  exemplar slots (see :class:`~repro.observability.metrics.Histogram`)
  is kept regardless of the head decision -- an exported exemplar
  pointing at a dropped trace would be a dead link.  Pin with
  :meth:`SamplingTracer.pin_trace` *before* the root finishes.

Until a trace's root span finishes, its spans sit in a per-trace
pending buffer (tail rules need the whole trace).  A trace whose root
never finishes cannot pend forever: past ``max_pending_traces`` the
oldest pending trace is dropped and accounted.  The accounting is
exact and lock-guarded: every finished span ends up in exactly one of
``spans_kept`` / ``spans_dropped``, every rooted trace in exactly one
of ``traces_kept`` / ``traces_dropped`` -- the concurrency battery in
``tests/test_sampling.py`` reconciles both under a thread storm.

Exporters attached with ``add_exporter`` see **kept** spans only, at
trace-completion time.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any

from repro.observability.trace import STATUS_ERROR, Span, Tracer


class SamplingTracer(Tracer):
    """A recording tracer that samples head-first and keeps tails."""

    def __init__(
        self,
        ratio: float = 0.1,
        slow_threshold: float | None = None,
        capacity: int = 2048,
        seed: int = 0,
        max_pending_traces: int = 1024,
    ):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if max_pending_traces < 1:
            raise ValueError("max_pending_traces must be at least 1")
        super().__init__()
        self.ratio = ratio
        self.slow_threshold = slow_threshold
        self.capacity = capacity
        self.seed = seed
        self.max_pending_traces = max_pending_traces
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._pending: dict[int, list[Span]] = {}
        #: Trace ids that must be kept whatever the head decision says
        #: (exemplar-recorded observations point at them).  Bounded like
        #: the pending table; an id is consumed when its trace settles.
        self._pinned: set[int] = set()
        self.traces_kept = 0
        self.traces_dropped = 0
        self.spans_kept = 0
        self.spans_dropped = 0
        self.spans_evicted = 0
        self.traces_pinned = 0

    # -- decisions -----------------------------------------------------
    def head_decision(self, trace_id: int) -> bool:
        """The deterministic coin flip for one trace id."""
        if self.ratio >= 1.0:
            return True
        if self.ratio <= 0.0:
            return False
        return random.Random((self.seed << 32) ^ trace_id).random() < self.ratio

    def pin_trace(self, trace_id: int) -> None:
        """Force-keep ``trace_id`` whatever the head decision says.

        The mediator calls this the moment a latency histogram records
        an exemplar for the trace, so every exported exemplar's trace
        is resolvable in the ring.  Bounded alongside the pending
        table; pinning after the trace already settled is a no-op.
        """
        with self._lock:
            if len(self._pinned) < self.max_pending_traces:
                self._pinned.add(trace_id)

    def _tail_keep(self, root: Span, spans: list[Span]) -> str | None:
        """The tail rule that keeps this trace, or ``None``."""
        if any(span.status == STATUS_ERROR for span in spans):
            return "error"
        if (self.slow_threshold is not None
                and root.duration >= self.slow_threshold):
            return "slow"
        return None

    # -- the recording hook --------------------------------------------
    def _record(self, span: Span) -> None:
        exporters: list = []
        kept: list[Span] = []
        with self._lock:
            bucket = self._pending.setdefault(span.trace_id, [])
            bucket.append(span)
            if span.parent_id is not None:
                self._evict_pending_locked()
                return
            # The root finished: the whole trace is in hand -- decide.
            spans = self._pending.pop(span.trace_id)
            pinned = span.trace_id in self._pinned
            self._pinned.discard(span.trace_id)
            if pinned:
                self.traces_pinned += 1
            if self.head_decision(span.trace_id) or pinned \
                    or self._tail_keep(span, spans):
                kept = spans
                self.traces_kept += 1
                self.spans_kept += len(spans)
                overflow = max(
                    0, len(self._ring) + len(spans) - self.capacity
                )
                self.spans_evicted += overflow
                self._ring.extend(spans)
                exporters = list(self._exporters)
            else:
                self.traces_dropped += 1
                self.spans_dropped += len(spans)
        for exporter in exporters:
            for span in kept:
                exporter(span)

    def _evict_pending_locked(self) -> None:
        """Bound the pending table (a rootless trace must not leak)."""
        while len(self._pending) > self.max_pending_traces:
            oldest = next(iter(self._pending))
            spans = self._pending.pop(oldest)
            self.traces_dropped += 1
            self.spans_dropped += len(spans)

    # -- collection ----------------------------------------------------
    def finished_spans(self) -> list[Span]:
        """The kept spans currently in the ring buffer (oldest first)."""
        with self._lock:
            return list(self._ring)

    def trace_spans(self, trace_id: int) -> list[Span]:
        """Finished spans of one trace: pending buffer plus kept ring."""
        with self._lock:
            pending = list(self._pending.get(trace_id, []))
            kept = [s for s in self._ring if s.trace_id == trace_id]
        return pending + kept

    def stats(self) -> dict[str, Any]:
        """The exact keep/drop accounting (see the module docstring)."""
        with self._lock:
            return {
                "ratio": self.ratio,
                "slow_threshold": self.slow_threshold,
                "capacity": self.capacity,
                "traces_kept": self.traces_kept,
                "traces_dropped": self.traces_dropped,
                "spans_kept": self.spans_kept,
                "spans_dropped": self.spans_dropped,
                "spans_evicted": self.spans_evicted,
                "traces_pinned": self.traces_pinned,
                "ring_size": len(self._ring),
                "pending_traces": len(self._pending),
                "pinned_traces": len(self._pinned),
            }

    def format_stats(self) -> str:
        """One line for the CLI: what was kept, dropped and why."""
        stats = self.stats()
        threshold = (
            "off" if stats["slow_threshold"] is None
            else f"{stats['slow_threshold'] * 1000:.0f}ms"
        )
        return (
            f"sampler ratio={stats['ratio']:g} slow>{threshold}: "
            f"{stats['traces_kept']} traces kept, "
            f"{stats['traces_dropped']} dropped "
            f"({stats['spans_kept']} spans kept, "
            f"{stats['spans_dropped']} dropped, "
            f"{stats['spans_evicted']} evicted; "
            f"ring {stats['ring_size']}/{stats['capacity']})"
        )

    def reset(self) -> None:
        """Drop kept and pending spans and zero the accounting."""
        with self._lock:
            self._finished.clear()
            self._ring.clear()
            self._pending.clear()
            self._pinned.clear()
            self.traces_kept = 0
            self.traces_dropped = 0
            self.spans_kept = 0
            self.spans_dropped = 0
            self.spans_evicted = 0
            self.traces_pinned = 0
