"""The wide-event request log: one structured event per ``ask``.

Metrics aggregate and traces sample; the question "what exactly
happened to *that* request" needs a third signal -- one **wide event**
per :meth:`~repro.mediator.mediator.Mediator.ask`, carrying everything
the mediator knew about it on a single line: the trace id (the join
key against exported spans and exemplars), the canonical plan
fingerprint, how planning resolved (plan-cache hit / template hit /
miss), what execution did (per-source query/tuple tallies, coalesced
hits), the measured latency, and how it ended (``ok``,
shed by admission control, or the error class).

:class:`AskEvent` is the event and the mediator's only per-ask record;
:class:`EventLog` is the sink -- a bounded thread-safe ring, read in
process (``events()``, ``format()``).

The mediator keeps two rings of the same events: ``mediator.events``
(``event_log_entries``) holds every ask, and
``mediator.slow_queries`` (armed by ``latency_objective``) holds the
asks past the objective, each carrying its rendered span timeline when
a recording tracer was installed.  A breaching ask is built once and
the same value lands in both.  ``python -m repro.trace --events``
prints the first of a demo run, ``--slowlog`` the second.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any


@dataclass
class AskEvent:
    """Everything the mediator knew about one ask, denormalized."""

    query: str
    source: str
    outcome: str  # "ok" | "shed" | an error class name
    duration_seconds: float
    #: 32-hex trace id (empty when no tracer was recording).
    trace_id: str = ""
    #: Canonical plan fingerprint (see :func:`plan_fingerprint`).
    fingerprint: str = ""
    planner: str | None = None
    #: How planning resolved: "hit" | "template_hit" | "miss" | "".
    plan_cache: str = ""
    #: Source name -> [queries, tuples] delta of this execution.
    per_source: dict[str, list[int]] = field(default_factory=dict)
    answers: int = 0
    coalesced_hits: int = 0
    error: str | None = None
    #: The rendered span timeline, kept for an ask past its latency
    #: objective when a recording tracer was installed.
    timeline: str | None = None

    def format(self) -> str:
        """One greppable line (the ``--events`` CLI view)."""
        parts = [
            f"[{self.fingerprint or '-'}]",
            f"{self.duration_seconds * 1000:.2f} ms",
            self.outcome,
        ]
        if self.trace_id:
            parts.append(f"trace={self.trace_id}")
        if self.plan_cache:
            parts.append(f"plan_cache={self.plan_cache}")
        if self.coalesced_hits:
            parts.append(f"coalesced={self.coalesced_hits}")
        parts.append(f"answers={self.answers}")
        if self.error:
            parts.append(f"error={self.error}")
        parts.append(self.query)
        return " ".join(parts)

    def format_breach(self, objective_seconds: float) -> str:
        """The event as an indented block against the objective it
        breached (the ``--slowlog`` CLI view)."""
        status = "ERROR" if self.error else "ok"
        lines = [
            f"[{self.fingerprint}] {self.duration_seconds * 1000:.2f} ms "
            f"(objective {objective_seconds * 1000:.2f} ms, {status}) "
            f"{self.query}"
        ]
        if self.planner:
            lines.append(f"    planner={self.planner} source={self.source}")
        if self.error:
            lines.append(f"    error={self.error}")
        if self.trace_id:
            lines.append(f"    trace_id={self.trace_id}")
        for name in sorted(self.per_source):
            queries, tuples = self.per_source[name]
            lines.append(f"    {name}: {queries} queries, {tuples} tuples")
        if self.timeline:
            lines.extend("    " + line for line in self.timeline.splitlines())
        return "\n".join(lines)


class EventLog:
    """A bounded ring of :class:`AskEvent`.

    Thread-safe; ``append`` is the mediator's hot-path call, so the
    ring insert happens under one short lock.  Past ``capacity`` the
    oldest event is evicted (counted).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[AskEvent] = deque(maxlen=capacity)
        self.recorded = 0
        self.evicted = 0

    def append(self, event: AskEvent) -> None:
        with self._lock:
            if len(self._ring) == self.capacity:
                self.evicted += 1
            self._ring.append(event)
            self.recorded += 1

    def events(self) -> list[AskEvent]:
        """Oldest-first snapshot of the retained ring."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "retained": len(self._ring),
                "recorded": self.recorded,
                "evicted": self.evicted,
            }

    def format(self, title: str = "ask events",
               objective_seconds: float | None = None) -> str:
        """The ring as text, oldest first, under a one-line header: a
        line per event, or -- given the latency objective the events
        breached, as the slow-query log is printed -- a block each."""
        events = self.events()
        stats = self.stats()
        header = (
            f"{title}: {stats['retained']} retained of "
            f"{stats['recorded']} recorded ({stats['evicted']} evicted)"
        )
        return "\n".join([header] + [
            event.format() if objective_seconds is None
            else event.format_breach(objective_seconds)
            for event in events
        ])

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.recorded = 0
            self.evicted = 0
