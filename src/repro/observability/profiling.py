"""Continuous profiling: phase wall/CPU aggregation and lock contention.

The repository's perf claims (X8-X15) are about *where time goes* --
planning vs. checking vs. source round-trips -- and about hot locks
staying cheap under concurrency.  This module turns the existing
telemetry into a continuous profiler with two halves, both **off by
default** and both free on the disabled path:

* :class:`PhaseProfiler` -- a span exporter that folds every finished
  :class:`~repro.observability.trace.Span` into a per-**phase**
  aggregate (plan / rewrite / check-adjacent planner phases / execute /
  source.service, see :func:`phase_category`): span count, wall
  seconds, and -- because :meth:`install` flips the tracer's
  ``record_cpu`` switch -- thread-CPU seconds, which separates
  "computing" phases from "waiting on the network" phases.  Aggregates
  live both on the profiler (:meth:`PhaseProfiler.snapshot` /
  :meth:`top`) and in the :class:`MetricsRegistry` as
  ``profile.phase.<category>.wall_seconds`` histograms plus
  ``.cpu_seconds`` counters, so ``/snapshot``, ``/metrics``
  (``repro_profile_*`` families) and ``python -m repro.dash`` see them
  with no extra plumbing.

* :class:`ContentionProfiler` -- swaps the hot locks (the
  :class:`~repro.serving.plan_cache.PlanCache` LRU lock, every
  source description's Check-cache lock, the
  :class:`~repro.observability.metrics.MetricsRegistry` registry lock,
  the :class:`~repro.serving.admission.AdmissionController` counter
  lock) for :class:`ProfiledLock` wrappers that time each
  ``acquire()`` wait into a ``profile.lock.<site>.wait_seconds``
  histogram (+ a ``.timeouts`` counter for timed acquires that gave
  up).  :meth:`ContentionProfiler.uninstall` restores the original
  locks, so profiling is strictly opt-in: an uninstrumented mediator
  runs the exact same lock objects as before this module existed.

Both profilers publish through pre-resolved instrument references --
never a registry name lookup on the hot path -- and every accounting
structure is guarded, so 16-thread load reconciles exactly (the X15
benchmark pins the disabled-path overhead at NullTracer levels).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from repro.observability.trace import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mediator.mediator import Mediator

#: Wait/phase histogram boundaries (seconds): finer than the request
#: -scale DEFAULT_BUCKETS because phases and lock waits live in the
#: microsecond-to-millisecond range.
PROFILE_BUCKETS: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)

#: The registry families the two profilers publish under (and the
#: dashboard's profiling panel reads).
PHASE_METRICS_PREFIX = "profile.phase"
LOCK_METRICS_PREFIX = "profile.lock"

#: Span-name -> phase category.  Exact names first; anything unknown
#: falls back to its first dotted segment so new spans are never lost.
_PHASE_BY_NAME = {
    "mediator.ask": "ask",
    "mediator.plan": "plan",
    "planner.plan": "plan",
    "planner.rewrite": "rewrite",
    "planner.mark": "mark",
    "planner.generate": "generate",
    "planner.cost": "cost",
    "mediator.execute": "execute",
    "executor.source_call": "execute",
    "source.service": "source.service",
}


def phase_category(span_name: str) -> str:
    """The phase a span aggregates under (``plan``, ``rewrite``,
    ``execute``, ``source.service``, ...)."""
    category = _PHASE_BY_NAME.get(span_name)
    if category is not None:
        return category
    return span_name.split(".", 1)[0] if span_name else "other"


@dataclass
class PhaseStat:
    """One phase's running aggregate (a value object; the profiler owns
    the locking)."""

    spans: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0

    @property
    def wall_mean(self) -> float:
        return self.wall_seconds / self.spans if self.spans else 0.0

    @property
    def cpu_share(self) -> float:
        """CPU seconds per wall second: ~1.0 means compute-bound, ~0.0
        means the phase was waiting (network, locks, sleeps)."""
        return self.cpu_seconds / self.wall_seconds if self.wall_seconds \
            else 0.0


class PhaseProfiler:
    """Aggregates finished spans into per-phase wall/CPU totals.

    Construction costs nothing and instruments nothing.  :meth:`install`
    attaches the profiler to a recording tracer (as an exporter) and
    turns that tracer's CPU clocks on; :meth:`detach` undoes both.  A
    profiler that was never installed leaves every hot path exactly as
    it was -- the off-by-default contract X15 measures.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self._registry = registry
        self._lock = threading.Lock()
        self._phases: dict[str, PhaseStat] = {}
        #: Pre-resolved (histogram, counter) per category -- publishing
        #: a span never takes the registry lock.
        self._instruments: dict[str, tuple[Histogram, Counter]] = {}
        self._tracer: Tracer | None = None
        self._saved_record_cpu = False

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_metrics()

    @property
    def installed(self) -> bool:
        return self._tracer is not None

    # ------------------------------------------------------------------
    def install(self, tracer: Tracer) -> "PhaseProfiler":
        """Attach to ``tracer``: export every finished span, record CPU.

        Raises on a :class:`NullTracer` (it never finishes spans) and on
        double-install; returns ``self`` for chaining.
        """
        if self._tracer is not None:
            raise RuntimeError("PhaseProfiler is already installed")
        tracer.add_exporter(self.export)  # NullTracer raises here
        self._tracer = tracer
        self._saved_record_cpu = tracer.record_cpu
        tracer.record_cpu = True
        return self

    def detach(self) -> None:
        """Stop exporting and restore the tracer's CPU switch."""
        if self._tracer is None:
            return
        self._tracer.remove_exporter(self.export)
        self._tracer.record_cpu = self._saved_record_cpu
        self._tracer = None

    # ------------------------------------------------------------------
    def export(self, span: Span) -> None:
        """Fold one finished span into its phase (exporter hook)."""
        category = phase_category(span.name)
        wall = span.duration
        cpu = span.cpu_duration
        with self._lock:
            stat = self._phases.get(category)
            if stat is None:
                stat = self._phases[category] = PhaseStat()
            stat.spans += 1
            stat.wall_seconds += wall
            stat.cpu_seconds += cpu
            instruments = self._instruments.get(category)
        if instruments is None:
            registry = self.registry
            instruments = (
                registry.histogram(
                    f"{PHASE_METRICS_PREFIX}.{category}.wall_seconds",
                    buckets=PROFILE_BUCKETS,
                ),
                registry.counter(
                    f"{PHASE_METRICS_PREFIX}.{category}.cpu_seconds"
                ),
            )
            with self._lock:
                self._instruments.setdefault(category, instruments)
        histogram, cpu_counter = instruments
        histogram.observe(wall)
        if cpu > 0.0:
            cpu_counter.inc(cpu)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, PhaseStat]:
        """Category -> aggregate, mutually consistent."""
        with self._lock:
            return {
                category: PhaseStat(stat.spans, stat.wall_seconds,
                                    stat.cpu_seconds)
                for category, stat in self._phases.items()
            }

    def top(self, by: str = "wall", n: int = 10
            ) -> list[tuple[str, PhaseStat]]:
        """The ``n`` heaviest phases by ``wall`` or ``cpu`` seconds."""
        if by not in ("wall", "cpu"):
            raise ValueError(f"order phases by 'wall' or 'cpu', not {by!r}")
        key = (lambda item: item[1].wall_seconds) if by == "wall" \
            else (lambda item: item[1].cpu_seconds)
        return sorted(self.snapshot().items(), key=key, reverse=True)[:n]

    def reset(self) -> None:
        with self._lock:
            self._phases.clear()

    def format(self) -> str:
        """A small human-readable dump (the trace CLI's --profile view)."""
        lines = [f"{'phase':<16} {'spans':>7} {'wall s':>10} {'cpu s':>10} "
                 f"{'cpu/wall':>9}"]
        for category, stat in self.top(n=len(self._phases) or 1):
            lines.append(
                f"{category:<16} {stat.spans:>7} {stat.wall_seconds:>10.4f} "
                f"{stat.cpu_seconds:>10.4f} {stat.cpu_share:>9.2f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Lock contention
# ----------------------------------------------------------------------


class ProfiledLock:
    """A drop-in lock wrapper that times every ``acquire()`` wait.

    Substitutes for anything with the ``acquire(blocking, timeout)`` /
    ``release()`` protocol (``threading.Lock``, ``BoundedSemaphore``).
    Each acquire observes its wait into the shared per-site histogram
    (several locks may share one *site* -- every source's Check-cache
    lock reports as ``check_cache``), and a timed acquire that gives up
    bumps the site's ``timeouts`` counter.  The instruments are plain
    registry :class:`Histogram`/:class:`Counter` objects held directly,
    so recording a wait never touches the registry lock -- which is what
    makes wrapping the registry's *own* lock safe.
    """

    __slots__ = ("site", "_inner", "_wait", "_timeouts")

    def __init__(self, inner: Any, site: str, wait: Histogram,
                 timeouts: Counter):
        self.site = site
        self._inner = inner
        self._wait = wait
        self._timeouts = timeouts

    @property
    def inner(self) -> Any:
        """The wrapped lock (what :meth:`ContentionProfiler.uninstall`
        puts back)."""
        return self._inner

    def acquire(self, blocking: bool = True,
                timeout: float | None = -1) -> bool:
        started = time.perf_counter()
        if not blocking:
            acquired = self._inner.acquire(False)
        elif timeout is None or timeout < 0:
            acquired = self._inner.acquire()
        else:
            acquired = self._inner.acquire(True, timeout)
        self._wait.observe(time.perf_counter() - started)
        if not acquired:
            self._timeouts.inc()
        return acquired

    def release(self) -> None:
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self._inner.release()


class ContentionProfiler:
    """Wraps a mediator's hot locks in :class:`ProfiledLock`\\ s.

    Sites and what they guard:

    * ``plan_cache`` -- the canonical plan cache's LRU lock;
    * ``plan_templates`` -- the template cache's LRU lock;
    * ``check_cache`` -- every catalog description's Check-LRU and
      Check-counter locks (native and commutation-closed forms share
      the site);
    * ``admission`` -- the admission controller's counter lock (the
      semaphore *queue* wait already has its own
      ``serving.admission.queue_wait_seconds`` histogram);
    * ``metrics_registry`` -- the registry's instrument-table lock.

    :meth:`instrument_mediator` / :meth:`instrument_registry` install;
    :meth:`uninstall` restores every original lock object, making the
    profiler's footprint strictly zero when off.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self._registry = registry
        #: (holder, attribute, original lock) for uninstall, in order.
        self._wrapped: list[tuple[Any, str, Any]] = []
        self._instruments: dict[str, tuple[Histogram, Counter]] = {}
        self._lock = threading.Lock()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_metrics()

    @property
    def installed(self) -> bool:
        return bool(self._wrapped)

    def _site_instruments(self, site: str) -> tuple[Histogram, Counter]:
        with self._lock:
            instruments = self._instruments.get(site)
            if instruments is None:
                # Created here, *before* any lock is wrapped, so the
                # registry lock is still a plain lock during creation.
                registry = self.registry
                instruments = (
                    registry.histogram(
                        f"{LOCK_METRICS_PREFIX}.{site}.wait_seconds",
                        buckets=PROFILE_BUCKETS,
                    ),
                    registry.counter(f"{LOCK_METRICS_PREFIX}.{site}.timeouts"),
                )
                self._instruments[site] = instruments
            return instruments

    # ------------------------------------------------------------------
    def wrap(self, holder: Any, attribute: str, site: str) -> ProfiledLock:
        """Replace ``holder.<attribute>`` with a profiled wrapper."""
        original = getattr(holder, attribute)
        if isinstance(original, ProfiledLock):
            raise RuntimeError(
                f"{site}: {attribute} on {type(holder).__name__} is "
                "already profiled"
            )
        wait, timeouts = self._site_instruments(site)
        profiled = ProfiledLock(original, site, wait, timeouts)
        setattr(holder, attribute, profiled)
        with self._lock:
            self._wrapped.append((holder, attribute, original))
        return profiled

    def instrument_mediator(self, mediator: "Mediator"
                            ) -> "ContentionProfiler":
        """Wrap every hot lock the mediator owns; returns ``self``."""
        if mediator.plan_cache is not None:
            self.wrap(mediator.plan_cache, "_lock", "plan_cache")
        if mediator.plan_templates is not None:
            self.wrap(mediator.plan_templates._cache, "_lock",
                      "plan_templates")
        for source in dict(mediator.catalog).values():
            descriptions = {id(source.description): source.description}
            closed = source.closed_description
            descriptions.setdefault(id(closed), closed)
            for description in descriptions.values():
                self.wrap(description._cache, "_lock", "check_cache")
                self.wrap(description, "_cache_lock", "check_cache")
        admission = getattr(mediator, "admission", None)
        if admission is not None:
            self.wrap(admission, "_lock", "admission")
        return self

    def instrument_registry(self, registry: MetricsRegistry | None = None
                            ) -> "ContentionProfiler":
        """Wrap the metrics registry's own instrument-table lock.

        Safe because :class:`ProfiledLock` records through direct
        instrument references (instrument locks only, never back
        through the registry lookup path), preserving the repo-wide
        registry-lock-before-instrument-lock ordering.
        """
        target = registry if registry is not None else self.registry
        # Force-create the site instruments first: creation goes through
        # registry.histogram()/counter(), which must still see the plain
        # lock.
        self._site_instruments("metrics_registry")
        self.wrap(target, "_lock", "metrics_registry")
        return self

    def uninstall(self) -> int:
        """Restore every wrapped lock; returns how many were restored."""
        with self._lock:
            wrapped, self._wrapped = self._wrapped, []
        for holder, attribute, original in reversed(wrapped):
            setattr(holder, attribute, original)
        return len(wrapped)

    # ------------------------------------------------------------------
    def sites(self) -> dict[str, dict[str, Any]]:
        """Site -> wait summary (from the site's histogram/counter)."""
        with self._lock:
            instruments = dict(self._instruments)
        summary: dict[str, dict[str, Any]] = {}
        for site, (wait, timeouts) in sorted(instruments.items()):
            reading = wait.snapshot()
            summary[site] = {
                "acquires": reading["count"],
                "wait_seconds": reading["sum"],
                "max_wait_seconds": reading["max"] or 0.0,
                "timeouts": timeouts.value,
            }
        return summary


# ----------------------------------------------------------------------
# One-call wiring
# ----------------------------------------------------------------------


class ProfilingSession:
    """Both profilers installed together; ``stop()`` (or the context
    manager) restores everything.

    ::

        with profile_mediator(mediator, tracer) as session:
            mediator.ask(...)
        session.phases.top()      # aggregates survive stop()
    """

    def __init__(self, phases: PhaseProfiler, locks: ContentionProfiler):
        self.phases = phases
        self.locks = locks

    def stop(self) -> None:
        self.phases.detach()
        self.locks.uninstall()

    def __enter__(self) -> "ProfilingSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def profile_mediator(
    mediator: "Mediator",
    tracer: Tracer,
    registry: MetricsRegistry | None = None,
    profile_registry_lock: bool = False,
) -> ProfilingSession:
    """Turn continuous profiling on for one mediator.

    ``tracer`` must be a recording tracer (the mediator's span stream is
    the phase feed).  ``profile_registry_lock=True`` additionally wraps
    the metrics registry's own lock -- useful when hunting registry
    contention, off by default because the registry is everyone's
    dependency.
    """
    phases = PhaseProfiler(registry=registry).install(tracer)
    locks = ContentionProfiler(registry=registry)
    try:
        locks.instrument_mediator(mediator)
        if profile_registry_lock:
            locks.instrument_registry()
    except BaseException:
        phases.detach()
        locks.uninstall()
        raise
    return ProfilingSession(phases, locks)


def profile_families(snapshot: dict[str, dict[str, Any]],
                     prefix: str) -> Iterator[tuple[str, dict[str, Any]]]:
    """(name-without-prefix, reading) pairs for one ``profile.*`` family
    in a registry snapshot -- shared by the dashboard's profiling panel
    and tests."""
    marker = prefix if prefix.endswith(".") else prefix + "."
    for name in sorted(snapshot):
        if name.startswith(marker):
            yield name[len(marker):], snapshot[name]
