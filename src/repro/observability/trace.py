"""End-to-end tracing: nested spans with context-local propagation.

The paper's evaluation is about quantities -- sub-plans kept, pruning
rules fired, queries issued -- and the ROADMAP's production north star
adds wall-clock ones: where a query's time actually went.  A
:class:`Tracer` answers both with the classic span model (emulating the
OpenTelemetry shape, without the dependency):

* a :class:`Span` is a named, timed unit of work with attributes, a
  status and optional point-in-time :class:`SpanEvent`\\ s;
* spans nest: the tracer keeps the current span in a
  :class:`contextvars.ContextVar`, and a span opened while another is
  active becomes its child.  For plain threads a ``ContextVar``
  behaves exactly like the thread-local it replaced (each thread has
  its own implicit context); for :mod:`asyncio` it additionally gives
  every task an isolated copy, so spans opened by interleaved tasks on
  one event-loop thread cannot corrupt each other's nesting;
* cross-thread and cross-task work stays connected:
  :meth:`Tracer.current_context` captures the active span as a token
  and :meth:`Tracer.attach` installs it on the other side, which is
  exactly what the parallel executor does when it fans a plan's
  branches out to worker threads and what the async executor does when
  it spawns branch tasks.

Disabled tracing must cost (almost) nothing on the hot path, so the
module ships :class:`NullTracer`: same interface, a single shared
no-op span and context manager, no allocation, no locking.  The
module-level default tracer is a ``NullTracer``; production code calls
:func:`get_tracer` at use sites and never checks for ``None``.

Everything here is thread-safe: span-id allocation and the
finished-span buffer are lock-guarded, and the *current span* is
context-local by construction.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Span status values (OpenTelemetry's three-valued status, flattened).
STATUS_OK = "OK"
STATUS_ERROR = "ERROR"


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span (structured log record)."""

    name: str
    timestamp: float
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass
class Span:
    """One named, timed unit of work in a trace tree."""

    name: str
    span_id: int
    trace_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    status: str = STATUS_OK
    error: str | None = None
    #: Thread-CPU clock readings bracketing the span, captured only when
    #: the owning tracer has ``record_cpu`` set (a PhaseProfiler is
    #: attached); ``None`` otherwise, so the default path never reads
    #: the CPU clock.
    cpu_start: float | None = None
    cpu_end: float | None = None

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def cpu_duration(self) -> float:
        """Thread-CPU seconds spent inside the span (0.0 unless the
        tracer recorded CPU clocks -- see ``Tracer.record_cpu``).

        A span runs on exactly one thread, so ``time.thread_time()``
        deltas are the span's own CPU burn: a 50 ms span with 0.2 ms of
        CPU was waiting on the network, one with 49 ms was computing.
        """
        if self.cpu_start is None or self.cpu_end is None:
            return 0.0
        return self.cpu_end - self.cpu_start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def add_event(self, name: str, timestamp: float | None = None,
                  **attributes: Any) -> None:
        if timestamp is None:
            timestamp = time.perf_counter()
        self.events.append(SpanEvent(name, timestamp, attributes))

    def record_exception(self, exc: BaseException) -> None:
        """Mark the span failed and keep the exception as an event."""
        self.status = STATUS_ERROR
        self.error = f"{type(exc).__name__}: {exc}"
        self.add_event(
            "exception",
            exception_type=type(exc).__name__,
            exception_message=str(exc),
        )


class _NullSpan(Span):
    """The shared do-nothing span the :class:`NullTracer` hands out."""

    def __init__(self) -> None:
        super().__init__(name="", span_id=0, trace_id=0, parent_id=None,
                         start=0.0)

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def add_event(self, name: str, timestamp: float | None = None,
                  **attributes: Any) -> None:
        pass

    def record_exception(self, exc: BaseException) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Produces nested spans and collects the finished ones.

    ``span(...)`` is the one entry point::

        with tracer.span("mediator.ask", query=text) as span:
            ...
            span.set_attribute("rows", len(rows))

    An exception escaping the block marks the span ``ERROR`` (with the
    exception recorded as an event) and re-raises.  Finished spans land
    in an internal buffer (:meth:`finished_spans`) and are offered to
    any registered exporter -- a callable taking the completed span.
    """

    enabled = True

    #: When true, every span brackets its body with ``time.thread_time()``
    #: readings so :attr:`Span.cpu_duration` is real.  Off by default --
    #: the CPU clock is a syscall on some platforms -- and flipped on by
    #: :meth:`~repro.observability.profiling.PhaseProfiler.install`.
    record_cpu = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: The innermost open span of the current thread *or* asyncio
        #: task.  A ContextVar is thread-local for plain threads and
        #: task-local under asyncio (each task runs in a copied
        #: context), which is what lets one event-loop thread interleave
        #: thousands of traced source calls without crosstalk.
        self._current: contextvars.ContextVar[Span | None] = \
            contextvars.ContextVar("repro_current_span", default=None)
        self._next_id = 1
        self._finished: list[Span] = []
        self._exporters: list[Callable[[Span], None]] = []

    # -- id allocation -------------------------------------------------
    def _allocate_id(self) -> int:
        with self._lock:
            allocated = self._next_id
            self._next_id += 1
            return allocated

    # -- context -------------------------------------------------------
    @property
    def current_span(self) -> Span | None:
        """The span active in *this* context (innermost open one)."""
        return self._current.get()

    def current_context(self) -> Span | None:
        """A token for handing the active span to another thread/task."""
        return self.current_span

    @contextmanager
    def attach(self, token: Span | None) -> Iterator[None]:
        """Install a captured context as the current span here.

        The parallel executor calls this on the worker side (and the
        async executor inside each spawned task) so branch spans parent
        under the span that was active where the branch was submitted
        -- one connected tree, however many threads or tasks ran.
        """
        previous = self._current.get()
        self._current.set(token)
        try:
            yield
        finally:
            self._current.set(previous)

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> "_SpanScope":
        return _SpanScope(self, name, attributes)

    def _record(self, span: Span) -> None:
        """Admit one finished span (subclasses decide differently --
        :class:`~repro.observability.sampling.SamplingTracer` buffers
        per trace and applies its keep rules here)."""
        with self._lock:
            self._finished.append(span)
            exporters = list(self._exporters)
        for exporter in exporters:
            exporter(span)

    def event(self, name: str, **attributes: Any) -> None:
        """Attach a structured event to the current span (if any)."""
        span = self.current_span
        if span is not None:
            span.add_event(name, **attributes)

    # -- collection ----------------------------------------------------
    def add_exporter(self, exporter: Callable[[Span], None]) -> None:
        with self._lock:
            self._exporters.append(exporter)

    def remove_exporter(self, exporter: Callable[[Span], None]) -> None:
        """Detach a previously added exporter (no-op if absent)."""
        with self._lock:
            try:
                self._exporters.remove(exporter)
            except ValueError:
                pass

    def finished_spans(self) -> list[Span]:
        """A snapshot of every span finished so far (ended order)."""
        with self._lock:
            return list(self._finished)

    def trace_spans(self, trace_id: int) -> list[Span]:
        """The finished spans of one trace (e.g. the ask being timed).

        The slow-query log uses this to render a timeline of the query
        that just blew its latency objective: by then every child span
        has finished even though the root is still open.
        """
        return [span for span in self.finished_spans()
                if span.trace_id == trace_id]

    def reset(self) -> None:
        """Drop collected spans (exporters and open spans are kept)."""
        with self._lock:
            self._finished.clear()


class _SpanScope:
    """``with tracer.span(...) as span``: opens the span as the current
    one on entry; on exit restores the parent, marks an escaping
    exception and hands the finished span to :meth:`Tracer._record`.
    (A class, not a generator: a traced ask opens half a dozen.)"""

    __slots__ = ("_tracer", "_name", "_attributes", "_parent", "_span")

    def __init__(self, tracer: Tracer, name: str, attributes: dict):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = self._parent = tracer.current_span
        opened = self._span = Span(
            name=self._name,
            span_id=tracer._allocate_id(),
            trace_id=parent.trace_id if parent is not None
            else tracer._allocate_id(),
            parent_id=parent.span_id if parent is not None else None,
            start=time.perf_counter(),
            attributes=self._attributes,
        )
        if tracer.record_cpu:
            opened.cpu_start = time.thread_time()
        tracer._current.set(opened)
        return opened

    def __exit__(self, exc_type, exc, traceback) -> None:
        opened = self._span
        if exc is not None:
            opened.record_exception(exc)
        if opened.cpu_start is not None:
            opened.cpu_end = time.thread_time()
        opened.end = time.perf_counter()
        self._tracer._current.set(self._parent)
        self._tracer._record(opened)


class _NullContext:
    """A reusable context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullTracer(Tracer):
    """The disabled tracer: every operation is a near-zero-cost no-op.

    ``span()`` returns one shared context manager yielding one shared
    inert span -- no allocation, no clock reads, no locking -- so
    instrumented code needs no ``if tracing:`` guards (benchmark X10
    measures the residual overhead).
    """

    enabled = False

    def __init__(self) -> None:  # deliberately no state at all
        pass

    @property
    def current_span(self) -> Span | None:
        return None

    def current_context(self) -> Span | None:
        return None

    def attach(self, token: Span | None) -> "_NullContext":
        return _NULL_CONTEXT

    def span(self, name: str, **attributes: Any) -> "_NullContext":
        return _NULL_CONTEXT

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def add_exporter(self, exporter: Callable[[Span], None]) -> None:
        raise ValueError("a NullTracer never finishes spans to export; "
                         "install a Tracer first (set_tracer/use_tracer)")

    def remove_exporter(self, exporter: Callable[[Span], None]) -> None:
        pass

    def finished_spans(self) -> list[Span]:
        return []

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()

_default_tracer: Tracer = NULL_TRACER
_default_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer instrumented code reports to."""
    return _default_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` globally (``None`` = disable); returns the old one."""
    global _default_tracer
    with _default_lock:
        previous = _default_tracer
        _default_tracer = tracer if tracer is not None else NULL_TRACER
        return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`set_tracer`: install for the block, then restore."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def wants_trace_event(logger, level: int) -> bool:
    """Would a :func:`trace_event` reach anyone -- a recording tracer,
    or ``logger`` at ``level``?  Call sites whose attributes cost a
    rendering (``str(condition)``) ask before building them."""
    return _default_tracer.enabled or logger.isEnabledFor(level)


def trace_event(logger, level: int, message: str, *args: Any,
                event: str, **attributes: Any) -> None:
    """One call, two audiences: a classic log line plus a span event.

    Keeps the human-readable (and backward-compatible) log message
    flowing through the stdlib ``logging`` hierarchy while recording
    the *structured* form -- ``event`` name and attributes -- on the
    current span, so tests and tools assert on attributes instead of
    message prefixes.
    """
    get_tracer().event(event, **attributes)
    if logger.isEnabledFor(level):
        logger.log(level, message, *args)
