"""Observability: tracing, metrics and exporters for the whole stack.

The paper's evaluation (Sections 5-7) is framed in terms of quantities
-- sub-plans kept (Q), pruning rules fired (PR1-PR3), queries issued,
tuples moved -- and the production north star adds wall-clock ones.
This package makes all of them visible at runtime without any external
dependency:

* :mod:`repro.observability.trace` -- :class:`Tracer` / nested
  :class:`Span` trees with thread-local context propagation (and the
  near-zero-cost :class:`NullTracer` for the disabled path);
* :mod:`repro.observability.metrics` -- the :class:`MetricsRegistry`
  of named counters/gauges/histograms;
* :mod:`repro.observability.export` -- the JSONL span round-trip,
  the in-memory exporter, span-tree utilities;
* :mod:`repro.observability.timeline` -- the ASCII timeline behind
  ``Mediator.explain(trace=True)`` and ``python -m repro.trace``;
* :mod:`repro.observability.sampling` -- the production
  :class:`SamplingTracer`: head-sampling ratio, tail keep rules
  (errors and slow traces always kept), bounded ring buffer;
* :mod:`repro.observability.profiling` -- continuous profiling:
  :class:`PhaseProfiler` (wall/CPU per span category) and
  :class:`ContentionProfiler` (lock acquire-wait histograms), both
  off by default and free when off;
* :mod:`repro.observability.exposition` -- the OpenMetrics text
  renderer behind ``/metrics``;
* :mod:`repro.observability.server` -- the opt-in, stdlib-only
  :class:`TelemetryServer` (``/metrics`` / ``/health`` /
  ``/snapshot``);
* :mod:`repro.observability.slo` -- :class:`SLOTracker` error-budget
  accounting and the canonical plan fingerprints;
* :mod:`repro.observability.events` -- the wide-event request log:
  one structured :class:`AskEvent` per ``Mediator.ask``, the
  mediator's single per-ask record, in a bounded :class:`EventLog`
  ring.  The slow-query log is a second ``EventLog`` holding the same
  events of the asks that breached the latency objective, each with
  its span timeline.

The package is a leaf -- it imports no other ``repro`` module at run
time -- so every subsystem can report to it without an import cycle.
Traces and metrics describe one mediator process; the telemetry
server is how anything outside it reads them.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from repro.observability.exposition import (
    OPENMETRICS_CONTENT_TYPE,
    render_openmetrics,
)
from repro.observability.events import AskEvent, EventLog
from repro.observability.export import (
    InMemoryCollector,
    orphan_spans,
    read_jsonl,
    span_from_dict,
    span_to_dict,
    tree_shape,
    write_jsonl,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    quantile_from_snapshot,
    set_metrics,
    use_metrics,
)
from repro.observability.profiling import (
    PROFILE_BUCKETS,
    ContentionProfiler,
    PhaseProfiler,
    PhaseStat,
    ProfiledLock,
    ProfilingSession,
    phase_category,
    profile_families,
    profile_mediator,
)
from repro.observability.sampling import SamplingTracer
from repro.observability.slo import (
    SLOTracker,
    plan_fingerprint,
    query_fingerprint,
)
from repro.observability.timeline import render_timeline
from repro.observability.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    get_tracer,
    set_tracer,
    trace_event,
    use_tracer,
)

if TYPE_CHECKING:
    from repro.observability.server import TelemetryServer

#: Names whose modules load on first use: the telemetry server pulls in
#: the standard library's HTTP server (about 2 MB resident), which a
#: process that never serves telemetry does not need.
_ON_FIRST_USE = {
    "TelemetryServer": "server",
}


def __getattr__(name: str):
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = [
    "AskEvent",
    "ContentionProfiler",
    "Counter",
    "DEFAULT_BUCKETS",
    "EventLog",
    "Exemplar",
    "Gauge",
    "Histogram",
    "InMemoryCollector",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OPENMETRICS_CONTENT_TYPE",
    "PROFILE_BUCKETS",
    "PhaseProfiler",
    "PhaseStat",
    "ProfiledLock",
    "ProfilingSession",
    "SLOTracker",
    "SamplingTracer",
    "Span",
    "SpanEvent",
    "TelemetryServer",
    "Tracer",
    "get_metrics",
    "get_tracer",
    "orphan_spans",
    "phase_category",
    "plan_fingerprint",
    "query_fingerprint",
    "profile_families",
    "profile_mediator",
    "quantile_from_snapshot",
    "read_jsonl",
    "render_openmetrics",
    "render_timeline",
    "set_metrics",
    "set_tracer",
    "span_from_dict",
    "span_to_dict",
    "trace_event",
    "tree_shape",
    "use_metrics",
    "use_tracer",
    "write_jsonl",
]
