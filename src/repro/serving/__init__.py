"""The serving layer: plan caching, admission control, load generation.

Everything a mediator needs to stand in front of repeated traffic:

* :mod:`repro.serving.plan_cache` -- the canonical, versioned,
  thread-safe LRU :class:`PlanCache` that amortizes plan generation
  across equivalent queries, and the skeleton-keyed
  :class:`PlanTemplates` store behind it that rebinds a planned
  query's constants (validated substitution) so constant-varying
  respellings of one query shape skip planning too;
* :mod:`repro.serving.admission` -- the bounded
  :class:`AdmissionController` gate that sheds overload with a typed
  :class:`~repro.errors.OverloadError` instead of queueing without
  bound (and never deadlocks, whatever the executor fan-out);
* :mod:`repro.serving.loadgen` -- the :class:`LoadHarness` that
  replays workload mixes open- or closed-loop and reports throughput
  and tail latency (benchmark X11 is built on it).

``Mediator(plan_cache_entries=..., max_in_flight=...)`` wires the first
two in; the trace CLI exposes all three (``--plan-cache``,
``--max-in-flight``, ``--loadgen``).
"""

from repro.serving.admission import AdmissionController
from repro.serving.loadgen import LoadHarness, LoadReport, percentile
from repro.serving.plan_cache import (
    PlanCache,
    PlanTemplates,
    canonical_key,
    plan_cache_key,
    template_cache_key,
)

__all__ = [
    "AdmissionController",
    "LoadHarness",
    "LoadReport",
    "PlanCache",
    "PlanTemplates",
    "canonical_key",
    "percentile",
    "plan_cache_key",
    "template_cache_key",
]
