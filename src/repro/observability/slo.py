"""Latency objectives: error-budget tracking and plan fingerprints.

A production mediator needs two answers the metrics alone do not give:
*are we meeting the objective* (and how much failure budget is left),
and *which queries blew it* (with enough context to debug them without
re-running anything).

:class:`SLOTracker` answers the first from a bucketed
:class:`~repro.observability.metrics.Histogram` of ask latencies: the
objective is inserted as a bucket boundary, so "how many asks finished
within the objective" is an exact cumulative read, not an estimate.
The target (say 0.99) defines the error budget -- the fraction of
requests *allowed* to breach -- and ``status()`` reports attainment,
budget burn, and ``ok`` / ``degraded``; the telemetry server's
``/health`` endpoint turns ``degraded`` into a 503.

The mediator's slow-query log answers the second: every ask past the
objective keeps its :class:`~repro.observability.events.AskEvent` --
query text, measured duration, the canonical plan fingerprint
(equivalent spellings of a query share one fingerprint, so the log
groups by *plan*, not by text), the per-source tallies of exactly that
execution, and the rendered span timeline when a recording tracer was
installed -- in a bounded :class:`~repro.observability.events.EventLog`.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.observability.metrics import Histogram, quantile_from_snapshot


def plan_fingerprint(key: object) -> str:
    """A short stable fingerprint of a canonical plan-cache key.

    Equivalent rewritings of a query canonicalize to the same key
    (see :func:`repro.serving.plan_cache.plan_cache_key`), so they
    share a fingerprint -- the slow-query log groups by what was
    *planned*, not by how the query happened to be spelled.
    """
    digest = hashlib.sha1(repr(key).encode("utf-8")).hexdigest()
    return digest[:12]


def query_fingerprint(query) -> str:
    """``plan_fingerprint(plan_cache_key(query))`` without rendering the
    key again: the query's fingerprint pass carried the ``repr`` of its
    exact key, the slow part of the rendering."""
    fingerprint = query.fingerprint
    key = f"({query.source!r}, {fingerprint.exact_text}, {query.attributes!r})"
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]


class SLOTracker:
    """Error-budget accounting over a bucketed latency histogram.

    ``histogram`` must carry ``objective_seconds`` as one of its bucket
    boundaries (the mediator constructs it that way); the cumulative
    count at that boundary is then exactly the number of asks that met
    the objective.  ``target`` is the intended attainment (0.99 = at
    most 1% of asks may breach); the **error budget** at any instant is
    ``(1 - target) * total`` breaches, and ``burn`` is the fraction of
    that budget already spent (>= 1.0 means exhausted -> degraded).
    """

    def __init__(self, histogram: Histogram, objective_seconds: float,
                 target: float = 0.99):
        if objective_seconds <= 0:
            raise ValueError("objective_seconds must be positive")
        if not 0.0 < target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {target}")
        if objective_seconds not in histogram.boundaries:
            raise ValueError(
                f"the latency histogram must have {objective_seconds!r} as "
                f"a bucket boundary for exact SLO accounting"
            )
        self.histogram = histogram
        self.objective_seconds = objective_seconds
        self.target = target

    def status(self) -> dict[str, Any]:
        """The current SLO reading (consumed by ``/health``)."""
        snapshot = self.histogram.snapshot()
        total = snapshot["count"]
        good = 0
        for boundary, cumulative in snapshot["buckets"]:
            if boundary <= self.objective_seconds:
                good = cumulative
            else:
                break
        breached = total - good
        budget = (1.0 - self.target) * total
        if breached == 0:
            burn = 0.0
        elif budget > 0:
            burn = breached / budget
        else:  # total == 0 cannot reach here; guard anyway
            burn = float("inf")
        attainment = good / total if total else 1.0
        return {
            "objective_seconds": self.objective_seconds,
            "target": self.target,
            "total": total,
            "breached": breached,
            "attainment": attainment,
            "budget_burn": burn,
            "p99_seconds": quantile_from_snapshot(snapshot, 0.99),
            "status": "ok" if burn < 1.0 else "degraded",
        }

    @property
    def degraded(self) -> bool:
        """True once the error budget is exhausted."""
        return self.status()["status"] == "degraded"

    def format(self) -> str:
        """One line for dashboards and the CLI."""
        status = self.status()
        return (
            f"slo {status['status']}: "
            f"{status['attainment'] * 100:.2f}% within "
            f"{status['objective_seconds'] * 1000:.1f} ms "
            f"(target {status['target'] * 100:g}%), "
            f"{status['breached']}/{status['total']} breached, "
            f"budget burn {status['budget_burn']:.2f}x, "
            f"p99 {status['p99_seconds'] * 1000:.2f} ms"
        )
