"""OpenMetrics text exposition for a :class:`MetricsRegistry` snapshot.

A snapshot is only production telemetry once a scraper can read it.
This module renders any registry snapshot in the OpenMetrics text
format (the Prometheus exposition dialect): one ``# TYPE`` header per
metric family, one sample per line, ``# EOF`` at the end -- entirely
stdlib, no client library.

Name mapping, deliberately mechanical so the golden test can pin it:

* dotted registry names become underscore families under the
  ``repro_`` prefix (``executor.retries`` -> ``repro_executor_retries``);
* the per-source namespace ``source.<name>.<metric>`` folds the source
  name into a **label** (``source.cars.queries`` ->
  ``repro_source_queries_total{source="cars"}``), so every source is
  one series of the same family rather than its own family;
* counters gain the ``_total`` suffix; gauges emit their value plus a
  ``_max`` companion for the high-water mark; histograms emit
  cumulative ``_bucket{le="..."}`` series (ending in ``le="+Inf"``),
  ``_sum`` and ``_count``;
* a histogram reading carrying ``exemplars`` (see
  :class:`~repro.observability.metrics.Histogram`) renders each one on
  the bucket line its value falls into, in OpenMetrics exemplar syntax
  -- ``... # {trace_id="<32-hex>"} <value> <timestamp>`` -- so a
  scraper can jump from a latency bucket straight to the trace.

Label values are escaped per the spec (backslash, double quote,
newline).  :data:`OPENMETRICS_CONTENT_TYPE` is the content type the
:class:`~repro.observability.server.TelemetryServer` serves under
``/metrics``.
"""

from __future__ import annotations

import re
from typing import Any

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """A metric-name-safe identifier (invalid characters -> ``_``)."""
    sanitized = _INVALID_NAME_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """A canonical numeric rendering: integers bare, floats compact."""
    if isinstance(value, bool):  # bools are ints; never wanted here
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def metric_family(name: str) -> tuple[str, dict[str, str]]:
    """Registry name -> (family name, labels).

    ``source.<name>.<metric>`` folds the source into a label; every
    other dotted name maps 1:1 to an underscore family.
    """
    parts = name.split(".")
    if parts[0] == "source" and len(parts) >= 3:
        family = "repro_source_" + "_".join(parts[2:])
        return sanitize_metric_name(family), {"source": parts[1]}
    return sanitize_metric_name("repro_" + "_".join(parts)), {}


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _sample(name: str, labels: dict[str, str], value: float) -> str:
    return f"{name}{_labels_text(labels)} {format_value(value)}"


def format_trace_id(trace_id: int) -> str:
    """A trace id as 32 lowercase hex digits, the form the slow-query
    log prints, so an exemplar's ``trace_id`` label greps against it."""
    return f"{int(trace_id):032x}"


def _exemplars_by_bucket(reading: dict[str, Any]) -> dict[Any, list]:
    """Bucket key (boundary or ``"+Inf"``) -> the largest exemplar
    whose value falls in that bucket (OpenMetrics allows at most one
    exemplar per bucket line)."""
    boundaries = [boundary for boundary, _ in reading.get("buckets", [])]
    chosen: dict[Any, list] = {}
    for exemplar in reading.get("exemplars") or []:
        value = exemplar[0]
        key: Any = "+Inf"
        for boundary in boundaries:
            if value <= boundary:
                key = boundary
                break
        best = chosen.get(key)
        if best is None or value > best[0]:
            chosen[key] = exemplar
    return chosen


def _exemplar_text(exemplar: list) -> str:
    value, trace_id, timestamp = exemplar
    return (
        f' # {{trace_id="{format_trace_id(trace_id)}"}} '
        f"{format_value(value)} {format_value(timestamp)}"
    )


def render_openmetrics(snapshot: dict[str, dict[str, Any]]) -> str:
    """Render a ``MetricsRegistry.snapshot()`` as OpenMetrics text."""
    families: dict[str, dict[str, Any]] = {}
    for name in sorted(snapshot):
        reading = snapshot[name]
        family, labels = metric_family(name)
        kind = reading["type"]
        entry = families.setdefault(
            family, {"kind": kind, "source_names": [], "rows": []}
        )
        if entry["kind"] != kind:
            # Two registry names folding onto one family with different
            # kinds: keep both observable under distinct families.
            family = sanitize_metric_name(f"{family}_{kind}")
            entry = families.setdefault(
                family, {"kind": kind, "source_names": [], "rows": []}
            )
        entry["source_names"].append(name)
        entry["rows"].append((labels, reading))
    lines: list[str] = []
    for family in sorted(families):
        entry = families[family]
        kind = entry["kind"]
        lines.append(f"# TYPE {family} {kind}")
        lines.append(
            f"# HELP {family} registry metric "
            f"{' '.join(entry['source_names'])}"
        )
        for labels, reading in entry["rows"]:
            if kind == "counter":
                lines.append(_sample(f"{family}_total", labels,
                                     reading["value"]))
            elif kind == "gauge":
                lines.append(_sample(family, labels, reading["value"]))
                lines.append(_sample(f"{family}_max", labels,
                                     reading["max"]))
            elif kind == "histogram":
                exemplars = _exemplars_by_bucket(reading)
                for boundary, cumulative in reading.get("buckets", []):
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = format_value(boundary)
                    line = _sample(f"{family}_bucket", bucket_labels,
                                   cumulative)
                    if boundary in exemplars:
                        line += _exemplar_text(exemplars[boundary])
                    lines.append(line)
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                line = _sample(f"{family}_bucket", inf_labels,
                               reading["count"])
                if "+Inf" in exemplars:
                    line += _exemplar_text(exemplars["+Inf"])
                lines.append(line)
                lines.append(_sample(f"{family}_sum", labels,
                                     reading["sum"]))
                lines.append(_sample(f"{family}_count", labels,
                                     reading["count"]))
            else:  # pragma: no cover - future instrument kinds
                lines.append(_sample(family, labels,
                                     reading.get("value", 0.0)))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
