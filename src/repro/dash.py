"""An ASCII telemetry dashboard: ``python -m repro.dash URL``.

One screen over a running :class:`~repro.observability.TelemetryServer`
-- health, SLO, admission, a continuous-profiling panel (top phases by
wall/CPU and the hottest lock-wait sites, when a profiler is
publishing), and every histogram with its streaming p50/p95/p99 plus a
bucket-distribution sparkline -- rendered from the server's
``/snapshot`` and ``/health`` endpoints with nothing but the stdlib.

One-shot by default; ``--watch SECONDS`` refreshes in place until
interrupted (``--iterations N`` bounds the loop, mostly for tests)::

    python -m repro.dash http://127.0.0.1:9464            # one shot
    python -m repro.dash http://127.0.0.1:9464 --watch 2  # live

Start a server from the trace CLI (``python -m repro.trace ...
--serve PORT``) or in-process with ``TelemetryServer(mediator=...)``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any

from repro.observability.metrics import quantile_from_snapshot
from repro.observability.profiling import (
    LOCK_METRICS_PREFIX,
    PHASE_METRICS_PREFIX,
    profile_families,
)

_SPARK = "▁▂▃▄▅▆▇█"


def fetch_json(url: str, timeout: float = 5.0) -> tuple[int, Any]:
    """GET ``url`` and parse the JSON body (503 bodies included)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as reply:
        # /health answers 503 while degraded -- that *is* the document.
        return reply.code, json.loads(reply.read().decode("utf-8"))


def sparkline(reading: dict[str, Any], width: int = 16) -> str:
    """The histogram's bucket distribution as a fixed-width sparkline."""
    buckets = reading.get("buckets") or []
    previous = 0
    per_bucket = []
    for _, cumulative in buckets:
        per_bucket.append(cumulative - previous)
        previous = cumulative
    per_bucket.append(reading.get("count", 0) - previous)  # +Inf bucket
    if len(per_bucket) > width:  # fold adjacent buckets down to width
        folded = [0] * width
        for index, value in enumerate(per_bucket):
            folded[index * width // len(per_bucket)] += value
        per_bucket = folded
    peak = max(per_bucket) if per_bucket else 0
    if peak == 0:
        return "·" * len(per_bucket)
    return "".join(
        _SPARK[min(len(_SPARK) - 1, value * len(_SPARK) // (peak + 1))]
        if value else "·"
        for value in per_bucket
    )


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


def profiling_panel(snapshot: dict[str, dict[str, Any]],
                    top: int = 8) -> list[str]:
    """The continuous-profiler panel: top phases by wall/CPU and the
    hottest lock-wait sites, from ``profile.*`` registry families.

    Empty when no profiler has published (the off-by-default case) --
    the dashboard simply omits the panel.
    """
    phases: dict[str, dict[str, float]] = {}
    for name, reading in profile_families(snapshot, PHASE_METRICS_PREFIX):
        category, _, kind = name.rpartition(".")
        stat = phases.setdefault(
            category, {"spans": 0, "wall": 0.0, "cpu": 0.0})
        if kind == "wall_seconds":
            stat["spans"] = reading.get("count", 0)
            stat["wall"] = reading.get("sum", 0.0)
        elif kind == "cpu_seconds":
            stat["cpu"] = reading.get("value", 0.0)
    locks: dict[str, dict[str, float]] = {}
    for name, reading in profile_families(snapshot, LOCK_METRICS_PREFIX):
        site, _, kind = name.rpartition(".")
        stat = locks.setdefault(
            site, {"acquires": 0, "wait": 0.0, "max": 0.0, "timeouts": 0.0})
        if kind == "wait_seconds":
            stat["acquires"] = reading.get("count", 0)
            stat["wait"] = reading.get("sum", 0.0)
            stat["max"] = reading.get("max") or 0.0
        elif kind == "timeouts":
            stat["timeouts"] = reading.get("value", 0.0)

    lines: list[str] = []
    if phases:
        lines.append("")
        lines.append(f"  {'profile: phase':<24} {'spans':>8} "
                     f"{'wall s':>10} {'cpu s':>10} {'cpu/wall':>9}")
        ranked = sorted(phases.items(), key=lambda item: item[1]["wall"],
                        reverse=True)[:top]
        for category, stat in ranked:
            share = stat["cpu"] / stat["wall"] if stat["wall"] else 0.0
            lines.append(
                f"  {category:<24} {stat['spans']:>8g} "
                f"{stat['wall']:>10.4f} {stat['cpu']:>10.4f} {share:>9.2f}"
            )
    if locks:
        lines.append("")
        lines.append(f"  {'profile: lock site':<24} {'acquires':>8} "
                     f"{'wait s':>10} {'max ms':>10} {'timeouts':>9}")
        ranked = sorted(locks.items(), key=lambda item: item[1]["wait"],
                        reverse=True)[:top]
        for site, stat in ranked:
            lines.append(
                f"  {site:<24} {stat['acquires']:>8g} "
                f"{stat['wait']:>10.4f} {_ms(stat['max']):>10} "
                f"{stat['timeouts']:>9g}"
            )
    return lines


#: The request-sharing counter the serving panel owns (and the generic
#: counter section therefore omits).
SERVING_COUNTER = "executor.coalesced_hits"


def serving_panel(snapshot: dict[str, dict[str, Any]]) -> list[str]:
    """The request-sharing panel: the async engine's single-flight
    coalesced hits (see :mod:`repro.plans.coalesce`), each a source
    call the mediator did *not* make.  Empty when the counter has not
    been touched."""
    reading = snapshot.get(SERVING_COUNTER)
    if reading is None or reading.get("type") != "counter":
        return []
    coalesced = reading.get("value", 0)
    return [
        "",
        "  serving: request sharing",
        f"  {'coalesced hits':<24} {coalesced:>12g}",
        f"  {'source calls avoided':<24} {coalesced:>12g}",
    ]


def render(health: dict[str, Any], snapshot: dict[str, dict[str, Any]],
           source: str) -> str:
    """The one-screen dashboard for one scrape."""
    lines = [f"repro dash — {source} — status "
             f"{health.get('status', '?').upper()}"]
    if "catalog_version" in health:
        lines.append(
            f"  catalog v{health['catalog_version']} "
            f"({health.get('sources', '?')} sources)"
        )
    admission = health.get("admission")
    if admission:
        lines.append(
            f"  admission: {admission['in_flight']}/"
            f"{admission['max_in_flight']} in flight, "
            f"{admission['admitted']} admitted, {admission['shed']} shed "
            f"({admission['shed_rate'] * 100:.1f}%)"
        )
    slo = health.get("slo")
    if slo:
        lines.append(
            f"  slo: {slo['status']} — {slo['attainment'] * 100:.2f}% "
            f"within {_ms(slo['objective_seconds'])} ms "
            f"(target {slo['target'] * 100:g}%), "
            f"burn {slo['budget_burn']}x, "
            f"p99 {_ms(slo['p99_seconds'])} ms"
        )
    slow = health.get("slow_queries")
    if slow:
        lines.append(
            f"  slow queries: {slow['recorded']} recorded, "
            f"{slow['retained']} retained, {slow['evicted']} evicted"
        )
    lines.extend(profiling_panel(snapshot))
    lines.extend(serving_panel(snapshot))
    # profile.* families and the serving-panel counter render in
    # their own panels above, not in the generic instrument sections.
    generic = {n: r for n, r in snapshot.items()
               if not n.startswith("profile.") and n != SERVING_COUNTER}
    histograms = {n: r for n, r in generic.items()
                  if r["type"] == "histogram"}
    counters = {n: r for n, r in generic.items()
                if r["type"] == "counter"}
    gauges = {n: r for n, r in generic.items() if r["type"] == "gauge"}
    if histograms:
        lines.append("")
        lines.append(f"  {'histogram':<40} {'count':>7} {'mean ms':>9} "
                     f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}  dist")
        for name in sorted(histograms):
            reading = histograms[name]
            lines.append(
                f"  {name:<40} {reading['count']:>7} "
                f"{_ms(reading['mean']):>9} "
                f"{_ms(quantile_from_snapshot(reading, 0.5)):>9} "
                f"{_ms(quantile_from_snapshot(reading, 0.95)):>9} "
                f"{_ms(quantile_from_snapshot(reading, 0.99)):>9}  "
                f"{sparkline(reading)}"
            )
    if counters:
        lines.append("")
        for name in sorted(counters):
            lines.append(f"  {name:<52} {counters[name]['value']:>12g}")
    if gauges:
        lines.append("")
        for name in sorted(gauges):
            reading = gauges[name]
            lines.append(
                f"  {name:<52} {reading['value']:>12g} "
                f"(max {reading['max']:g})"
            )
    return "\n".join(lines)


def scrape(base_url: str) -> str:
    """One dashboard frame from a telemetry server's endpoints."""
    _, health = fetch_json(base_url.rstrip("/") + "/health")
    _, snapshot = fetch_json(base_url.rstrip("/") + "/snapshot")
    return render(health, snapshot, base_url)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dash",
        description="Render a telemetry server's /snapshot + /health as "
                    "a one-screen ASCII dashboard.",
    )
    parser.add_argument("url",
                        help="telemetry server base URL, e.g. "
                             "http://127.0.0.1:9464")
    parser.add_argument("--watch", type=float, default=None,
                        metavar="SECONDS",
                        help="refresh every SECONDS until interrupted")
    parser.add_argument("--iterations", type=int, default=None, metavar="N",
                        help="stop after N frames (with --watch; default "
                             "unbounded)")
    args = parser.parse_args(argv)
    if args.watch is not None and args.watch <= 0:
        raise SystemExit("error: --watch must be a positive interval")
    frames = 0
    while True:
        try:
            frame = scrape(args.url)
        except (OSError, ValueError) as exc:
            print(f"error: cannot scrape {args.url}: {exc}",
                  file=sys.stderr)
            return 1
        if args.watch is not None and frames > 0:
            print("\x1b[2J\x1b[H", end="")  # clear screen between frames
        print(frame)
        frames += 1
        if args.watch is None:
            return 0
        if args.iterations is not None and frames >= args.iterations:
            return 0
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


if __name__ == "__main__":
    sys.exit(main())
