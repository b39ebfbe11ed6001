"""Trace one query end to end: ``python -m repro.trace "<SELECT ...>"``.

The one-command answer to "why is this query slow / why was this plan
picked": plans and executes the query against the library catalog with
a recording :class:`~repro.observability.Tracer` installed, then
prints

* the chosen plan and its estimated cost,
* the execution report (wall-clock, queries, tuples, retries,
  per-source traffic breakdown),
* the full span timeline -- mediator, planner phases (rewrite / mark /
  generate / cost, with sub-plan count Q and PR1-PR3 pruning-rule
  fire counts), per-source-call spans (attempts, retries, backoff,
  worker slot) and per-source service spans (queue wait, latency).

Options: ``--planner`` picks the scheme, ``--executor`` the engine
(``parallel`` or ``async``: the timeline then shows worker threads or
tasks), ``--metrics`` appends the metrics-registry snapshot,
``--jsonl PATH`` exports the spans for offline tooling.

Serving options: ``--plan-cache N`` enables the canonical plan cache
and runs the query **twice** -- the second ``mediator.ask`` tree in
the timeline carries a ``plan.cache_hit`` event, the one-screen proof
that planning was amortized.  ``--max-in-flight N`` installs admission
control (sheds with ``OverloadError`` under overload).  ``--loadgen
TxR`` replays the query from ``T`` client threads for ``R`` total
requests through the same mediator and prints the throughput /
p50/p95/p99 report.

Telemetry options: ``--sample RATIO`` traces with a
:class:`~repro.observability.SamplingTracer` (head ratio + tail keep
rules) instead of the full recorder and prints its keep/drop stats;
``--slo MS`` arms the latency objective (SLO tracker + slow-query
log); ``--slowlog`` prints the slow-query log after the run (with an
objective of 0 ms when ``--slo`` was not given, so every ask logs);
``--serve PORT`` starts the stdlib :class:`TelemetryServer` (0 =
ephemeral port), scrapes its ``/metrics`` and ``/health`` over real
HTTP and prints both -- the one-command proof the exposition works;
``--profile`` runs with the continuous profiler on and prints the
phase (wall/CPU) and lock-wait breakdown after the run; ``--events``
arms the wide-event request log (one structured event per ask --
trace id, plan fingerprint, planning outcome, latency, outcome) and
prints it after the run.

The catalog is :func:`~repro.source.library.standard_catalog` plus the
Example 4.1 ``cars`` source, so the paper's running example works
verbatim::

    python -m repro.trace "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.mediator import Mediator
from repro.observability import (
    SamplingTracer,
    TelemetryServer,
    Tracer,
    get_metrics,
    render_timeline,
    use_tracer,
    write_jsonl,
)
from repro.source.library import cars, standard_catalog


def build_mediator(planner_name: str = "gencompact",
                   plan_cache: int | None = None,
                   max_in_flight: int | None = None,
                   latency_objective: float | None = None,
                   executor: str | None = None,
                   event_log_entries: int | None = None) -> Mediator:
    """The CLI's mediator: library catalog + Example 4.1's cars source."""
    from repro.__main__ import _make_planner

    mediator = Mediator(
        planner=_make_planner(planner_name), executor=executor,
        plan_cache_entries=plan_cache, max_in_flight=max_in_flight,
        latency_objective=latency_objective,
        event_log_entries=event_log_entries,
    )
    for source in standard_catalog().values():
        mediator.add_source(source)
    mediator.add_source(cars())
    return mediator


def _parse_loadgen(spec: str) -> tuple[int, int]:
    """``TxR`` -> (threads, total requests); e.g. ``4x40``."""
    try:
        threads_text, requests_text = spec.lower().split("x", 1)
        threads, requests = int(threads_text), int(requests_text)
    except ValueError:
        raise SystemExit(
            f"error: --loadgen expects THREADSxREQUESTS (e.g. 4x40), "
            f"got {spec!r}"
        ) from None
    if threads < 1 or requests < 1:
        raise SystemExit("error: --loadgen threads and requests must be >= 1")
    return threads, requests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Plan + execute one query with tracing on; print the "
                    "span timeline.",
    )
    parser.add_argument("query", help="a SELECT ... FROM ... WHERE ... query")
    parser.add_argument("--planner", default="gencompact",
                        help="gencompact|genmodular|cnf|dnf|disco|naive")
    parser.add_argument("--executor", default=None,
                        choices=["serial", "parallel", "async"],
                        help="execution engine (parallel = a worker "
                             "pool, async = event-loop tasks with "
                             "single-flight coalescing; the timeline then "
                             "shows the workers)")
    parser.add_argument("--limit", type=int, default=5,
                        help="max answer rows to print (default 5)")
    parser.add_argument("--width", type=int, default=32,
                        help="timeline bar width in characters")
    parser.add_argument("--metrics", action="store_true",
                        help="also print the metrics-registry snapshot")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="export the spans to PATH as JSON lines")
    parser.add_argument("--plan-cache", type=int, default=None, metavar="N",
                        help="enable an N-entry canonical plan cache and "
                             "run the query twice (the second run's "
                             "timeline shows plan.cache_hit)")
    parser.add_argument("--max-in-flight", type=int, default=None,
                        metavar="N",
                        help="bound concurrent asks with admission control "
                             "(shed via OverloadError past N in flight)")
    parser.add_argument("--loadgen", metavar="TxR", default=None,
                        help="after tracing, replay the query from T client "
                             "threads for R total requests and print the "
                             "throughput/latency report (e.g. 4x40)")
    parser.add_argument("--sample", type=float, default=None,
                        metavar="RATIO",
                        help="trace with a SamplingTracer at this head "
                             "ratio (tail rules keep errors and, with "
                             "--slo, slow traces) and print its stats")
    parser.add_argument("--slo", type=float, default=None, metavar="MS",
                        help="latency objective in ms: arms the SLO "
                             "tracker and the slow-query log")
    parser.add_argument("--slowlog", action="store_true",
                        help="print the slow-query log after the run "
                             "(without --slo the objective is ~0, so "
                             "every ask is logged)")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="start the telemetry server (0 = ephemeral "
                             "port), scrape /metrics and /health over "
                             "HTTP and print both")
    parser.add_argument("--profile", action="store_true",
                        help="run with the continuous profiler on and "
                             "print the phase (wall/CPU) and lock-wait "
                             "breakdown after the run")
    parser.add_argument("--events", action="store_true",
                        help="arm the wide-event request log (one "
                             "structured event per ask) and print it "
                             "after the run")
    args = parser.parse_args(argv)

    loadgen = _parse_loadgen(args.loadgen) if args.loadgen else None
    objective = None
    if args.slo is not None:
        if args.slo <= 0:
            raise SystemExit("error: --slo must be a positive number of ms")
        objective = args.slo / 1000.0
    elif args.slowlog:
        objective = 1e-9  # effectively zero: every ask breaches and logs
    try:
        mediator = build_mediator(args.planner, args.plan_cache,
                                  args.max_in_flight,
                                  latency_objective=objective,
                                  executor=args.executor,
                                  event_log_entries=256 if args.events
                                  else None)
        if args.sample is not None:
            tracer = SamplingTracer(ratio=args.sample,
                                    slow_threshold=objective)
        else:
            tracer = Tracer()
        session = None
        if args.profile:
            from repro.observability import profile_mediator

            session = profile_mediator(mediator, tracer)
        with use_tracer(tracer):
            answer = mediator.ask(args.query)
            if args.plan_cache is not None:
                # The warm run: same canonical key, so the second
                # mediator.ask tree carries the plan.cache_hit event.
                answer = mediator.ask(args.query)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = answer.report
    print(answer.planning.describe())
    print(
        f"executed in {report.duration_seconds * 1000:.2f} ms: "
        f"{report.queries} source queries, "
        f"{report.tuples_transferred} tuples transferred, "
        f"{report.attempts} attempts ({report.retries} retries, "
        f"{report.failovers} failovers, "
        f"{report.backoff_seconds:.3f}s backoff), "
        f"{len(answer.rows)} answer rows"
    )
    if report.coalesced_hits:
        print(f"  shared: {report.coalesced_hits} coalesced hits")
    for name, delta in sorted(report.per_source.items()):
        print(f"  {name}: {delta.queries} queries, {delta.tuples} tuples")
    for row in answer.rows[: args.limit]:
        print("  " + ", ".join(f"{k}={v}" for k, v in sorted(row.items())))
    if len(answer.rows) > args.limit:
        print(f"  ... {len(answer.rows) - args.limit} more")

    print()
    print(render_timeline(tracer.finished_spans(), width=args.width))
    if args.sample is not None:
        print()
        print(tracer.format_stats())

    if loadgen is not None:
        from repro.serving.loadgen import LoadHarness

        threads, requests = loadgen
        harness = LoadHarness(mediator, [args.query], threads=threads)
        with use_tracer(tracer):
            report = harness.run(requests)
        print()
        print(report.format())

    if session is not None:
        session.stop()
        print()
        print(session.phases.format())
        sites = session.locks.sites()
        if sites:
            print()
            print(f"{'lock site':<18} {'acquires':>9} {'wait s':>10} "
                  f"{'timeouts':>9}")
            for site, summary in sites.items():
                print(f"{site:<18} {summary['acquires']:>9} "
                      f"{summary['wait_seconds']:>10.5f} "
                      f"{summary['timeouts']:>9g}")

    if mediator.slo is not None:
        print()
        print(mediator.slo.format())
    if args.slowlog:
        print()
        print(mediator.slow_queries.format(
            "slow-query log", mediator.latency_objective))
    if args.events:
        print()
        print(mediator.events.format())

    if args.serve is not None:
        import urllib.error
        import urllib.request

        with TelemetryServer(mediator=mediator,
                             port=args.serve) as server:
            print(f"\ntelemetry server on {server.url}")
            for path in ("/metrics", "/health"):
                try:
                    with urllib.request.urlopen(server.url + path) as reply:
                        body = reply.read().decode("utf-8")
                        status = reply.status
                except urllib.error.HTTPError as reply:  # degraded = 503
                    body = reply.read().decode("utf-8")
                    status = reply.code
                print(f"\nGET {path} -> {status}")
                print(body.rstrip("\n"))

    if args.metrics:
        print()
        print(get_metrics().format())
    if args.jsonl:
        count = write_jsonl(tracer.finished_spans(), args.jsonl)
        print(f"\nwrote {count} spans to {args.jsonl}")
    mediator.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
