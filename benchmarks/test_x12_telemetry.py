"""X12 (extension): the price and the proof of production telemetry.

Three questions, one results table:

* **sampling overhead** -- the X10 macro batch (plan+execute cycles on
  the standard catalog) under the default :class:`NullTracer`, under a
  10% :class:`SamplingTracer`, and under the full recording
  :class:`Tracer`.  The bar: sampled recording stays within **2x** of
  the disabled-tracer baseline (in practice it sits a few percent
  above it, far below the full recorder).
* **live scrape cost** -- the X11 load mix (closed-loop harness over
  the synthetic world) with a scraper hammering the telemetry server's
  ``/metrics`` endpoint for the whole run vs the same run unobserved.
  The bar: the scrape costs **< 5%** throughput (best-of-N on both
  sides to shave scheduler noise).
* **SLO + slow-query proof** -- a fault-injected run (20 ms simulated
  source latency behind a 5 ms objective) must burn the error budget,
  flip ``/health`` to 503/degraded over real HTTP, and leave a
  slow-query log that reconciles *exactly* with the SLO tracker's
  breach count, every entry over the objective and fingerprinted with
  its canonical plan.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

from benchmarks.conftest import QUICK
from repro.experiments.report import Table
from repro.mediator import Mediator
from repro.observability import (
    MetricsRegistry,
    SamplingTracer,
    TelemetryServer,
    Tracer,
    plan_fingerprint,
    use_metrics,
    use_tracer,
)
from repro.perf.schema import Bar, Tolerance
from repro.serving import LoadHarness
from repro.serving.plan_cache import plan_cache_key
from repro.source.faults import SimulatedLatency
from repro.source.library import standard_catalog
from repro.workloads.synthetic import WorldConfig, make_queries, make_source

_QUERIES = [
    "SELECT title FROM bookstore WHERE author = 'Carl Jung' "
    "or author = 'Sigmund Freud'",
    "SELECT model FROM car_guide WHERE make = 'BMW' and price < 40000",
    "SELECT owner FROM bank WHERE account_no = 42",
    "SELECT title FROM bookstore WHERE subject = 'philosophy' "
    "and title contains 'dream'",
]

_ROUNDS = 20 if QUICK else 150
_LOAD_REQUESTS = 384 if QUICK else 1536
_LOAD_THREADS = 8
_SCRAPE_REPEATS = 6
_SLO_OBJECTIVE_S = 0.005
_SLO_ASKS = 12 if QUICK else 40

_CONFIG = WorldConfig(n_attributes=8, n_rows=400 if QUICK else 2000,
                      richness=0.8, download_prob=1.0, seed=412)


# ----------------------------------------------------------------------
# Part 1: sampled recording vs the disabled-tracer baseline
# ----------------------------------------------------------------------

def _library_mediator() -> Mediator:
    mediator = Mediator()
    for source in standard_catalog(seed=1999).values():
        mediator.add_source(source)
    return mediator


def _run_batch(mediator: Mediator, rounds: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        for query in _QUERIES:
            mediator.ask(query)
    return time.perf_counter() - start


def _overhead() -> dict:
    mediator = _library_mediator()
    _run_batch(mediator, 2)  # warm caches, stats, lazy imports
    with use_metrics(MetricsRegistry()):
        t_null = _run_batch(mediator, _ROUNDS)
    with use_metrics(MetricsRegistry()):
        with use_tracer(SamplingTracer(ratio=0.1, capacity=4096)) as sampler:
            t_sampled = _run_batch(mediator, _ROUNDS)
        stats = sampler.stats()
    with use_metrics(MetricsRegistry()):
        with use_tracer(Tracer()) as full:
            t_full = _run_batch(mediator, _ROUNDS)
        full_spans = len(full.finished_spans())
    return {
        "null_s": t_null,
        "sampled_s": t_sampled,
        "full_s": t_full,
        "sampled_ratio": t_sampled / t_null,
        "full_ratio": t_full / t_null,
        "sampled_kept": stats["traces_kept"],
        "sampled_dropped": stats["traces_dropped"],
        "full_spans": full_spans,
    }


# ----------------------------------------------------------------------
# Part 2: throughput with a live /metrics scraper vs unobserved
# ----------------------------------------------------------------------

def _serving_world():
    source = make_source(_CONFIG)
    mediator = Mediator(plan_cache_entries=256,
                        result_cache_tuples=200_000,
                        max_in_flight=_LOAD_THREADS,
                        admission_timeout=30.0)
    mediator.add_source(source)
    queries = make_queries(_CONFIG, source, 6, 6, seed=412_006)
    return mediator, queries


def _load_run(scraped: bool) -> tuple[float, int]:
    """One harness run -> (throughput rps, scrapes served)."""
    registry = MetricsRegistry()
    scrapes = 0
    with use_metrics(registry):
        mediator, queries = _serving_world()
        for query in queries:  # warm the plan cache on both sides
            mediator.ask(query)
        harness = LoadHarness(mediator, queries, threads=_LOAD_THREADS)
        if not scraped:
            return harness.run(_LOAD_REQUESTS).throughput_rps, 0
        stop = threading.Event()

        def scraper(url: str) -> None:
            # A tight scraper: one GET every 25 ms for the whole run
            # (hundreds of times denser than any real Prometheus).
            nonlocal scrapes
            while not stop.is_set():
                with urllib.request.urlopen(url + "/metrics",
                                            timeout=5) as reply:
                    reply.read()
                scrapes += 1
                stop.wait(0.025)

        with TelemetryServer(mediator=mediator,
                             registry=registry) as server:
            thread = threading.Thread(target=scraper, args=(server.url,),
                                      daemon=True)
            thread.start()
            try:
                report = harness.run(_LOAD_REQUESTS)
            finally:
                stop.set()
                thread.join(timeout=10.0)
        return report.throughput_rps, scrapes


def _scrape_cost() -> dict:
    _load_run(scraped=False)  # warm-up: lazy imports, allocator, caches
    baseline = scraped = 0.0
    scrape_count = 0
    for _ in range(_SCRAPE_REPEATS):  # best-of-N on both sides
        baseline = max(baseline, _load_run(scraped=False)[0])
        rps, scrapes = _load_run(scraped=True)
        if rps > scraped:
            scraped, scrape_count = rps, scrapes
    return {
        "baseline_rps": baseline,
        "scraped_rps": scraped,
        "cost": max(0.0, 1.0 - scraped / baseline),
        "scrapes": scrape_count,
    }


# ----------------------------------------------------------------------
# Part 3: fault-injected SLO burn, /health flip, slow-query exactness
# ----------------------------------------------------------------------

def _slo_burn() -> dict:
    registry = MetricsRegistry()
    with use_metrics(registry):
        source = make_source(_CONFIG)
        source.latency = SimulatedLatency(seed=23, base=0.02, jitter=0.0)
        mediator = Mediator(latency_objective=_SLO_OBJECTIVE_S)
        mediator.add_source(source)
        queries = make_queries(_CONFIG, source, 4, 6, seed=412_106)
        for index in range(_SLO_ASKS):
            mediator.ask(queries[index % len(queries)])
        status = mediator.slo.status()
        with TelemetryServer(mediator=mediator,
                             registry=registry) as server:
            try:
                with urllib.request.urlopen(server.url + "/health",
                                            timeout=10) as reply:
                    http_status, body = reply.status, reply.read()
            except urllib.error.HTTPError as reply:
                http_status, body = reply.code, reply.read()
    health = json.loads(body.decode("utf-8"))
    entries = mediator.slow_queries.events()
    expected_fingerprints = {
        plan_fingerprint(plan_cache_key(query)) for query in queries
    }
    return {
        "asks": _SLO_ASKS,
        "breached": status["breached"],
        "budget_burn": status["budget_burn"],
        "slo_status": status["status"],
        "http_status": http_status,
        "health_status": health["status"],
        "log_recorded": mediator.slow_queries.recorded,
        "log_over_objective": sum(
            entry.duration_seconds > _SLO_OBJECTIVE_S for entry in entries
        ),
        "log_entries": len(entries),
        "fingerprints_match": all(
            entry.fingerprint in expected_fingerprints for entry in entries
        ),
    }


# ----------------------------------------------------------------------

def _table() -> tuple[Table, dict, dict, dict]:
    overhead = _overhead()
    scrape = _scrape_cost()
    slo = _slo_burn()
    table = Table(
        "X12: production telemetry -- overhead, scrape cost, SLO proof",
        ["measure", "value", "unit"],
        notes=(
            f"Overhead: {_ROUNDS} rounds x {len(_QUERIES)} queries of "
            "plan+execute on the standard catalog; null is the disabled "
            "NullTracer baseline, sampled a 10% SamplingTracer, full the "
            "recording Tracer (bar: sampled <= 2x null).  Scrape: "
            f"best-of-{_SCRAPE_REPEATS} throughput of the {_LOAD_THREADS}"
            f"-thread x {_LOAD_REQUESTS}-request X11-style load mix with "
            "a live /metrics scraper vs unobserved (bar: < 5% cost).  "
            f"SLO: {_SLO_ASKS} asks against a 20 ms fault-injected "
            "source under a 5 ms objective must exhaust the budget, "
            "flip /health to 503 over HTTP, and fill the slow-query log "
            "with exactly the breaching asks, canonically fingerprinted."
        ),
    )
    table.add("macro null tracer", round(overhead["null_s"], 4), "s")
    table.add("macro sampled tracer (10%)",
              round(overhead["sampled_s"], 4), "s")
    table.add("macro full tracer", round(overhead["full_s"], 4), "s")
    table.add("sampled / null", round(overhead["sampled_ratio"], 3), "x")
    table.add("full / null", round(overhead["full_ratio"], 3), "x")
    table.add("sampled traces kept",
              overhead["sampled_kept"], "traces")
    table.add("sampled traces dropped",
              overhead["sampled_dropped"], "traces")
    table.add("load unobserved", round(scrape["baseline_rps"], 1), "req/s")
    table.add("load under live scrape",
              round(scrape["scraped_rps"], 1), "req/s")
    table.add("scrape throughput cost",
              round(scrape["cost"] * 100, 2), "%")
    table.add("scrapes served during run", scrape["scrapes"], "GETs")
    table.add("slo asks", slo["asks"], "asks")
    table.add("slo breached", slo["breached"], "asks")
    table.add("slo budget burn", round(slo["budget_burn"], 1), "x")
    table.add("/health over HTTP", slo["http_status"],
              slo["health_status"])
    table.add("slow-query log recorded", slo["log_recorded"], "entries")
    return table, overhead, scrape, slo


def test_x12_telemetry(record_table, record_bench):
    table, overhead, scrape, slo = _table()
    record_table("x12", table)
    record_bench(
        "x12",
        metrics={
            "overhead.sampled_ratio": overhead["sampled_ratio"],
            "overhead.full_ratio": overhead["full_ratio"],
            "scrape.cost": scrape["cost"],
            "scrape.served": scrape["scrapes"],
            "slo.budget_burn": slo["budget_burn"],
            "slo.http_status": slo["http_status"],
            "slo.log_recorded": slo["log_recorded"],
        },
        bars={
            "overhead.sampled_ratio": Bar("<=", 2.0),
            "scrape.cost": Bar("<=", 0.05),
            "scrape.served": Bar(">=", 1.0),
            "slo.budget_burn": Bar(">=", 1.0),
            "slo.http_status": Bar("==", 503.0),
        },
        tolerances={
            # Timing ratios on shared CI boxes: a wide band, the bars
            # above are the real floors/ceilings.
            "overhead.sampled_ratio": Tolerance("lower", rel=0.6),
            "scrape.cost": Tolerance("lower", abs=0.03),
        },
        seed=412,
    )

    # Sampled recording stays within 2x of the disabled baseline.
    assert overhead["sampled_ratio"] <= 2.0, (
        f"10% sampling cost {overhead['sampled_ratio']:.2f}x the "
        f"NullTracer baseline"
    )
    # Sampling actually sampled: some traces kept, most dropped.
    assert overhead["sampled_kept"] > 0
    assert overhead["sampled_dropped"] > overhead["sampled_kept"]

    # A live scraper watched the whole run and cost < 5% throughput.
    assert scrape["scrapes"] > 0
    assert scrape["cost"] < 0.05, (
        f"live /metrics scrape cost {scrape['cost']:.1%} throughput"
    )

    # The fault-injected run exhausted the budget and /health said so
    # over real HTTP.
    assert slo["slo_status"] == "degraded"
    assert slo["budget_burn"] >= 1.0
    assert slo["http_status"] == 503
    assert slo["health_status"] == "degraded"

    # The slow-query log holds exactly the over-objective asks, every
    # one carrying its canonical plan fingerprint.
    assert slo["log_recorded"] == slo["breached"] == slo["asks"]
    assert slo["log_over_objective"] == slo["log_entries"]
    assert slo["fingerprints_match"]


def test_x12_bench_sampled_ask(benchmark):
    mediator = _library_mediator()
    query = _QUERIES[0]
    mediator.ask(query)  # warm
    with use_tracer(SamplingTracer(ratio=0.1)):
        benchmark(lambda: mediator.ask(query))
