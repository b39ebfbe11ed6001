"""HTTP smoke tests: the telemetry server, the dash, the CLI flags.

Real sockets, stdlib client: a scraper must be able to GET
``/metrics`` (OpenMetrics, ``# EOF``-terminated), ``/health`` (JSON;
503 once the SLO budget is gone) and ``/snapshot`` (lossless JSON)
from outside the process, and ``python -m repro.dash`` must render a
frame from those endpoints.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.dash import main as dash_main
from repro.dash import render, serving_panel, sparkline
from repro.observability import (
    MetricsRegistry,
    SamplingTracer,
    TelemetryServer,
    use_metrics,
    use_tracer,
)
from repro.trace import build_mediator
from repro.trace import main as trace_main

QUERY = "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"


def _get(url: str) -> tuple[int, str, str]:
    """GET -> (status, content type, body); 4xx/5xx bodies included."""
    try:
        with urllib.request.urlopen(url, timeout=10) as reply:
            return (reply.status, reply.headers.get("Content-Type", ""),
                    reply.read().decode("utf-8"))
    except urllib.error.HTTPError as reply:
        return (reply.code, reply.headers.get("Content-Type", ""),
                reply.read().decode("utf-8"))


@pytest.fixture
def served_mediator():
    registry = MetricsRegistry()
    with use_metrics(registry):
        mediator = build_mediator(latency_objective=0.05)
        mediator.ask(QUERY)
        with TelemetryServer(mediator=mediator, registry=registry) as server:
            yield mediator, server


class TestEndpoints:
    def test_metrics_is_openmetrics_text(self, served_mediator):
        _, server = served_mediator
        status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("application/openmetrics-text")
        assert "# TYPE repro_mediator_ask_seconds histogram" in body
        assert 'repro_source_queries_total{source="cars"} 1' in body
        assert body.endswith("# EOF\n")

    def test_health_reports_catalog_admission_and_slo(self, served_mediator):
        mediator, server = served_mediator
        status, content_type, body = _get(server.url + "/health")
        document = json.loads(body)
        assert content_type == "application/json"
        assert document["catalog_version"] == mediator.catalog_version
        assert document["sources"] == len(mediator.catalog)
        assert document["slo"]["total"] == 1
        assert document["slow_queries"]["recorded"] == len(
            mediator.slow_queries
        )
        assert (status, document["status"]) in [(200, "ok"),
                                                (503, "degraded")]

    def test_snapshot_is_the_lossless_registry(self, served_mediator):
        _, server = served_mediator
        status, content_type, body = _get(server.url + "/snapshot")
        snapshot = json.loads(body)
        assert status == 200 and content_type == "application/json"
        assert snapshot["source.cars.queries"]["value"] == 1
        assert snapshot["mediator.ask_seconds"]["type"] == "histogram"
        assert snapshot["mediator.ask_seconds"]["buckets"]  # not stripped

    def test_metrics_carries_ask_exemplars_that_resolve(self):
        """``/metrics`` and ``/snapshot`` serve the mediator's own ask
        latency histogram, the one that records exemplars, and each
        exemplar names a trace the sampler kept."""
        registry = MetricsRegistry()
        tracer = SamplingTracer(ratio=1.0)
        with use_metrics(registry), use_tracer(tracer):
            mediator = build_mediator(latency_objective=0.05)
            for _ in range(5):
                mediator.ask(QUERY)
            with TelemetryServer(mediator=mediator,
                                 registry=registry) as server:
                _, _, metrics = _get(server.url + "/metrics")
                _, _, snapshot = _get(server.url + "/snapshot")
        trace_ids = re.findall(r'trace_id="([0-9a-f]{32})"', metrics)
        assert trace_ids
        kept = {f"{span.trace_id:032x}" for span in tracer.finished_spans()}
        assert set(trace_ids) <= kept
        served = json.loads(snapshot)["mediator.ask_seconds"]
        assert served == json.loads(json.dumps(
            mediator.ask_latency.snapshot()))
        assert served["exemplars"]

    def test_unknown_path_is_404(self, served_mediator):
        _, server = served_mediator
        status, _, body = _get(server.url + "/nope")
        assert status == 404 and "not found" in body

    def test_health_turns_503_once_the_budget_is_gone(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            mediator = build_mediator(latency_objective=0.05)
            # Burn the whole budget: objective-breaching observations
            # straight into the SLO histogram (deterministic, no sleep).
            for _ in range(10):
                mediator.ask_latency.observe(0.5)
            assert mediator.slo.degraded
            with TelemetryServer(mediator=mediator,
                                 registry=registry) as server:
                status, _, body = _get(server.url + "/health")
        document = json.loads(body)
        assert status == 503
        assert document["status"] == "degraded"
        assert document["slo"]["budget_burn"] >= 1.0

    def test_server_without_mediator_is_always_ok(self):
        registry = MetricsRegistry()
        registry.counter("executor.retries").inc()
        with TelemetryServer(registry=registry) as server:
            health_status, _, health = _get(server.url + "/health")
            metrics_status, _, metrics = _get(server.url + "/metrics")
        assert health_status == 200
        assert json.loads(health) == {"status": "ok"}
        assert metrics_status == 200
        assert "repro_executor_retries_total 1" in metrics

    def test_lifecycle_guards(self):
        server = TelemetryServer()
        with pytest.raises(RuntimeError):
            server.port  # noqa: B018 - the property raises unstarted
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
            assert server.url.startswith("http://127.0.0.1:")
        finally:
            server.stop()
        server.stop()  # idempotent


class TestDash:
    def test_one_shot_renders_health_and_histograms(self, served_mediator,
                                                    capsys):
        _, server = served_mediator
        assert dash_main([server.url]) == 0
        out = capsys.readouterr().out
        assert "repro dash" in out
        assert "catalog v" in out
        assert "slo:" in out
        assert "mediator.ask_seconds" in out
        assert "p95 ms" in out
        assert "source.cars.queries" in out

    def test_watch_bounded_by_iterations(self, served_mediator, capsys):
        _, server = served_mediator
        code = dash_main([server.url, "--watch", "0.01",
                          "--iterations", "2"])
        assert code == 0
        assert capsys.readouterr().out.count("repro dash") == 2

    def test_unreachable_server_is_a_clean_error(self, capsys):
        assert dash_main(["http://127.0.0.1:9"]) == 1
        assert "cannot scrape" in capsys.readouterr().err

    def test_rejects_non_positive_watch(self):
        with pytest.raises(SystemExit):
            dash_main(["http://x", "--watch", "0"])

    def test_sparkline_folds_buckets_to_width(self):
        reading = {"count": 40,
                   "buckets": [[b, c] for b, c in
                               zip(range(32), range(1, 33))]}
        line = sparkline(reading, width=8)
        assert len(line) == 8

    def test_render_minimal_health(self):
        text = render({"status": "ok"}, {}, "http://h")
        assert text == "repro dash — http://h — status OK"


class TestDashServingPanel:
    GOLDEN_SERVING = [
        "",
        "  serving: request sharing",
        "  coalesced hits                      7",
        "  source calls avoided                7",
    ]

    def test_serving_panel_golden(self):
        registry = MetricsRegistry()
        registry.counter("executor.coalesced_hits").inc(7)
        assert serving_panel(registry.snapshot()) == self.GOLDEN_SERVING

    def test_serving_panel_absent_when_untouched(self):
        assert serving_panel(MetricsRegistry().snapshot()) == []


class TestDashProfilingPanel:
    _SNAPSHOT = {
        "profile.phase.ask.wall_seconds": {
            "type": "histogram", "count": 4, "sum": 0.5, "mean": 0.125,
            "min": 0.1, "max": 0.2, "buckets": [],
        },
        "profile.phase.ask.cpu_seconds": {"type": "counter", "value": 0.25},
        "profile.phase.plan.wall_seconds": {
            "type": "histogram", "count": 2, "sum": 0.04, "mean": 0.02,
            "min": 0.01, "max": 0.03, "buckets": [],
        },
        "profile.phase.plan.cpu_seconds": {"type": "counter", "value": 0.04},
        "profile.lock.plan_cache.wait_seconds": {
            "type": "histogram", "count": 10, "sum": 0.002, "mean": 0.0002,
            "min": 0.0, "max": 0.001, "buckets": [],
        },
        "profile.lock.plan_cache.timeouts": {"type": "counter", "value": 1.0},
        "executor.retries": {"type": "counter", "value": 2.0},
    }

    GOLDEN = "\n".join([
        "repro dash — http://h — status OK",
        "",
        "  profile: phase              spans     wall s      cpu s"
        "  cpu/wall",
        "  ask                             4     0.5000     0.2500"
        "      0.50",
        "  plan                            2     0.0400     0.0400"
        "      1.00",
        "",
        "  profile: lock site       acquires     wait s     max ms"
        "  timeouts",
        "  plan_cache                     10     0.0020       1.00"
        "         1",
        "",
        "  executor.retries                                        "
        "        2",
    ])

    def test_golden_frame(self):
        assert render({"status": "ok"}, self._SNAPSHOT, "http://h") \
            == self.GOLDEN

    def test_profile_families_stay_out_of_generic_sections(self):
        text = render({"status": "ok"}, self._SNAPSHOT, "http://h")
        # The phase histogram appears once (in the panel), never in the
        # generic histogram table with p50/p95 columns.
        assert text.count("ask.wall_seconds") == 0
        assert "p95 ms" not in text  # no generic histograms at all here
        assert "executor.retries" in text

    def test_live_profiled_mediator_feeds_the_panel(self, capsys):
        from repro.observability import Tracer, profile_mediator
        registry = MetricsRegistry()
        with use_metrics(registry):
            mediator = build_mediator()
            with use_tracer(Tracer()) as tracer:
                with profile_mediator(mediator, tracer):
                    mediator.ask(QUERY)
            with TelemetryServer(mediator=mediator,
                                 registry=registry) as server:
                assert dash_main([server.url]) == 0
        out = capsys.readouterr().out
        assert "profile: phase" in out
        assert "profile: lock site" in out
        assert "source.service" in out
        assert "check_cache" in out


class TestTraceCliTelemetryFlags:
    def test_sample_prints_sampler_stats(self, capsys):
        assert trace_main([QUERY, "--sample", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "sampler ratio=1" in out
        assert "traces kept" in out

    def test_slo_prints_the_tracker_line(self, capsys):
        assert trace_main([QUERY, "--slo", "5000"]) == 0
        out = capsys.readouterr().out
        assert "slo ok:" in out
        assert "within 5000.0 ms" in out

    def test_slowlog_without_slo_logs_every_ask(self, capsys):
        assert trace_main([QUERY, "--slowlog"]) == 0
        out = capsys.readouterr().out
        assert "slow-query log: 1 retained of 1 recorded" in out
        assert "cars:" in out

    def test_serve_scrapes_metrics_and_health(self, capsys):
        assert trace_main([QUERY, "--serve", "0", "--slo", "5000"]) == 0
        out = capsys.readouterr().out
        assert "telemetry server on http://127.0.0.1:" in out
        assert "GET /metrics -> 200" in out
        assert "# EOF" in out
        assert "GET /health -> 200" in out
        assert '"status": "ok"' in out

    def test_rejects_non_positive_slo(self, capsys):
        with pytest.raises(SystemExit):
            trace_main([QUERY, "--slo", "0"])

    def test_profile_prints_phase_and_lock_breakdown(self, capsys):
        assert trace_main([QUERY, "--profile", "--plan-cache", "16"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "cpu/wall" in out
        assert "source.service" in out
        assert "lock site" in out and "check_cache" in out
        assert "plan_cache" in out

    def test_profile_composes_with_loadgen(self, capsys):
        code = trace_main([QUERY, "--profile", "--loadgen", "2x6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "cpu/wall" in out

    def test_sampling_composes_with_loadgen(self, capsys):
        code = trace_main([QUERY, "--sample", "0.0", "--slo", "60000",
                           "--loadgen", "2x6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "sampler ratio=0" in out


class TestSampledMediatorIntegration:
    def test_slow_query_timeline_renders_under_sampling(self):
        registry = MetricsRegistry()
        tracer = SamplingTracer(ratio=1.0)
        with use_metrics(registry), use_tracer(tracer):
            mediator = build_mediator(latency_objective=1e-9)
            mediator.ask(QUERY)
        entries = mediator.slow_queries.events()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.query == QUERY
        assert len(entry.fingerprint) == 12
        assert entry.per_source["cars"][0] >= 1
        assert entry.timeline and "plan" in entry.timeline
