"""Metrics federation: merge semantics, the HTTP scraper, degradation.

Three layers under test.  The pure merge (:func:`merge_readings` /
:func:`merge_snapshots`): counters sum, histograms merge bucket-wise
into exactly the histogram one process observing all the traffic would
have built, gauges keep per-instance identity.  The
:class:`FederatedScraper` over real sockets: N telemetry servers in,
one registry-shaped cluster view out, with ``instance=`` labels on the
OpenMetrics re-export, and an unreachable instance *marked* (stale or
unreachable), never fatal.  And the reconciliation battery: 16 threads
hammering 4 instances, then merged == sum of per-instance *exactly*.
"""

from __future__ import annotations

import threading

import pytest

from repro.dash import main as dash_main
from repro.dash import render_cluster, serving_panel
from repro.observability import (
    ClusterView,
    FederatedScraper,
    InstanceStatus,
    MetricsRegistry,
    TelemetryServer,
    merge_readings,
    merge_snapshots,
)
from repro.observability.federation import instance_key


def _registry(counters=(), histogram_values=(), gauges=()):
    registry = MetricsRegistry()
    for name, value in counters:
        registry.counter(name).inc(value)
    for name, values in histogram_values:
        histogram = registry.histogram(name)
        for value in values:
            histogram.observe(value)
    for name, value in gauges:
        registry.gauge(name).set(value)
    return registry


class TestMergeReadings:
    def test_counters_sum(self):
        merged = merge_readings([
            {"type": "counter", "value": 3},
            {"type": "counter", "value": 4},
        ])
        assert merged == {"type": "counter", "value": 7}

    def test_empty_merge_is_an_error(self):
        with pytest.raises(ValueError):
            merge_readings([])

    def test_mixed_kinds_are_marked_not_guessed(self):
        merged = merge_readings([
            {"type": "counter", "value": 3},
            {"type": "gauge", "value": 4, "max": 4},
        ])
        assert merged["merge_conflict"] is True
        assert merged["kinds"] == ["counter", "gauge"]

    def test_histograms_merge_bucket_wise_exactly(self):
        """The decisive property: merging the shards' histograms gives
        exactly the histogram one process seeing all the traffic would
        have built."""
        values_a = [0.001, 0.02, 0.3, 5.0]
        values_b = [0.004, 0.004, 0.8]
        a = _registry(histogram_values=[("h", values_a)]).snapshot()["h"]
        b = _registry(histogram_values=[("h", values_b)]).snapshot()["h"]
        reference = _registry(
            histogram_values=[("h", values_a + values_b)]
        ).snapshot()["h"]
        merged = merge_readings([a, b])
        assert merged["buckets"] == reference["buckets"]
        assert merged["count"] == reference["count"]
        assert merged["min"] == reference["min"]
        assert merged["max"] == reference["max"]
        # Summation order differs across shards; value is identical.
        assert merged["sum"] == pytest.approx(reference["sum"])
        assert merged["mean"] == pytest.approx(reference["mean"])

    def test_boundary_conflicts_degrade_honestly(self):
        a = _registry(histogram_values=[("h", [0.1])]).snapshot()["h"]
        custom = MetricsRegistry()
        custom.histogram("h", buckets=[1.0, 2.0]).observe(0.5)
        b = custom.snapshot()["h"]
        merged = merge_readings([a, b])
        assert merged["boundaries_conflict"] is True
        assert merged["buckets"] == []
        assert merged["count"] == 2  # scalar aggregates stay exact
        assert merged["sum"] == pytest.approx(0.6)
        assert merged["min"] == 0.1 and merged["max"] == 0.5

    def test_exemplars_survive_the_merge_largest_first(self):
        a_reg = MetricsRegistry()
        a_reg.histogram("h", exemplar_slots=2).observe(0.5, trace_id=1)
        b_reg = MetricsRegistry()
        b_reg.histogram("h", exemplar_slots=2).observe(2.0, trace_id=2)
        merged = merge_readings([a_reg.snapshot()["h"],
                                 b_reg.snapshot()["h"]])
        assert [e[0] for e in merged["exemplars"]] == [2.0, 0.5]


class TestMergeSnapshots:
    def test_gauges_keep_per_instance_identity(self):
        snapshots = {
            "shard-0": _registry(gauges=[("in_flight", 3)]).snapshot(),
            "shard-1": _registry(gauges=[("in_flight", 5)]).snapshot(),
        }
        merged = merge_snapshots(snapshots)
        assert "in_flight" not in merged
        assert merged["instance.shard-0.in_flight"]["value"] == 3
        assert merged["instance.shard-1.in_flight"]["value"] == 5

    def test_counters_and_histograms_merge_under_their_own_names(self):
        snapshots = {
            "a": _registry(counters=[("asks", 2)],
                           histogram_values=[("lat", [0.1])]).snapshot(),
            "b": _registry(counters=[("asks", 3)],
                           histogram_values=[("lat", [0.2])]).snapshot(),
        }
        merged = merge_snapshots(snapshots)
        assert merged["asks"]["value"] == 5
        assert merged["lat"]["count"] == 2

    def test_instrument_present_on_one_instance_only(self):
        snapshots = {
            "a": _registry(counters=[("only_here", 7)]).snapshot(),
            "b": _registry().snapshot(),
        }
        assert merge_snapshots(snapshots)["only_here"]["value"] == 7

    def test_merged_view_is_registry_shaped(self):
        """The cluster view renders through the same OpenMetrics
        renderer as one process, with instance labels folded."""
        snapshots = {
            "shard-0": _registry(counters=[("asks", 1)],
                                 gauges=[("in_flight", 2)]).snapshot(),
        }
        view = ClusterView(
            instances=[InstanceStatus("shard-0", "http://x", "ok")],
            merged=merge_snapshots(snapshots),
            scraped_at=0.0, elapsed_seconds=0.0,
        )
        text = view.render_openmetrics()
        assert 'repro_in_flight{instance="shard-0"} 2' in text
        assert "repro_asks_total 1" in text
        assert text.endswith("# EOF\n")


@pytest.fixture
def cluster():
    """Two real telemetry servers over distinct registries."""
    registries = [MetricsRegistry(), MetricsRegistry()]
    servers = []
    for index, registry in enumerate(registries):
        server = TelemetryServer(registry=registry,
                                 instance=f"shard-{index}").start()
        servers.append(server)
    try:
        yield registries, servers
    finally:
        for server in servers:
            server.stop()


class TestFederatedScraper:
    def test_requires_targets(self):
        with pytest.raises(ValueError):
            FederatedScraper([])

    def test_instance_name_prefers_health_then_host_port(self):
        assert FederatedScraper.instance_name(
            "http://127.0.0.1:9464", {"instance": "shard-7"}) == "shard-7"
        assert FederatedScraper.instance_name(
            "http://127.0.0.1:9464/") == "127.0.0.1:9464"

    def test_scrape_merges_real_servers(self, cluster):
        registries, servers = cluster
        registries[0].counter("asks").inc(2)
        registries[1].counter("asks").inc(3)
        registries[0].gauge("in_flight").set(1)
        scraper = FederatedScraper([s.url for s in servers])
        view = scraper.scrape()
        assert view.status == "ok"
        assert view.merged["asks"]["value"] == 5
        assert view.merged["instance.shard-0.in_flight"]["value"] == 1
        assert view.merged[instance_key("shard-0", "up")]["value"] == 1.0
        assert view.merged[instance_key("shard-1", "up")]["value"] == 1.0
        assert view.health()["reachable"] == 2

    def test_openmetrics_reexport_carries_instance_labels(self, cluster):
        registries, servers = cluster
        registries[0].gauge("in_flight").set(4)
        view = FederatedScraper([s.url for s in servers]).scrape()
        text = view.render_openmetrics()
        assert 'repro_in_flight{instance="shard-0"} 4' in text
        assert 'repro_up{instance="shard-0"} 1' in text
        assert 'repro_up{instance="shard-1"} 1' in text

    def test_unreachable_instance_degrades_not_fails(self, cluster):
        registries, servers = cluster
        registries[0].counter("asks").inc(2)
        dead = "http://127.0.0.1:1"  # nothing listens on port 1
        scraper = FederatedScraper([servers[0].url, dead], timeout=0.5)
        view = scraper.scrape()
        assert view.status == "degraded"
        statuses = {i.instance: i for i in view.instances}
        assert statuses["shard-0"].status == "ok"
        assert statuses["127.0.0.1:1"].status == "unreachable"
        assert statuses["127.0.0.1:1"].error
        assert view.merged["asks"]["value"] == 2
        assert view.merged[
            instance_key("127.0.0.1:1", "up")]["value"] == 0.0

    def test_dead_instance_serves_last_known_good_marked_stale(self):
        registry = MetricsRegistry()
        registry.counter("asks").inc(9)
        server = TelemetryServer(registry=registry,
                                 instance="ephemeral").start()
        scraper = FederatedScraper([server.url], timeout=0.5)
        first = scraper.scrape()
        assert first.status == "ok"
        server.stop()
        second = scraper.scrape()
        status = second.instances[0]
        assert status.status == "stale"
        assert status.age_seconds >= 0.0
        assert second.merged["asks"]["value"] == 9  # last known good
        assert second.merged[
            instance_key("ephemeral", "stale")]["value"] == 1.0
        assert second.status == "unreachable"  # nothing answered *now*

    def test_scrape_accounting(self, cluster):
        _, servers = cluster
        scraper = FederatedScraper([servers[0].url])
        scraper.scrape()
        scraper.scrape()
        assert scraper.scrapes == 2
        assert scraper.failures == 0


class TestReconciliationBattery:
    def test_merged_equals_sum_of_per_instance_exactly(self):
        """16 threads hammer 4 instances' registries concurrently, then
        one scrape+merge; every merged counter and histogram must equal
        the arithmetic sum of the per-instance snapshots, exactly."""
        registries = [MetricsRegistry() for _ in range(4)]
        servers = [
            TelemetryServer(registry=r, instance=f"shard-{i}").start()
            for i, r in enumerate(registries)
        ]
        try:
            def hammer(worker: int) -> None:
                registry = registries[worker % 4]
                for i in range(200):
                    registry.counter("asks").inc()
                    registry.counter(f"source.s{worker % 3}.queries").inc()
                    registry.histogram("lat").observe(0.001 * (i % 50))
                    registry.gauge("in_flight").set(worker)

            threads = [threading.Thread(target=hammer, args=(w,))
                       for w in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            view = FederatedScraper([s.url for s in servers]).scrape()
            locals_ = [r.snapshot() for r in registries]
            assert view.merged["asks"]["value"] == sum(
                s["asks"]["value"] for s in locals_) == 16 * 200
            for worker_mod in range(3):
                name = f"source.s{worker_mod}.queries"
                assert view.merged[name]["value"] == sum(
                    s[name]["value"] for s in locals_ if name in s)
            merged_lat = view.merged["lat"]
            assert merged_lat["count"] == 16 * 200
            assert merged_lat["sum"] == pytest.approx(
                sum(s["lat"]["sum"] for s in locals_))
            for index, (boundary, cumulative) in enumerate(
                merged_lat["buckets"]
            ):
                assert cumulative == sum(
                    s["lat"]["buckets"][index][1] for s in locals_)
            # Gauges: per-instance, never summed.
            assert "in_flight" not in view.merged
            for i in range(4):
                assert f"instance.shard-{i}.in_flight" in view.merged
        finally:
            for server in servers:
                server.stop()


class TestDashCluster:
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

    def test_render_cluster_has_instance_table_and_panels(self, cluster):
        registries, servers = cluster
        registries[0].counter("executor.coalesced_hits").inc(3)
        registries[0].histogram("lat").observe(0.01)
        view = FederatedScraper([s.url for s in servers]).scrape()
        frame = render_cluster(view)
        lines = frame.splitlines()
        assert lines[0].startswith("repro dash — cluster (2 instances)")
        assert "status OK" in lines[0]
        assert any(line.startswith("  shard-0") and "ok" in line
                   for line in lines)
        assert "  serving: request sharing" in lines
        assert any("lat" in line for line in lines)

    def test_dash_main_cluster_flag(self, cluster, capsys):
        _, servers = cluster
        urls = ",".join(s.url for s in servers)
        assert dash_main(["--cluster", urls]) == 0
        out = capsys.readouterr().out
        assert "cluster (2 instances)" in out
        assert "shard-0" in out and "shard-1" in out

    def test_dash_main_rejects_url_and_cluster_together(self, cluster):
        _, servers = cluster
        with pytest.raises(SystemExit):
            dash_main([servers[0].url, "--cluster", servers[1].url])
        with pytest.raises(SystemExit):
            dash_main([])
