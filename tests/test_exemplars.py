"""Histogram exemplars: recording policy, exposition, trace pinning.

An exemplar is the (trace id, value) of an extreme observation.  Under
test: the bounded-slot recording policy (fill free slots, then only a
value at least as large as the smallest retained one replaces it), the
snapshot staying byte-compatible when slots are off, the OpenMetrics
exemplar syntax on the right bucket line, and the mediator loop --
an exemplar-recorded ask pins its trace in the ``SamplingTracer`` so
the exported exemplar never points at a dropped trace, and the slow
query log carries the same trace id.
"""

from __future__ import annotations

import pytest

from repro.mediator import Mediator
from repro.observability import (
    Histogram,
    MetricsRegistry,
    SamplingTracer,
    use_metrics,
    use_tracer,
)
from repro.observability.exposition import (
    format_trace_id,
    render_openmetrics,
)
from tests.conftest import make_example41_source

BMW = "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"


class TestRecordingPolicy:
    def test_disabled_by_default_and_free(self):
        histogram = Histogram("h")
        assert histogram.observe(1.0, trace_id=7) is False
        assert "exemplars" not in histogram.snapshot()

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", exemplar_slots=-1)

    def test_observation_without_trace_id_records_nothing(self):
        histogram = Histogram("h", exemplar_slots=2)
        assert histogram.observe(5.0) is False
        assert histogram.snapshot()["exemplars"] == []

    def test_free_slots_fill_first(self):
        histogram = Histogram("h", exemplar_slots=2)
        assert histogram.observe(0.1, trace_id=1) is True
        assert histogram.observe(0.05, trace_id=2) is True  # still free
        values = [e[0] for e in histogram.snapshot()["exemplars"]]
        assert sorted(values) == [0.05, 0.1]

    def test_larger_value_evicts_the_smallest(self):
        histogram = Histogram("h", exemplar_slots=2)
        histogram.observe(0.1, trace_id=1)
        histogram.observe(0.5, trace_id=2)
        assert histogram.observe(0.3, trace_id=3) is True  # beats 0.1
        exemplars = histogram.snapshot()["exemplars"]
        assert [e[0] for e in exemplars] == [0.5, 0.3]  # largest first
        assert [e[1] for e in exemplars] == [2, 3]

    def test_smaller_value_is_ignored(self):
        histogram = Histogram("h", exemplar_slots=1)
        histogram.observe(0.5, trace_id=1)
        assert histogram.observe(0.1, trace_id=2) is False
        assert histogram.snapshot()["exemplars"][0][1] == 1

    def test_ties_refresh_to_the_recent_trace(self):
        histogram = Histogram("h", exemplar_slots=1)
        histogram.observe(0.5, trace_id=1)
        assert histogram.observe(0.5, trace_id=2) is True
        assert histogram.snapshot()["exemplars"][0][1] == 2

    def test_reset_clears_exemplars(self):
        histogram = Histogram("h", exemplar_slots=2)
        histogram.observe(0.5, trace_id=1)
        histogram.reset()
        assert histogram.snapshot()["exemplars"] == []

    def test_registry_passes_slots_on_first_creation_only(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", exemplar_slots=3)
        again = registry.histogram("h", exemplar_slots=9)
        assert again is first
        assert again.exemplar_slots == 3

    def test_snapshot_without_slots_is_byte_compatible(self):
        """The exemplars key appears only when slots are configured, so
        every pre-exemplar golden (snapshots, /snapshot JSON, the
        OpenMetrics golden) is untouched."""
        plain = Histogram("h")
        plain.observe(0.5)
        assert set(plain.snapshot().keys()) == {
            "type", "count", "sum", "min", "max", "mean", "buckets"}


class TestExposition:
    def test_format_trace_id_is_the_wire_form(self):
        assert format_trace_id(0xAB) == "0" * 30 + "ab"
        assert len(format_trace_id(1 << 127)) == 32

    def test_exemplar_renders_on_its_bucket_line(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat", buckets=[0.1, 1.0], exemplar_slots=2)
        histogram.observe(0.05, trace_id=0x1)     # -> le="0.1" bucket
        histogram.observe(5.0, trace_id=0x2)      # -> +Inf bucket
        text = render_openmetrics(registry.snapshot())
        bucket_lines = [line for line in text.splitlines()
                        if "repro_lat_bucket" in line]
        by_le = {line.split('le="')[1].split('"')[0]: line
                 for line in bucket_lines}
        assert f'# {{trace_id="{format_trace_id(1)}"}} 0.05' in by_le["0.1"]
        assert f'# {{trace_id="{format_trace_id(2)}"}} 5' in by_le["+Inf"]
        assert "#" not in by_le["1"]  # the empty middle bucket

    def test_one_exemplar_per_bucket_line_largest_wins(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat", buckets=[1.0], exemplar_slots=4)
        histogram.observe(0.2, trace_id=0x1)
        histogram.observe(0.8, trace_id=0x2)  # same bucket, larger
        text = render_openmetrics(registry.snapshot())
        line = [ln for ln in text.splitlines()
                if 'le="1"' in ln and "repro_lat_bucket" in ln][0]
        assert format_trace_id(2) in line
        assert format_trace_id(1) not in line

    def test_no_exemplars_render_without_slots(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(0.5)
        text = render_openmetrics(registry.snapshot())
        assert "trace_id=" not in text


class TestMediatorPinning:
    def _mediator(self) -> Mediator:
        mediator = Mediator(latency_objective=0.05, exemplar_slots=2)
        mediator.add_source(make_example41_source())
        return mediator

    def test_ask_latency_records_exemplars_with_a_tracer(self):
        mediator = self._mediator()
        with use_tracer(SamplingTracer(ratio=1.0)):
            mediator.ask(BMW)
        exemplars = mediator.ask_latency.snapshot()["exemplars"]
        assert len(exemplars) == 1
        assert exemplars[0][1] > 0  # a real trace id

    def test_exemplar_recorded_trace_is_pinned_through_a_drop(self):
        """ratio=0 would drop every trace; the exemplar-recorded ask
        must be kept anyway, so the exported exemplar resolves."""
        mediator = self._mediator()
        tracer = SamplingTracer(ratio=0.0)
        with use_tracer(tracer):
            mediator.ask(BMW)
        exemplars = mediator.ask_latency.snapshot()["exemplars"]
        assert len(exemplars) == 1
        assert tracer.traces_pinned == 1
        assert tracer.traces_kept == 1
        kept_traces = {s.trace_id for s in tracer.finished_spans()}
        assert exemplars[0][1] in kept_traces

    def test_unremarkable_asks_do_not_pin(self):
        mediator = self._mediator()
        # Occupy both slots with implausibly slow observations so no
        # real ask can beat the retained minimum.
        mediator.ask_latency.observe(60.0, trace_id=0xAAA)
        mediator.ask_latency.observe(60.0, trace_id=0xBBB)
        tracer = SamplingTracer(ratio=0.0)
        with use_tracer(tracer):
            for _ in range(6):
                mediator.ask(BMW)
        assert tracer.traces_pinned == 0
        assert tracer.traces_dropped == 6

    def test_no_tracer_records_no_exemplar(self):
        mediator = self._mediator()
        mediator.ask(BMW)
        assert mediator.ask_latency.snapshot()["exemplars"] == []

    def test_slow_query_log_carries_the_trace_id(self):
        mediator = Mediator(latency_objective=1e-9)
        mediator.add_source(make_example41_source())
        with use_tracer(SamplingTracer(ratio=1.0)) as tracer:
            mediator.ask(BMW)
        entry = mediator.slow_queries.events()[0]
        assert entry.trace_id
        assert int(entry.trace_id, 16) in {s.trace_id
                                           for s in tracer.finished_spans()}
        assert f"trace_id={entry.trace_id}" in entry.format_breach(1e-9)

    def test_slow_query_without_tracer_has_no_trace_id(self):
        mediator = Mediator(latency_objective=1e-9)
        mediator.add_source(make_example41_source())
        mediator.ask(BMW)
        entry = mediator.slow_queries.events()[0]
        assert entry.trace_id == ""
        assert "trace_id=" not in entry.format_breach(1e-9)

    def test_exemplars_flow_to_the_registry_exposition(self):
        """End to end: a served ask's exemplar appears in /metrics-style
        output rendered from the shared registry."""
        registry = MetricsRegistry()
        with use_metrics(registry):
            mediator = self._mediator()
            with use_tracer(SamplingTracer(ratio=1.0)):
                mediator.ask(BMW)
            # The mediator-local SLO histogram carries the exemplars;
            # render it under its registry name, as /metrics does.
            snapshot = {"mediator.ask_seconds":
                        mediator.ask_latency.snapshot()}
            text = render_openmetrics(snapshot)
        assert "trace_id=" in text
