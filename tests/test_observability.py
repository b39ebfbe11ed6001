"""Unit battery for the observability subsystem.

Covers the tracer (nesting, status, thread-local context, the
NullTracer disabled path), the metrics registry, the exporters, the
timeline renderer, ``Mediator.explain(trace=True)`` and the
``python -m repro.trace`` CLI.  The cross-thread and fault round-trip
integration layers live in ``tests/test_trace_integration.py``.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
from repro.mediator import Mediator
from repro.observability import (
    DEFAULT_BUCKETS,
    Histogram,
    InMemoryCollector,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_metrics,
    get_tracer,
    orphan_spans,
    quantile_from_snapshot,
    read_jsonl,
    render_timeline,
    set_tracer,
    span_from_dict,
    span_to_dict,
    tree_shape,
    use_metrics,
    use_tracer,
    write_jsonl,
)
from repro.observability.trace import NULL_SPAN, STATUS_ERROR, STATUS_OK
from repro.trace import main as trace_main
from tests.conftest import make_example41_source


class TestTracer:
    def test_nesting_builds_parent_links(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert root.parent_id is None
        assert {s.trace_id for s in (root, child, grandchild)} == {
            root.trace_id
        }

    def test_finished_in_end_order_with_durations(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["inner", "outer"]
        for span in tracer.finished_spans():
            assert span.end is not None and span.end >= span.start
            assert span.duration >= 0.0

    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("boom")
        (span,) = tracer.finished_spans()
        assert span.status == STATUS_ERROR
        assert span.error == "ValueError: boom"
        (event,) = span.events
        assert event.name == "exception"
        assert event.attributes["exception_type"] == "ValueError"

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.finished_spans()
        assert first.trace_id != second.trace_id

    def test_attach_propagates_context_across_threads(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            token = tracer.current_context()

            def work():
                with tracer.attach(token):
                    with tracer.span("worker"):
                        pass

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        worker = next(
            s for s in tracer.finished_spans() if s.name == "worker"
        )
        assert worker.parent_id == root.span_id
        assert not orphan_spans(tracer.finished_spans())

    def test_event_lands_on_current_span(self):
        tracer = Tracer()
        with tracer.span("root"):
            tracer.event("checkpoint", step=3)
        (span,) = tracer.finished_spans()
        assert span.events[0].name == "checkpoint"
        assert span.events[0].attributes == {"step": 3}
        tracer.event("dropped")  # no current span: silently ignored

    def test_exporter_sees_each_finished_span(self):
        tracer = Tracer()
        collector = InMemoryCollector()
        tracer.add_exporter(collector)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [s.name for s in collector.spans] == ["b", "a"]

    def test_reset_clears_collected_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.finished_spans() == []


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("anything", key="value") as span:
            assert span is NULL_SPAN
            span.set_attribute("k", 1)
            span.add_event("e")
            tracer.event("e2")
        assert tracer.finished_spans() == []
        assert tracer.current_span is None
        assert not tracer.enabled

    def test_null_tracer_attach_is_a_noop(self):
        tracer = NullTracer()
        with tracer.attach(None):
            assert tracer.current_context() is None

    def test_null_tracer_rejects_exporters(self):
        with pytest.raises(ValueError):
            NullTracer().add_exporter(lambda span: None)

    def test_default_tracer_is_null(self):
        assert isinstance(get_tracer(), NullTracer)

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with get_tracer().span("inside"):
                pass
        assert isinstance(get_tracer(), NullTracer)
        assert [s.name for s in tracer.finished_spans()] == ["inside"]

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(Tracer())
        assert previous is NULL_TRACER
        set_tracer(None)
        assert isinstance(get_tracer(), NullTracer)


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(5)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["g"]["value"] == 3 and snap["g"]["max"] == 5
        assert snap["h"]["count"] == 2
        assert snap["h"]["mean"] == 2.0
        assert snap["h"]["min"] == 1.0 and snap["h"]["max"] == 3.0

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(7)
        registry.reset()
        assert registry.counter("c") is counter
        assert counter.value == 0

    def test_counters_reject_negative_and_kind_conflicts(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)
        registry.counter("dual")
        with pytest.raises(ValueError):
            registry.gauge("dual")

    def test_gauge_track_max_keeps_value(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(2)
        gauge.track_max(9)
        assert gauge.value == 2 and gauge.max_value == 9

    def test_format_is_human_readable(self):
        registry = MetricsRegistry()
        registry.counter("executor.attempts").inc(4)
        text = registry.format()
        assert "executor.attempts" in text and "counter" in text

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000

    def test_source_publishes_into_swapped_registry(self):
        source = make_example41_source()
        from repro.conditions.parser import parse_condition

        condition = parse_condition("make = 'BMW' and price < 40000")
        with use_metrics(MetricsRegistry()) as registry:
            source.execute(condition, ["model"])
            snap = registry.snapshot()
        assert snap["source.cars.queries"]["value"] == 1
        assert snap["source.cars.tuples"]["value"] == 2
        assert get_metrics() is not registry


class TestHistogramQuantiles:
    def test_buckets_are_cumulative_with_le_semantics(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 9.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        # A value landing exactly on a boundary counts in that bucket.
        assert snap["buckets"] == [[1.0, 2], [2.0, 4], [5.0, 4]]
        assert snap["count"] == 5  # the 9.0 lives in the +Inf bucket

    def test_quantiles_interpolate_within_buckets(self):
        histogram = Histogram("h", buckets=(0.0, 10.0, 20.0))
        for value in range(1, 21):  # uniform on (0, 20]
            histogram.observe(float(value))
        assert histogram.quantile(0.5) == pytest.approx(10.0, abs=1.0)
        assert histogram.quantile(0.25) == pytest.approx(5.0, abs=1.0)
        assert histogram.quantile(1.0) == 20.0
        assert histogram.quantile(0.0) <= histogram.quantile(1.0)

    def test_quantile_clamps_to_observed_range(self):
        histogram = Histogram("h", buckets=(100.0,))
        histogram.observe(3.0)
        histogram.observe(4.0)
        # The bucket spans [0, 100] but nothing below 3 was observed.
        assert 3.0 <= histogram.quantile(0.5) <= 4.0
        assert histogram.quantile(0.99) <= 4.0

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(50.0)
        assert histogram.quantile(0.99) == 50.0

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_quantile_rejects_out_of_range_q(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            quantile_from_snapshot(histogram.snapshot(), -0.1)

    def test_quantile_from_snapshot_matches_live_instrument(self):
        histogram = Histogram("h", buckets=DEFAULT_BUCKETS)
        for value in (0.002, 0.004, 0.03, 0.07, 0.4):
            histogram.observe(value)
        snap = histogram.snapshot()
        for q in (0.1, 0.5, 0.9, 0.99):
            assert quantile_from_snapshot(snap, q) == histogram.quantile(q)

    def test_registry_histogram_buckets_apply_on_first_creation(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", buckets=(1.0, 2.0))
        again = registry.histogram("h", buckets=(9.0,))
        assert again is first
        assert first.boundaries == (1.0, 2.0)

    def test_format_includes_percentiles(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.002, 0.4):
            registry.histogram("h").observe(value)
        text = registry.format()
        assert "p50=" in text and "p99=" in text


class TestHistogramEdgeCases:
    def test_single_observation_quantiles_are_exact(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.5)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 1.5

    def test_single_observation_in_overflow_bucket(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(42.0)
        assert histogram.quantile(0.5) == 42.0
        assert histogram.quantile(0.999) == 42.0

    def test_quantile_from_snapshot_totality(self):
        # Every defensively-possible malformed reading yields 0.0, not
        # a raise: dashboards render whatever the registry serves.
        assert quantile_from_snapshot({}, 0.5) == 0.0
        assert quantile_from_snapshot({"count": 0}, 0.5) == 0.0
        assert quantile_from_snapshot({"count": None}, 0.5) == 0.0
        assert quantile_from_snapshot(
            {"count": 2, "min": None, "max": None, "buckets": []}, 0.5
        ) == 0.0

    def test_quantile_from_snapshot_single_observation(self):
        histogram = Histogram("h", buckets=DEFAULT_BUCKETS)
        histogram.observe(0.25)
        snap = histogram.snapshot()
        for q in (0.01, 0.5, 0.99):
            assert quantile_from_snapshot(snap, q) == 0.25

    def test_reset_then_quantile_is_defined(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(0.5)
        histogram.reset()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.snapshot()["count"] == 0
        assert histogram.min is None and histogram.max is None
        histogram.observe(2.0)  # reusable after reset
        assert histogram.quantile(0.5) == 2.0


class TestRegistryResetConsistency:
    def test_reset_is_one_consistent_pass_under_load(self):
        """reset() mirrors snapshot(): all locks first, zero everything,
        release -- so paired instruments never show one zeroed and the
        other mid-flight values from before the reset."""
        registry = MetricsRegistry()
        counter = registry.counter("asks")
        histogram = registry.histogram("ask_seconds")
        stop = threading.Event()

        def publish():
            while not stop.is_set():
                counter.inc()
                histogram.observe(0.001)

        workers = [threading.Thread(target=publish) for _ in range(4)]
        for worker in workers:
            worker.start()
        try:
            for _ in range(25):
                registry.reset()
                snap = registry.snapshot()
                drift = snap["asks"]["value"] - snap["ask_seconds"]["count"]
                assert abs(drift) <= len(workers)
        finally:
            stop.set()
            for worker in workers:
                worker.join()

    def test_reset_handles_empty_and_single_observation(self):
        registry = MetricsRegistry()
        registry.reset()  # empty registry: a no-op, never a raise
        histogram = registry.histogram("h")
        registry.counter("c")
        registry.gauge("g").set(5.0)
        histogram.observe(1.0)  # a single observation
        registry.reset()
        snap = registry.snapshot()
        assert snap["h"]["count"] == 0
        assert snap["c"]["value"] == 0.0
        assert snap["g"]["value"] == 0.0
        assert registry.histogram("h").quantile(0.99) == 0.0


class TestRegistrySnapshotConsistency:
    def test_snapshot_is_mutually_consistent_under_load(self):
        """One registry-wide lock pass: a snapshot taken mid-storm must
        show the paired counter and histogram at the *same* step."""
        registry = MetricsRegistry()
        counter = registry.counter("asks")
        histogram = registry.histogram("ask_seconds")
        stop = threading.Event()

        def publish():
            while not stop.is_set():
                # Paired writes: the counter and histogram move together
                # under the instruments' own locks...
                counter.inc()
                histogram.observe(0.001)

        workers = [threading.Thread(target=publish) for _ in range(8)]
        for worker in workers:
            worker.start()
        try:
            drifts = []
            for _ in range(50):
                snap = registry.snapshot()
                drifts.append(snap["asks"]["value"]
                              - snap["ask_seconds"]["count"])
            # ...so a consistent snapshot can drift by at most one
            # in-between-the-two-writes step per publisher thread.
            assert all(abs(drift) <= len(workers) for drift in drifts)
        finally:
            stop.set()
            for worker in workers:
                worker.join()


class TestSpanSerialization:
    def test_dict_round_trip_is_lossless(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("parent", depth=0):
                with tracer.span("child", kind="unit") as child:
                    child.add_event("tick", n=1)
                    raise RuntimeError("nope")
        for span in tracer.finished_spans():
            assert span_from_dict(span_to_dict(span)) == span

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child", answer=42):
                pass
        path = tmp_path / "spans.jsonl"
        assert write_jsonl(tracer.finished_spans(), path) == 2
        reloaded = read_jsonl(path)
        assert reloaded == tracer.finished_spans()
        assert tree_shape(reloaded) == tree_shape(tracer.finished_spans())


class TestTimeline:
    def test_renders_nested_spans_with_attributes(self):
        tracer = Tracer()
        with tracer.span("mediator.ask", query="q"):
            with tracer.span("planner.plan", Q=3, pr1_fires=2):
                pass
        text = render_timeline(tracer.finished_spans())
        assert "mediator.ask" in text
        assert "planner.plan" in text and "Q=3" in text
        assert "ms" in text and "█" in text
        # The child line is indented under its parent (skip the
        # per-trace header line, which also names the root span).
        span_lines = [line for line in text.splitlines() if "|" in line]
        ask = next(line for line in span_lines if "mediator.ask" in line)
        plan = next(line for line in span_lines if "planner.plan" in line)
        assert plan.index("planner") > ask.index("mediator")

    def test_error_spans_are_marked(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("kaput")
        text = render_timeline(tracer.finished_spans())
        assert "!" in text and "kaput" in text

    def test_empty_trace(self):
        assert "no spans" in render_timeline([])


class TestMediatorIntegration:
    QUERY = "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"

    def _mediator(self):
        mediator = Mediator()
        mediator.add_source(make_example41_source())
        return mediator

    def test_ask_produces_a_connected_trace(self):
        mediator = self._mediator()
        with use_tracer(Tracer()) as tracer:
            mediator.ask(self.QUERY)
        spans = tracer.finished_spans()
        names = {s.name for s in spans}
        assert {"mediator.ask", "mediator.plan", "planner.plan",
                "planner.rewrite", "planner.generate", "mediator.execute",
                "executor.source_call", "source.service"} <= names
        assert not orphan_spans(spans)
        roots = [s for s in spans if s.parent_id is None]
        assert [r.name for r in roots] == ["mediator.ask"]

    def test_planner_span_carries_q_and_pruning_fires(self):
        mediator = self._mediator()
        with use_tracer(Tracer()) as tracer:
            mediator.plan(self.QUERY)
        plan_span = next(
            s for s in tracer.finished_spans() if s.name == "planner.plan"
        )
        for key in ("Q", "pr1_fires", "pr2_fires", "pr3_fires",
                    "rewrite_budget_spent"):
            assert key in plan_span.attributes

    def test_source_call_span_carries_attempt_accounting(self):
        mediator = self._mediator()
        with use_tracer(Tracer()) as tracer:
            mediator.ask(self.QUERY)
        call = next(
            s for s in tracer.finished_spans()
            if s.name == "executor.source_call"
        )
        assert call.attributes["attempts"] == 1
        assert call.attributes["retries"] == 0
        assert call.attributes["worker"] == threading.current_thread().name
        assert call.status == STATUS_OK

    def test_execution_report_is_self_contained(self):
        mediator = self._mediator()
        answer = mediator.ask(self.QUERY)
        report = answer.report
        assert report.duration_seconds > 0.0
        assert set(report.per_source) == {"cars"}
        delta = report.per_source["cars"]
        assert delta.queries == report.queries == 1
        assert delta.tuples == report.tuples_transferred

    def test_short_circuit_report_has_empty_breakdown(self):
        mediator = self._mediator()
        answer = mediator.ask(
            "SELECT model FROM cars WHERE price < 10 and price > 20"
        )
        assert answer.report.per_source == {}
        assert answer.report.duration_seconds == 0.0

    def test_explain_trace_appends_timeline(self):
        mediator = self._mediator()
        text = mediator.explain(self.QUERY, trace=True)
        assert "planner.rewrite" in text
        assert "pr1_fires=" in text
        assert "SP(" in text  # the plan rendering is still there
        plain = mediator.explain(self.QUERY)
        assert "planner.rewrite" not in plain

    def test_untraced_ask_records_nothing(self):
        mediator = self._mediator()
        mediator.ask(self.QUERY)
        assert get_tracer().finished_spans() == []


class TestTraceCli:
    QUERY = "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"

    def test_prints_planner_and_source_spans(self, capsys):
        assert trace_main([self.QUERY]) == 0
        out = capsys.readouterr().out
        assert "planner.generate" in out
        assert "Q=" in out and "pr1_fires=" in out
        assert "executor.source_call" in out
        assert "attempts=" in out and "retries=" in out
        assert "executed in" in out

    def test_parallel_executor_and_exports(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = trace_main([
            "SELECT title FROM bookstore WHERE author = 'Carl Jung' "
            "or subject = 'philosophy'",
            "--executor", "parallel", "--metrics", "--jsonl", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "source.bookstore.queries" in out
        spans = read_jsonl(path)
        assert spans and not orphan_spans(spans)

    def test_bad_query_is_an_error(self, capsys):
        assert trace_main(["SELECT nope FROM nowhere WHERE x = 1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestLeafPackage:
    def test_observability_imports_no_other_repro_module(self):
        """Every subsystem reports to ``repro.observability``, so the
        package itself must import nothing else from ``repro``.  A
        fresh interpreter stubs the ``repro`` package (whose
        ``__init__`` imports everything) and imports every
        observability module; only they may load."""
        script = textwrap.dedent(f"""
            import importlib, pkgutil, sys, types
            package = types.ModuleType("repro")
            package.__path__ = [{str(pathlib.Path(repro.__file__).parent)!r}]
            sys.modules["repro"] = package
            import repro.observability
            for info in pkgutil.iter_modules(repro.observability.__path__):
                importlib.import_module("repro.observability." + info.name)
            print(" ".join(sorted(
                name for name in sys.modules
                if name.startswith("repro.")
                and not name.startswith("repro.observability"))))
        """)
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == []
