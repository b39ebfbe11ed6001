"""The :class:`SamplingTracer`: decisions, bounds and exact accounting.

The production tracer must (a) make the head decision deterministically
per trace id, (b) keep error and slow traces the head decision would
drop, (c) never hold more than ``capacity`` spans, and (d) account for
every span exactly once -- the concurrency battery here reconciles
``spans_kept + spans_dropped`` against a thread storm's ground truth.
"""

from __future__ import annotations

import threading

import pytest

from repro.observability import (
    SamplingTracer,
    orphan_spans,
    read_jsonl,
    write_jsonl,
)


def _run_trace(tracer, fail=False, children=2):
    """One root span with ``children`` child spans; returns the trace id."""
    with tracer.span("root") as root:
        for index in range(children):
            if fail and index == 0:
                with pytest.raises(RuntimeError):
                    with tracer.span("child"):
                        raise RuntimeError("boom")
            else:
                with tracer.span("child"):
                    pass
    return root.trace_id


class TestConstruction:
    def test_rejects_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            SamplingTracer(ratio=1.5)
        with pytest.raises(ValueError):
            SamplingTracer(ratio=-0.1)
        with pytest.raises(ValueError):
            SamplingTracer(capacity=0)
        with pytest.raises(ValueError):
            SamplingTracer(max_pending_traces=0)


class TestHeadDecision:
    def test_deterministic_per_trace_and_seed(self):
        tracer = SamplingTracer(ratio=0.5, seed=7)
        decisions = [tracer.head_decision(i) for i in range(64)]
        again = [tracer.head_decision(i) for i in range(64)]
        assert decisions == again
        assert any(decisions) and not all(decisions)

    def test_different_seeds_sample_different_traces(self):
        a = SamplingTracer(ratio=0.5, seed=1)
        b = SamplingTracer(ratio=0.5, seed=2)
        assert ([a.head_decision(i) for i in range(128)]
                != [b.head_decision(i) for i in range(128)])

    def test_ratio_extremes_shortcut(self):
        assert SamplingTracer(ratio=1.0).head_decision(123)
        assert not SamplingTracer(ratio=0.0).head_decision(123)

    def test_ratio_converges_on_the_coin_flip(self):
        tracer = SamplingTracer(ratio=0.25)
        kept = sum(tracer.head_decision(i) for i in range(2000))
        assert 0.15 < kept / 2000 < 0.35


class TestTailRules:
    def test_error_trace_is_kept_at_ratio_zero(self):
        tracer = SamplingTracer(ratio=0.0)
        _run_trace(tracer, fail=True)
        assert tracer.traces_kept == 1
        assert any(s.status == "ERROR" for s in tracer.finished_spans())

    def test_slow_root_is_kept_at_ratio_zero(self):
        tracer = SamplingTracer(ratio=0.0, slow_threshold=0.0)
        _run_trace(tracer)  # any duration >= 0.0 counts as slow
        assert tracer.traces_kept == 1
        assert tracer.spans_kept == 3

    def test_fast_clean_trace_is_dropped_at_ratio_zero(self):
        tracer = SamplingTracer(ratio=0.0, slow_threshold=10.0)
        _run_trace(tracer)
        assert tracer.traces_kept == 0
        assert tracer.traces_dropped == 1
        assert tracer.spans_dropped == 3
        assert tracer.finished_spans() == []


class TestRingBuffer:
    def test_overflow_evicts_oldest_and_counts(self):
        tracer = SamplingTracer(ratio=1.0, capacity=4)
        for _ in range(3):
            _run_trace(tracer, children=1)  # 2 spans per trace
        assert tracer.spans_kept == 6
        assert tracer.spans_evicted == 2
        spans = tracer.finished_spans()
        assert len(spans) == 4
        # Oldest-first eviction: the first trace's spans are gone.
        assert len({s.trace_id for s in spans}) == 2

    def test_pending_table_is_bounded(self):
        tracer = SamplingTracer(ratio=1.0, max_pending_traces=2)
        stuck = []  # keep the open root contexts alive
        for _ in range(5):
            # A trace whose root never finishes: enter the root span but
            # never exit it, finish one child, then detach the context
            # so the next iteration starts a fresh trace.
            with tracer.attach(None):
                context = tracer.span("stuck-root")
                context.__enter__()
                stuck.append(context)
                with tracer.span("child"):
                    pass
        stats = tracer.stats()
        assert stats["pending_traces"] <= tracer.max_pending_traces
        assert tracer.traces_dropped == 3
        assert tracer.spans_dropped == 3

    def test_trace_spans_reads_pending_and_ring(self):
        tracer = SamplingTracer(ratio=1.0)
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
            assert [s.name for s in tracer.trace_spans(root.trace_id)] == [
                "child"
            ]
        names = [s.name for s in tracer.trace_spans(root.trace_id)]
        assert sorted(names) == ["child", "root"]

    def test_reset_zeroes_accounting_and_ring(self):
        tracer = SamplingTracer(ratio=1.0)
        _run_trace(tracer)
        tracer.reset()
        assert tracer.finished_spans() == []
        stats = tracer.stats()
        assert stats["traces_kept"] == stats["spans_kept"] == 0
        assert stats["ring_size"] == stats["pending_traces"] == 0


class TestExporters:
    def test_exporters_see_kept_spans_only(self):
        tracer = SamplingTracer(ratio=0.0, slow_threshold=10.0)
        seen = []
        tracer.add_exporter(seen.append)
        _run_trace(tracer)                  # dropped: fast and clean
        assert seen == []
        _run_trace(tracer, fail=True)       # kept: error tail rule
        assert len(seen) == 3
        assert {s.name for s in seen} == {"root", "child"}


class TestConcurrencyBattery:
    THREADS = 8
    TRACES_PER_THREAD = 40
    CHILDREN = 3

    def test_every_span_is_accounted_exactly_once(self):
        tracer = SamplingTracer(ratio=0.5, capacity=64, seed=3)
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def storm(worker: int) -> None:
            try:
                barrier.wait()
                for index in range(self.TRACES_PER_THREAD):
                    # A sprinkling of error traces exercises tail keeps.
                    fail = (worker + index) % 11 == 0
                    _run_trace(tracer, fail=fail, children=self.CHILDREN)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=storm, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        stats = tracer.stats()
        total_traces = self.THREADS * self.TRACES_PER_THREAD
        total_spans = total_traces * (1 + self.CHILDREN)
        assert stats["traces_kept"] + stats["traces_dropped"] == total_traces
        assert stats["spans_kept"] + stats["spans_dropped"] == total_spans
        assert stats["pending_traces"] == 0
        assert stats["ring_size"] <= tracer.capacity
        assert stats["ring_size"] == min(
            tracer.capacity, stats["spans_kept"]
        )
        assert stats["spans_evicted"] == max(
            0, stats["spans_kept"] - tracer.capacity
        )
        # Error traces are always kept, whatever the head coin said.
        assert stats["traces_kept"] >= total_traces // 11

    def test_format_stats_reports_the_reconciliation(self):
        tracer = SamplingTracer(ratio=1.0, slow_threshold=0.25)
        _run_trace(tracer)
        line = tracer.format_stats()
        assert "ratio=1" in line
        assert "slow>250ms" in line
        assert "1 traces kept" in line
        assert "ring 3/2048" in line


class TestPinnedTraces:
    def test_pin_keeps_a_trace_the_head_would_drop(self):
        tracer = SamplingTracer(ratio=0.0)
        with tracer.span("root") as root:
            tracer.pin_trace(root.trace_id)
        assert tracer.traces_kept == 1
        assert tracer.traces_pinned == 1
        assert tracer.stats()["pinned_traces"] == 0  # consumed

    def test_pin_after_settle_is_a_noop(self):
        tracer = SamplingTracer(ratio=0.0)
        with tracer.span("root") as root:
            pass
        tracer.pin_trace(root.trace_id)
        assert tracer.traces_kept == 0
        assert tracer.stats()["pinned_traces"] == 1  # parked, bounded

    def test_pin_table_is_bounded(self):
        tracer = SamplingTracer(ratio=0.0, max_pending_traces=4)
        for trace_id in range(1, 10):
            tracer.pin_trace(trace_id)
        assert tracer.stats()["pinned_traces"] == 4

    def test_reset_clears_pins(self):
        tracer = SamplingTracer(ratio=0.0)
        tracer.pin_trace(1)
        tracer.reset()
        assert tracer.stats()["pinned_traces"] == 0
        assert tracer.traces_pinned == 0


class TestExportRoundTrip:
    def test_cross_thread_trace_survives_jsonl(self, tmp_path):
        """A kept trace whose children ran on worker threads (handed
        the root through ``current_context``/``attach``) reloads from
        JSONL with every parent link intact."""
        tracer = SamplingTracer(ratio=1.0)

        def branch(token, name: str) -> None:
            with tracer.attach(token):
                with tracer.span(name):
                    with tracer.span(name + ".call"):
                        pass

        with tracer.span("root") as root:
            token = tracer.current_context()
            threads = [threading.Thread(target=branch, args=(token, name))
                       for name in ("left", "right")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        spans = tracer.finished_spans()
        assert tracer.traces_kept == 1 and len(spans) == 5
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(spans, path) == 5
        reloaded = read_jsonl(path)
        assert reloaded == spans
        assert not orphan_spans(reloaded)
        by_name = {span.name: span for span in reloaded}
        assert by_name["root"].parent_id is None
        for name in ("left", "right"):
            assert by_name[name].trace_id == root.trace_id
            assert by_name[name].parent_id == root.span_id
            assert by_name[name + ".call"].parent_id \
                == by_name[name].span_id
