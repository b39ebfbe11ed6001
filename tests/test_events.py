"""The wide-event request log: one structured event per ask.

The event ring and its JSONL sink (:mod:`repro.observability.events`),
the mediator's emission path -- every :meth:`Mediator.ask` lands one
:class:`AskEvent` carrying the trace id, the plan fingerprint, how
planning resolved, per-source tallies and the outcome, shed and error
asks included -- and the trace CLI's ``--events`` view.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import (
    InfeasiblePlanError,
    OverloadError,
    PlanExecutionError,
    SourceUnavailableError,
)
from repro.mediator import Mediator
from repro.observability import (
    AskEvent,
    EventLog,
    Tracer,
    read_events,
    use_tracer,
)
from repro.trace import main as trace_main
from tests.conftest import make_example41_source

BMW = "SELECT model FROM cars WHERE make = 'BMW' and price < 40000"


def make_mediator(**kwargs) -> Mediator:
    mediator = Mediator(**kwargs)
    mediator.add_source(make_example41_source())
    return mediator


class TestEventLog:
    def test_bounded_ring_with_exact_accounting(self):
        log = EventLog(capacity=2)
        for index in range(5):
            log.append(AskEvent(query=f"q{index}", source="s",
                                outcome="ok", duration_seconds=0.01))
        assert len(log) == 2
        assert log.recorded == 5
        assert log.evicted == 3
        assert [e.query for e in log.events()] == ["q3", "q4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(capacity=2, path=path) as log:
            for index in range(4):
                log.append(AskEvent(
                    query=f"q{index}", source="s", outcome="ok",
                    duration_seconds=0.25, trace_id="ab" * 16,
                    per_source={"s": [1, 7]}, coalesced_hits=index,
                ))
        # The ring is bounded; the file keeps everything.
        reloaded = list(read_events(path))
        assert [e.query for e in reloaded] == ["q0", "q1", "q2", "q3"]
        assert reloaded[0].per_source == {"s": [1, 7]}
        assert reloaded[3].coalesced_hits == 3
        assert reloaded[0].trace_id == "ab" * 16
        # One JSON object per line, greppable.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["outcome"] == "ok" for line in lines)

    def test_from_dict_ignores_unknown_keys(self):
        event = AskEvent.from_dict({
            "query": "q", "source": "s", "outcome": "ok",
            "duration_seconds": 0.1, "future_field": 123,
        })
        assert event.query == "q"

    def test_append_after_close_keeps_the_ring(self, tmp_path):
        log = EventLog(capacity=4, path=tmp_path / "e.jsonl")
        log.close()
        log.append(AskEvent(query="q", source="s", outcome="ok",
                            duration_seconds=0.0))
        assert len(log) == 1

    def test_format_is_greppable(self):
        log = EventLog(capacity=4)
        log.append(AskEvent(
            query=BMW, source="cars", outcome="ok",
            duration_seconds=0.002, trace_id="0" * 31 + "7",
            fingerprint="abcdef123456", plan_cache="hit",
            coalesced_hits=2, answers=3,
        ))
        text = log.format()
        assert "ask events: 1 retained of 1 recorded" in text
        assert "[abcdef123456]" in text
        assert "plan_cache=hit" in text
        assert "coalesced=2" in text
        assert "trace=" + "0" * 31 + "7" in text
        assert BMW in text

    def test_clear_resets_accounting(self):
        log = EventLog(capacity=2)
        log.append(AskEvent(query="q", source="s", outcome="ok",
                            duration_seconds=0.0))
        log.clear()
        assert len(log) == 0 and log.recorded == 0 and log.evicted == 0


class TestMediatorEmission:
    def test_every_ask_emits_one_event(self):
        mediator = make_mediator(event_log_entries=16)
        for _ in range(3):
            mediator.ask(BMW)
        events = mediator.events.events()
        assert len(events) == 3
        event = events[0]
        assert event.outcome == "ok"
        assert event.source == "cars"
        assert event.fingerprint
        assert event.answers > 0
        assert event.per_source["cars"][0] >= 1
        assert event.duration_seconds > 0
        assert event.error is None

    def test_event_log_path_alone_arms_the_log(self, tmp_path):
        path = tmp_path / "asks.jsonl"
        mediator = make_mediator(event_log_path=path)
        mediator.ask(BMW)
        mediator.close()
        assert len(list(read_events(path))) == 1

    def test_trace_id_joins_the_event_to_the_trace(self):
        mediator = make_mediator(event_log_entries=4)
        with use_tracer(Tracer()) as tracer:
            mediator.ask(BMW)
        event = mediator.events.events()[0]
        root = [s for s in tracer.finished_spans()
                if s.name == "mediator.ask"][0]
        assert event.trace_id == f"{root.trace_id:032x}"

    def test_no_tracer_means_empty_trace_id(self):
        mediator = make_mediator(event_log_entries=4)
        mediator.ask(BMW)
        assert mediator.events.events()[0].trace_id == ""

    def test_plan_cache_outcome_is_recorded(self):
        mediator = make_mediator(event_log_entries=8,
                                 plan_cache_entries=16)
        mediator.ask(BMW)
        mediator.ask(BMW)
        outcomes = [e.plan_cache for e in mediator.events.events()]
        assert outcomes == ["miss", "hit"]

    def test_plan_cache_outcome_survives_a_failed_execution(
            self, monkeypatch):
        mediator = make_mediator(event_log_entries=8,
                                 plan_cache_entries=16)
        mediator.ask(BMW)

        def unavailable(condition, attributes):
            raise SourceUnavailableError("cars is down")

        monkeypatch.setattr(mediator.source("cars"), "execute", unavailable)
        with pytest.raises(SourceUnavailableError):
            mediator.ask(BMW)
        first, failed = mediator.events.events()
        assert (first.outcome, first.plan_cache) == ("ok", "miss")
        assert (failed.outcome, failed.plan_cache) == (
            "SourceUnavailableError", "hit")
        assert failed.per_source == {}

    def test_plan_cache_outcome_of_an_infeasible_ask(self):
        mediator = make_mediator(event_log_entries=8,
                                 plan_cache_entries=16)
        infeasible = "SELECT model FROM cars WHERE price < 40000"
        for _ in range(2):
            with pytest.raises(InfeasiblePlanError):
                mediator.ask(infeasible)
        assert [(e.outcome, e.plan_cache)
                for e in mediator.events.events()] == [
            ("InfeasiblePlanError", "miss"), ("InfeasiblePlanError", "hit")]

    def test_without_plan_cache_the_outcome_is_blank(self):
        mediator = make_mediator(event_log_entries=8)
        mediator.ask(BMW)
        assert mediator.events.events()[0].plan_cache == ""

    def test_error_ask_still_emits_with_the_error_class(self):
        mediator = make_mediator(event_log_entries=8)
        with pytest.raises(PlanExecutionError):
            mediator.ask("SELECT model FROM nosuch WHERE make = 'BMW'")
        event = mediator.events.events()[0]
        assert event.outcome == "PlanExecutionError"
        assert "nosuch" in event.error
        assert event.answers == 0

    def test_shed_ask_emits_a_shed_event(self):
        mediator = make_mediator(event_log_entries=8, max_in_flight=1,
                                 admission_timeout=0.02)
        entered = threading.Event()
        release = threading.Event()

        def occupy() -> None:
            with mediator.admission.admit():
                entered.set()
                release.wait(timeout=5.0)

        holder = threading.Thread(target=occupy)
        holder.start()
        try:
            assert entered.wait(timeout=5.0)
            with pytest.raises(OverloadError):
                mediator.ask(BMW)
        finally:
            release.set()
            holder.join()
        event = mediator.events.events()[0]
        assert event.outcome == "shed"
        assert event.per_source == {}

    def test_coalesced_hits_flow_into_the_event(self):
        mediator = make_mediator(event_log_entries=64, executor="async")
        barrier = threading.Barrier(8)
        try:
            def ask() -> None:
                barrier.wait(timeout=10.0)
                mediator.ask(BMW)

            threads = [threading.Thread(target=ask) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            events = mediator.events.events()
            assert len(events) == 8
            shared = sum(e.coalesced_hits for e in events)
            direct = sum(e.per_source.get("cars", [0])[0] for e in events)
            # Every ask either did the source work or joined a flight.
            assert shared + direct >= 8
        finally:
            mediator.close()

    def test_no_event_log_means_no_overhead_path(self):
        mediator = make_mediator()
        mediator.ask(BMW)
        assert mediator.events is None

    def test_slo_and_events_compose(self):
        mediator = make_mediator(event_log_entries=8,
                                 latency_objective=1e-9)
        mediator.ask(BMW)
        assert len(mediator.events.events()) == 1
        assert mediator.slow_queries.recorded == 1
        assert mediator.slow_queries.events()[0] is mediator.events.events()[0]

    def test_close_closes_the_sink(self, tmp_path):
        path = tmp_path / "asks.jsonl"
        mediator = make_mediator(event_log_path=path)
        mediator.ask(BMW)
        mediator.close()
        assert mediator.events._sink is None
        assert len(list(read_events(path))) == 1

    def test_asks_after_close_still_reach_the_file(self, tmp_path):
        path = tmp_path / "asks.jsonl"
        mediator = make_mediator(event_log_path=path)
        mediator.ask(BMW)
        mediator.close()
        mediator.ask(BMW)  # mediator still usable: the sink reopens
        mediator.close()
        assert len(mediator.events.events()) == 2
        assert [e.outcome for e in read_events(path)] == ["ok", "ok"]


class TestTraceCliEvents:
    def test_events_flag_prints_the_log(self, capsys):
        assert trace_main([BMW, "--events"]) == 0
        out = capsys.readouterr().out
        assert "ask events: 1 retained of 1 recorded" in out
        assert "answers=" in out

    def test_without_the_flag_no_event_section(self, capsys):
        assert trace_main([BMW]) == 0
        assert "ask events:" not in capsys.readouterr().out
