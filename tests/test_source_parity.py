"""Sync/async parity of one source call.

``CapabilitySource.execute`` serves the serial and pool engines and
``execute_async`` serves the event loop.  Both must gate, account,
trace, draw latency and faults, enforce and meter identically: twin
sources driven through the same seeded call sequence -- one through
each entry point -- end in the same state and raise the same errors.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.conditions.parser import parse_condition
from repro.errors import TransientSourceError, UnsupportedQueryError
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.trace import Tracer, use_tracer
from repro.source.faults import FaultInjector, SimulatedLatency
from tests.conftest import make_example41_source

#: ``(condition, attributes)`` in call order: supported queries, a
#: condition the form does not accept, an unexportable attribute, a
#: conjunct order only the closed description knows.
SEQUENCE = [
    ("make = 'BMW' and price < 40000", ("model", "year")),
    ("year = 1999", ("model",)),
    ("make = 'BMW'", ("model",)),
    ("make = 'BMW' and color = 'red'", ("color",)),
    ("make = 'Audi' and price < 90000", ("model",)),
    ("price < 40000 and make = 'BMW'", ("model",)),
] * 3


def _twin():
    source = make_example41_source()
    source.fault_injector = FaultInjector(
        seed=7, transient_rate=0.15, timeout_rate=0.1, rate_limit_rate=0.1,
    )
    source.latency = SimulatedLatency(
        seed=3, base=0.01, jitter=0.02, real_sleep=False,
    )
    source.max_concurrency = 2
    return source


def _outcome(call):
    """``("ok", rows)`` or ``(exception type, message)`` of one call."""
    try:
        return "ok", sorted(call().as_row_set())
    except (UnsupportedQueryError, TransientSourceError) as error:
        return type(error), str(error)


async def _outcome_async(call):
    """:func:`_outcome` of an awaited call."""
    try:
        return "ok", sorted((await call()).as_row_set())
    except (UnsupportedQueryError, TransientSourceError) as error:
        return type(error), str(error)


def _service_spans(tracer: Tracer) -> list[tuple]:
    """The ``source.service`` spans minus their timings."""
    return [
        (span.name, span.status, span.error, {
            key: value for key, value in span.attributes.items()
            if key != "queue_wait_seconds"
        })
        for span in tracer.finished_spans() if span.name == "source.service"
    ]


def _drive(entry_point: str):
    source = _twin()
    calls = [(parse_condition(text), attrs) for text, attrs in SEQUENCE]
    with use_metrics(MetricsRegistry()) as registry, \
            use_tracer(Tracer()) as tracer:
        if entry_point == "execute":
            outcomes = [
                _outcome(lambda: source.execute(condition, attrs))
                for condition, attrs in calls
            ]
        else:
            async def run() -> list:
                return [
                    await _outcome_async(
                        lambda: source.execute_async(condition, attrs))
                    for condition, attrs in calls
                ]

            outcomes = asyncio.run(run())
        readings = {
            name: reading for name, reading in registry.snapshot().items()
            if name.startswith(f"source.{source.name}.")
        }
    return source, outcomes, readings, _service_spans(tracer)


@pytest.fixture(scope="module")
def twins():
    return _drive("execute"), _drive("execute_async")


def test_the_sequence_covers_answers_rejections_and_faults(twins):
    (_, outcomes, _, _), _ = twins
    errors = [kind for kind, _ in outcomes if kind != "ok"]
    assert len(errors) < len(outcomes)
    assert any(issubclass(kind, UnsupportedQueryError) for kind in errors)
    assert any(issubclass(kind, TransientSourceError) for kind in errors)


def test_rows_and_errors_are_equal(twins):
    (_, sync_outcomes, _, _), (_, async_outcomes, _, _) = twins
    assert sync_outcomes == async_outcomes


def test_meters_are_equal(twins):
    (sync_source, *_), (async_source, *_) = twins
    assert sync_source.meter.snapshot() == async_source.meter.snapshot()
    assert sync_source.meter.snapshot().failures > 0
    assert sync_source.meter.snapshot().rejected > 0


def test_registry_readings_are_equal(twins):
    (_, _, sync_readings, _), (_, _, async_readings, _) = twins
    assert set(sync_readings) == set(async_readings)
    for name, reading in sync_readings.items():
        other = async_readings[name]
        if reading["type"] == "histogram":
            # The queue waits are timings; what must agree is that
            # every gated call observed one.
            assert reading["count"] == other["count"] == len(SEQUENCE), name
        else:
            assert reading == other, name


def test_latency_accounting_is_equal(twins):
    (sync_source, *_), (async_source, *_) = twins
    assert sync_source.latency.calls == async_source.latency.calls \
        == len(SEQUENCE)
    assert sync_source.latency.slept_seconds == \
        async_source.latency.slept_seconds


def test_flight_accounting_is_equal_and_drained(twins):
    (sync_source, *_), (async_source, *_) = twins
    assert sync_source.max_in_flight == async_source.max_in_flight == 1
    assert sync_source.in_flight == async_source.in_flight == 0


def test_service_spans_are_equal(twins):
    (_, _, _, sync_spans), (_, _, _, async_spans) = twins
    assert len(sync_spans) == len(SEQUENCE)
    assert sync_spans == async_spans
