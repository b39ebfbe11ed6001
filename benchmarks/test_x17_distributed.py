"""X17 (extension): the price of the per-ask recording path.

The X12 macro batch (plan+execute on the standard catalog) with the
full recording path armed -- wide-event log + exemplar slots -- vs the
telemetry baseline (SLO tracking alone).  The bar: **<= 1.10x**.
"""

from __future__ import annotations

import time

from benchmarks.conftest import QUICK
from repro.experiments.report import Table
from repro.mediator import Mediator
from repro.observability import (
    MetricsRegistry,
    SamplingTracer,
    use_metrics,
    use_tracer,
)
from repro.perf.schema import Bar, Tolerance
from repro.source.library import standard_catalog

_QUERIES = [
    "SELECT title FROM bookstore WHERE author = 'Carl Jung' "
    "or author = 'Sigmund Freud'",
    "SELECT model FROM car_guide WHERE make = 'BMW' and price < 40000",
    "SELECT owner FROM bank WHERE account_no = 42",
    "SELECT title FROM bookstore WHERE subject = 'philosophy' "
    "and title contains 'dream'",
]

_ROUNDS = 12 if QUICK else 80
_OVERHEAD_REPEATS = 3


def _mediator(recording: bool) -> Mediator:
    mediator = Mediator(
        latency_objective=60.0,  # telemetry armed, nothing ever breaches
        exemplar_slots=4 if recording else 0,
        event_log_entries=256 if recording else None,
    )
    for source in standard_catalog(seed=1999).values():
        mediator.add_source(source)
    return mediator


def _run_batch(mediator: Mediator, rounds: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        for query in _QUERIES:
            mediator.ask(query)
    return time.perf_counter() - start


def _recording_overhead() -> dict:
    baseline_mediator = _mediator(recording=False)
    recording_mediator = _mediator(recording=True)
    with use_metrics(MetricsRegistry()):
        with use_tracer(SamplingTracer(ratio=0.1, capacity=4096)):
            _run_batch(baseline_mediator, 2)  # warm caches, lazy imports
            _run_batch(recording_mediator, 2)
            baseline_s = recording_s = float("inf")
            for _ in range(_OVERHEAD_REPEATS):  # best-of, interleaved
                baseline_s = min(baseline_s,
                                 _run_batch(baseline_mediator, _ROUNDS))
                recording_s = min(recording_s,
                                  _run_batch(recording_mediator, _ROUNDS))
    events = recording_mediator.events
    return {
        "baseline_s": baseline_s,
        "recording_s": recording_s,
        "ratio": recording_s / baseline_s,
        "events_recorded": events.recorded,
        "exemplars": len(
            recording_mediator.ask_latency.snapshot()["exemplars"]),
    }


def _table() -> tuple[Table, dict]:
    overhead = _recording_overhead()
    table = Table(
        "X17: recording-path overhead",
        ["measure", "value", "unit"],
        notes=(
            f"Best-of-{_OVERHEAD_REPEATS} interleaved {_ROUNDS}-round x "
            f"{len(_QUERIES)}-query macro batches, wide-event log + "
            "exemplar slots armed vs SLO tracking alone (bar: <= 1.10x)."
        ),
    )
    table.add("telemetry baseline batch",
              round(overhead["baseline_s"], 4), "s")
    table.add("events+exemplars batch",
              round(overhead["recording_s"], 4), "s")
    table.add("recording / baseline", round(overhead["ratio"], 3), "x")
    table.add("wide events recorded", overhead["events_recorded"], "events")
    table.add("exemplars retained", overhead["exemplars"], "slots")
    return table, overhead


def test_x17_distributed(record_table, record_bench):
    table, overhead = _table()
    record_table("x17", table)
    record_bench(
        "x17",
        metrics={
            "recording.ratio": overhead["ratio"],
            "recording.events": overhead["events_recorded"],
        },
        bars={"recording.ratio": Bar("<=", 1.10)},
        tolerances={
            # A macro timing on shared CI boxes: a wide band, the bar
            # above is the real ceiling.
            "recording.ratio": Tolerance("lower", rel=0.5),
        },
        seed=412,
    )

    # The full recording path stays within 10% of telemetry alone.
    assert overhead["ratio"] <= 1.10, (
        f"event log + exemplars cost {overhead['ratio']:.3f}x the "
        f"telemetry baseline")
    assert overhead["events_recorded"] \
        >= _OVERHEAD_REPEATS * _ROUNDS * len(_QUERIES)
    assert overhead["exemplars"] > 0
