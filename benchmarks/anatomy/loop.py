"""The closed loop every repetition runs: set-up, one client, the tally."""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import InfeasiblePlanError
from repro.mediator import Mediator
from repro.plans.printer import to_paper_notation
from repro.source.source import CapabilitySource

from benchmarks.anatomy.oracle import Oracle
from benchmarks.anatomy.workloads import K1, K2, World


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


#: What :func:`yardstick_ns` reads on this sandbox when nobody else is
#: using the host, in milliseconds.  Timings are reported as if the
#: yardstick had read this all along.
YARDSTICK_REFERENCE_MS = 0.5


def yardstick_ns() -> int:
    """Time a fixed piece of interpreter work (dicts, strings, tuples, a
    set; about half a millisecond): how fast this machine is *right now*.

    The 2-core sandbox shares its host: the same pure-Python loop ran
    between 9 and 16 ms within two minutes, drifting over tens of
    seconds, and process CPU time drifted with it (contention, not
    steal).  Raw wall times from two runs a minute apart differ by
    more than any change this benchmark is meant to show, so the loop
    takes a reading every 50 ms and every ask's time is divided by
    ``median of the readings around it / YARDSTICK_REFERENCE_MS``
    (see :func:`local_speeds`).
    """
    start = time.perf_counter_ns()
    for _ in range(12):
        rows = [{"key": i, "name": str(i)} for i in range(150)]
        kept = [row for row in rows if row["key"] % 3]
        frozenset((row["key"], row["name"]) for row in kept)
    return time.perf_counter_ns() - start


def settle() -> None:
    """Collect, then move every survivor out of the collector's reach,
    so a phase's garbage collections do not grow with what the phases
    before it left alive."""
    gc.collect()
    gc.freeze()


def set_up(world: World, *, source_cls=CapabilitySource, planner=None,
           **mediator_kwargs) -> tuple[Mediator, dict]:
    """The timed set-up: from relations and descriptions in memory to
    "the first measured ask may start", scaled to the reference speed."""
    now = time.perf_counter
    started = now()
    sources = world.sources(source_cls)
    kwargs = {**world.workload.mediator, **mediator_kwargs}
    mediator = Mediator(planner=planner, **kwargs)
    for source in sources:
        mediator.add_source(source)
    registered = now()
    for source in sources:
        source.stats
    counted = now()
    for query in world.warmup:
        mediator.ask(query.to_text())
    done = now()
    speed = machine_speed([yardstick_ns() for _ in range(9)])
    return mediator, {
        "add_source_s": (registered - started) / speed,
        "stats_s": (counted - registered) / speed,
        "warmup_s": (done - counted) / speed,
        "setup_s": (done - started) / speed,
        "raw_setup_s": done - started,
        "machine_speed": speed,
    }


@dataclass
class Tally:
    """What one measured window saw."""

    ask_ns: list[int] = field(default_factory=list)
    #: Per ask, its longest simulated round trip (0 without latency):
    #: the part of the ask that is sleep whatever the processor does.
    sleep_ns: list[int] = field(default_factory=list)
    #: ``(index of the ask it preceded, ns)`` per ``mutate_source``.
    mutations: list[tuple[int, int]] = field(default_factory=list)
    #: ``(index of the ask it followed, ns)`` per yardstick reading,
    #: one every 50 ms.
    yardstick: list[tuple[int, int]] = field(default_factory=list)
    wrong: int = 0
    errors: int = 0
    #: Over the first ``block`` asks only -- the counts that must repeat.
    block_asks: int = 0
    block_feasible: int = 0
    block_queries: int = 0
    block_tuples: int = 0
    coalesced: int = 0
    batched: int = 0
    oracle_s: float = 0.0
    plan_digest: str = ""
    first_error: str = ""


def drive(mediator: Mediator, world: World, oracle: Oracle, *,
          budget_s: float, min_asks: int, max_asks: int | None = None,
          log=None) -> Tally:
    """The closed loop: one client, next ask when the last one returned.

    Runs until ``budget_s`` of wall time *and* ``min_asks`` asks have
    passed (or ``max_asks``).  Only the time inside ``ask`` and
    ``mutate_source`` is measured; building the next description and
    checking the answer happen between the timers.
    """
    workload = world.workload
    tally = Tally()
    digest = hashlib.sha256()
    now = time.perf_counter_ns
    clock = time.perf_counter
    ask = mediator.ask
    draws = _latency_draws(mediator, world)
    deadline = clock() + budget_s
    next_yardstick = 0.0
    for index, query in enumerate(world.requests()):
        if workload.drift_every and index and index % workload.drift_every == 0:
            description = world.description(index // workload.drift_every)
            t0 = now()
            mediator.mutate_source(world.source_name, description)
            t1 = now()
            tally.mutations.append((index, t1 - t0))
            if log is not None:
                log.add("mediator.mutate_source", None, t0, t1, before_ask=index)
        text = query.to_text()
        answer = error = None
        if log is not None:
            log.begin_ask(index)
        drawn = len(draws)
        t0 = now()
        try:
            answer = ask(text)
        except InfeasiblePlanError:
            pass
        except Exception as exc:  # the loop must survive to report it
            error = exc
        t1 = now()
        tally.ask_ns.append(t1 - t0)
        trips = draws[drawn:]
        tally.sleep_ns.append(int(max(trips) * 1e9) if trips else 0)
        if log is not None:
            log.end_ask(t0, t1, answer, trips)
        in_block = index < workload.block
        checking = clock()
        if error is not None:
            tally.errors += 1
            tally.first_error = tally.first_error or repr(error)
        elif answer is not None:
            report = answer.report
            tally.coalesced += report.coalesced_hits
            tally.batched += report.batched_hits
            if report.result.as_row_set() != oracle.expected(query):
                tally.wrong += 1
            if in_block:
                tally.block_feasible += 1
                tally.block_queries += report.queries
                tally.block_tuples += report.tuples_transferred
        if in_block:
            tally.block_asks += 1
            digest.update(
                (to_paper_notation(answer.planning.plan) if answer
                 else "INFEASIBLE").encode())
            digest.update(b"\n")
        finished = clock()
        tally.oracle_s += finished - checking
        if finished >= next_yardstick:
            tally.yardstick.append((index, yardstick_ns()))
            next_yardstick = clock() + 0.05
        asked = index + 1
        if asked == max_asks or (asked >= min_asks and finished >= deadline):
            break
    tally.plan_digest = digest.hexdigest()
    return tally


def _latency_draws(mediator, world: World) -> list[float]:
    """The live list of round trips the workload source has drawn."""
    source = getattr(mediator, "catalog", {}).get(world.source_name)
    latency = source.latency if source is not None else None
    return latency.draws if latency is not None else []


def machine_speed(readings_ns: list[int]) -> float:
    """How much slower than the reference the machine ran (1 = as fast)."""
    return statistics.median(readings_ns) / 1e6 / YARDSTICK_REFERENCE_MS


#: Yardstick readings (one per 50 ms) the local speed is the median of.
SMOOTHING = 7


def local_speeds(tally: Tally) -> list[float]:
    """The machine's speed at every ask: the median of the
    ``SMOOTHING`` yardstick readings around the moment it ran.

    The host's speed drifts within a repetition, so one factor per
    repetition is too coarse; single readings are too jumpy."""
    at = [index for index, _ in tally.yardstick]
    readings = [ns for _, ns in tally.yardstick]
    half = SMOOTHING // 2
    smooth = [machine_speed(readings[max(0, j - half):j + half + 1])
              for j in range(len(readings))]
    return [smooth[min(bisect_left(at, index), len(smooth) - 1)]
            for index in range(len(tally.ask_ns))]


def summarize(tally: Tally, world: World, mediator: Mediator) -> dict:
    """A repetition's end-to-end values and the counts behind them.

    Every ask's time is scaled to the reference machine speed by the
    yardstick readings around it -- except the part that is its longest
    simulated round trip: that is sleep, which a slow processor does
    not stretch."""
    asks = len(tally.ask_ns)
    speeds = local_speeds(tally)
    scaled = sorted(
        sleep + (ns - sleep) / speed
        for ns, sleep, speed in zip(tally.ask_ns, tally.sleep_ns, speeds))
    mutating = sum(ns / speeds[index] for index, ns in tally.mutations)
    raw_s = (sum(tally.ask_ns) + sum(ns for _, ns in tally.mutations)) / 1e9
    rejected = sum(s.meter.rejected
                   for s in getattr(mediator, "catalog", {}).values())
    return {
        "asks": asks,
        "mutations": len(tally.mutations),
        "machine_speed": machine_speed([ns for _, ns in tally.yardstick]),
        "raw": {
            "ask_p50_ms": statistics.median(tally.ask_ns) / 1e6,
            "ask_p95_ms": percentile(sorted(tally.ask_ns), 0.95) / 1e6,
            "asks_per_s": asks / raw_s,
        },
        "ask_p50_ms": statistics.median(scaled) / 1e6,
        "ask_p95_ms": percentile(scaled, 0.95) / 1e6,
        "ask_p99_ms": percentile(scaled, 0.99) / 1e6,
        "asks_per_s": asks / ((sum(scaled) + mutating) / 1e9),
        "eq1_cost_per_ask": (K1 * tally.block_queries + K2 * tally.block_tuples)
        / tally.block_asks,
        "feasible_share": tally.block_feasible / tally.block_asks,
        "failed": tally.wrong + tally.errors + rejected,
        "wrong": tally.wrong,
        "errors": tally.errors,
        "first_error": tally.first_error,
        "rejected": rejected,
        "block": {
            "asks": tally.block_asks,
            "feasible": tally.block_feasible,
            "queries": tally.block_queries,
            "tuples": tally.block_tuples,
            "plan_digest": tally.plan_digest,
            "pool_digest": world.pool_digest,
        },
        "oracle_s": tally.oracle_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
