"""The traced repetition: where one ask's time goes, layer by layer.

Nothing under ``src/`` is patched.  Layers are timed from outside:

* **in situ** -- ``Mediator.ask`` runs the real stream with a planner
  proxy (``Mediator(planner=...)``) and ``CapabilitySource`` subclasses
  in the catalog, so every ask span gets its ``planners.plan`` and
  ``source.execute`` children;
* **anatomy replay** -- the first asks of the same stream are replayed
  on a second, identically set-up stack by calling the layers' public
  functions in the order ``Mediator.ask`` composes them; what the
  replayed parts do not add up to is the mediator's own glue;
* **micro-passes** -- relation operators on the replay's captured plans,
  ``Check`` hit/miss on a fresh description, the three engines and the
  armed telemetry on a third stack.

Every span is ``{id, name, ask_id, parent, start_ns, end_ns}`` plus the
counts taken at the same boundary; a layer's self time is its span
minus what its children cover.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from typing import Callable

from repro.conditions.rewrite import GENCOMPACT_RULES, RewriteEngine
from repro.errors import InfeasiblePlanError
from repro.conditions.simplify import is_definitely_unsatisfiable
from repro.data.relation import Relation
from repro.mediator import Mediator
from repro.observability.trace import Tracer, use_tracer
from repro.planners.base import Planner, PlanningResult
from repro.planners.gencompact import GenCompact
from repro.plans.async_exec import AsyncExecutor
from repro.plans.cost import CostModel
from repro.plans.execute import Executor
from repro.plans.nodes import (
    IntersectPlan,
    Plan,
    Postprocess,
    SourceQuery,
    UnionPlan,
)
from repro.query import TargetQuery, parse_query
from repro.serving.plan_cache import PlanCache, PlanTemplates, plan_cache_key
from repro.source.source import CapabilitySource
from repro.ssdl.commute import commutation_closure

from benchmarks.anatomy.loop import (
    drive,
    percentile,
    set_up,
    settle,
    summarize,
)
from benchmarks.anatomy.oracle import Oracle
from benchmarks.anatomy.workloads import K1, K2, World

#: Asks of the stream the anatomy replay covers.
REPLAY_ASKS = 200
#: Asks each engine (and each telemetry arm) is timed on.
SUBSAMPLE_ASKS = 60
#: Replayed plans the relation-operator pass walks.
WALKED_PLANS = 60

now = time.perf_counter_ns


class Span:
    """One timed interval at a layer boundary, with the counts taken there."""

    __slots__ = ("index", "name", "ask_id", "parent", "start", "end", "counts")

    def __init__(self, index: int, name: str, ask_id: int | None,
                 parent: int | None, start: int, end: int, counts: dict):
        self.index = index
        self.name = name
        self.ask_id = ask_id
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts

    @property
    def ns(self) -> int:
        return self.end - self.start


class SpanLog:
    """Spans in memory; written out when the repetition ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ask_id: int | None = None
        #: The open span new children hang under.
        self.current: int | None = None
        #: Called after every in-situ ask, outside its timers.
        self.after_ask: Callable[[], None] | None = None

    def add(self, name: str, parent: int | None, start: int, end: int,
            **counts) -> Span:
        span = Span(len(self.spans), name, self.ask_id, parent, start, end,
                    counts)
        self.spans.append(span)
        return span

    def open(self, name: str) -> Span:
        span = self.add(name, self.current, now(), 0)
        self.current = span.index
        return span

    def close(self, span: Span, **counts) -> None:
        span.end = now()
        span.counts = counts
        self.current = span.parent

    # -- the hooks ``rep.drive`` calls around every ask -------------------
    def begin_ask(self, ask_id: int) -> None:
        self.ask_id = ask_id
        self.current = self.add("mediator.ask", None, 0, 0).index

    def end_ask(self, start: int, end: int, answer,
                trips: list[float]) -> None:
        span = self.spans[self.current]
        span.start, span.end = start, end
        counts = span.counts
        if answer is not None:
            report = answer.report
            counts.update(
                queries=report.queries, tuples=report.tuples_transferred,
                coalesced=report.coalesced_hits, batched=report.batched_hits,
                planner=answer.planning.planner,
            )
        if trips:
            counts.update(rtt_sum_ns=int(sum(trips) * 1e9),
                          rtt_max_ns=int(max(trips) * 1e9))
        self.current = self.ask_id = None
        if self.after_ask is not None:
            self.after_ask()

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span)
        return out

    def write(self, handle, first_id: int = 0) -> None:
        """One JSON object per span; ids are offset so several logs can
        share a file."""
        for span in self.spans:
            parent = span.parent
            handle.write(json.dumps({
                "id": span.index + first_id, "name": span.name,
                "ask_id": span.ask_id,
                "parent": None if parent is None else parent + first_id,
                "start_ns": span.start, "end_ns": span.end,
                **span.counts,
            }) + "\n")


def covered_ns(spans: list[Span]) -> int:
    """Length of the union of the spans' intervals (the source calls of
    an async execute overlap; their sum would exceed their parent)."""
    total = 0
    edge = 0
    for start, end in sorted((span.start, span.end) for span in spans):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


# ----------------------------------------------------------------------
# Proxies handed to the program through public constructor arguments
# ----------------------------------------------------------------------

class TimedSource(CapabilitySource):
    """A source that spans its own service, closure, compile and stats."""

    log: SpanLog | None = None
    closure_ns = 0
    compile_ns = 0
    stats_ns: int | None = None

    def execute(self, condition, attributes):
        log = self.log
        if log is None:
            return super().execute(condition, attributes)
        parent, start = log.current, now()
        rows = -1
        try:
            result = super().execute(condition, attributes)
            rows = len(result)
            return result
        finally:
            log.add("source.execute", parent, start, now(), rows=rows)

    async def execute_async(self, condition, attributes):
        log = self.log
        if log is None:
            return await super().execute_async(condition, attributes)
        parent, start = log.current, now()
        rows = -1
        try:
            result = await super().execute_async(condition, attributes)
            rows = len(result)
            return result
        finally:
            log.add("source.execute", parent, start, now(), rows=rows)

    def compile_capabilities(self, *args, **kwargs):
        start = now()
        self.closed_description  # the commutation closure, built on first use
        closed = now()
        reports = super().compile_capabilities(*args, **kwargs)
        done = now()
        self.closure_ns += closed - start
        self.compile_ns += done - closed
        if self.log is not None:
            self.log.add("ssdl.closure", self.log.current, start, closed,
                         source=self.name)
            self.log.add("ssdl.compile", self.log.current, closed, done,
                         source=self.name)
        return reports

    @property
    def stats(self):
        if self.stats_ns is None:
            start = now()
            value = super().stats
            self.stats_ns = now() - start
            return value
        return super().stats


class TimedPlanner(Planner):
    """The default planner, with a span and its counters around ``plan``."""

    def __init__(self, log: SpanLog, inner: Planner | None = None) -> None:
        self.inner = inner if inner is not None else GenCompact()
        self.name = self.inner.name
        self.log = log

    def plan(self, query, source, cost_model) -> PlanningResult:
        description = source.closed_description
        hits = description.check_cache_hits
        misses = description.check_calls
        fallbacks = description.check_fallbacks
        span = self.log.open("planners.plan")
        result = self.inner.plan(query, source, cost_model)
        stats = result.stats
        self.log.close(
            span,
            feasible=result.feasible,
            cts=stats.cts_processed,
            subplans=stats.subplans_considered,
            mcsc_problems=stats.mcsc_problems,
            prune_fires=stats.pr1_fires + stats.pr2_fires + stats.pr3_fires,
            check_requests=stats.check_calls,
            check_hits=description.check_cache_hits - hits,
            check_misses=description.check_calls - misses,
            check_fallbacks=description.check_fallbacks - fallbacks,
        )
        return result


# ----------------------------------------------------------------------
# Anatomy replay
# ----------------------------------------------------------------------

class Replay:
    """``Mediator.ask`` taken apart: the same calls, in the same order,
    each under its own span, on a stack of its own.

    :meth:`step` replays the next ask of the stream.  The traced run
    calls it right after the in-situ ask it mirrors: this sandbox
    changes speed by a fifth for seconds at a time, and only a replay
    taken within milliseconds of its original compares with it."""

    def __init__(self, world: World, asks: int) -> None:
        self.world = world
        self.log = SpanLog()
        self._stream = enumerate(itertools.islice(world.requests(), asks))
        config = world.workload.mediator
        self.planner = GenCompact()
        self.rewriter = RewriteEngine(
            rules=GENCOMPACT_RULES,
            max_trees=self.planner.max_rewrites,
            max_steps=self.planner.max_rewrite_steps,
            max_size_factor=self.planner.max_size_factor,
            canonical=True,
        )
        self.cache = self.templates = None
        if "plan_cache_entries" in config:
            self.cache = PlanCache(config["plan_cache_entries"])
            self.templates = PlanTemplates(config["plan_cache_entries"])
        self.catalog: dict[str, CapabilitySource] = {}
        self.version = 0
        for source in world.sources(TimedSource):
            self.catalog[source.name] = source
            self.version += 1
            source.compile_capabilities()
        for source in self.catalog.values():
            source.stats
        engine = AsyncExecutor if config.get("executor") == "async" else Executor
        self.executor = engine(self.catalog)
        #: (query, plan) of every replayed ask that executed.
        self.executed: list[tuple[TargetQuery, Plan]] = []
        for query in world.warmup:
            self.ask(query.to_text())
        # Set-up and warm-up are not part of the anatomy.
        self.executed.clear()
        self.log = SpanLog()
        for source in self.catalog.values():
            source.log = self.log

    def close(self) -> None:
        closer = getattr(self.executor, "close", None)
        if closer is not None:
            closer()

    def cost_model(self) -> CostModel:
        return CostModel(
            {name: source.stats for name, source in self.catalog.items()},
            K1, K2)

    def mutate(self, description) -> None:
        source = self.catalog[self.world.source_name]
        source.replace_description(description)
        self.version += 1
        source.compile_capabilities()

    def _timed(self, name: str, call: Callable, *args):
        span = self.log.open(name)
        value = call(*args)
        self.log.close(span)
        return value

    def ask(self, text: str) -> None:
        timed = self._timed
        query = timed("query.parse", parse_query, text)
        if timed("conditions.unsatisfiable", is_definitely_unsatisfiable,
                 query.condition):
            return
        source = self.catalog[query.source]
        source.schema.validate_attributes(query.attributes)
        source.schema.validate_attributes(query.condition.attributes())
        planner, cache, templates = self.planner, self.cache, self.templates
        version = self.version
        result = key = template_key = None
        if cache is not None:
            key = (timed("conditions.key", plan_cache_key, query),
                   planner.name)
            result = timed("serving.cache_get", cache.get, key, version)
            if result is None:
                span = self.log.open("serving.template_rebind")
                template_key = templates.key(query, planner.name)
                result = templates.instantiate(
                    template_key, query, source, self.cost_model(), version)
                self.log.close(span)
                if result is not None:
                    cache.put(key, result, version)
        if result is None:
            span = self.log.open("planners.plan")
            result = planner.plan(query, source, self.cost_model())
            self.log.close(span, feasible=result.feasible)
            if cache is not None:
                cache.put(key, result, version)
                templates.store(template_key, query.condition, result, version)
            # What the planner spent in its rewrite module, measured
            # again beside it (not part of the ask's sum).
            start = now()
            rewriting = self.rewriter.explore(query.condition)
            self.log.add("conditions.rewrite", None, start, now(),
                         trees=len(rewriting.trees),
                         truncated=rewriting.truncated)
        if result.plan is None:
            return
        span = self.log.open("plans.execute")
        report = self.executor.execute_with_report(result.plan)
        self.log.close(span, queries=report.queries,
                       tuples=report.tuples_transferred)
        self.executed.append((query, result.plan))

    def step(self) -> bool:
        """Replay the next ask; False once the sample is exhausted."""
        index, query = next(self._stream, (None, None))
        if query is None:
            return False
        workload = self.world.workload
        if workload.drift_every and index and \
                index % workload.drift_every == 0:
            self.mutate(self.world.description(index // workload.drift_every))
        text = query.to_text()
        log = self.log
        log.ask_id = index
        root = log.open("replay.ask")
        self.ask(text)
        log.close(root)
        log.ask_id = None
        return True


#: The replayed parts whose sum is compared with the in-situ ask.
REPLAY_PARTS = ("query.parse", "conditions.unsatisfiable", "conditions.key",
                "serving.cache_get", "serving.template_rebind",
                "planners.plan", "plans.execute")


# ----------------------------------------------------------------------
# Micro-passes
# ----------------------------------------------------------------------

def relation_ops(replay: Replay) -> dict[str, float | None]:
    """Microseconds per thousand input tuples of each mediator-side
    operator, on the operands the replayed plans really produce."""
    spent = dict.fromkeys(("select", "project", "union", "intersect"), 0)
    tuples = dict.fromkeys(spent, 0)
    catalog = replay.catalog

    def timed(op: str, size: int, call: Callable, *args) -> Relation:
        start = now()
        out = call(*args)
        spent[op] += now() - start
        tuples[op] += size
        return out

    def walk(plan: Plan) -> Relation:
        if isinstance(plan, SourceQuery):
            # What the source would answer, without asking it: after a
            # drift its form may no longer take this query.
            return catalog[plan.source].relation.sp(
                plan.condition, plan.attrs)
        if isinstance(plan, Postprocess):
            inner = walk(plan.input)
            if not plan.condition.is_true:
                inner = timed("select", len(inner), inner.select,
                              plan.condition)
            return timed("project", len(inner), inner.project, plan.attrs)
        if isinstance(plan, (UnionPlan, IntersectPlan)):
            op = "union" if isinstance(plan, UnionPlan) else "intersect"
            parts = [walk(child) for child in plan.children]
            out = parts[0]
            for part in parts[1:]:
                out = timed(op, len(out) + len(part),
                            getattr(out, op), part)
            return out
        raise TypeError(f"cannot walk {type(plan).__name__}")

    seen: set[Plan] = set()
    for _, plan in replay.executed:
        if plan not in seen and len(seen) < WALKED_PLANS:
            seen.add(plan)
            walk(plan)
    return {
        op: spent[op] / tuples[op] if tuples[op] else None
        for op in spent
    }


def evaluate_us_per_ktuple(world: World, queries: list[TargetQuery]) -> float:
    rows = list(world.relation)
    start = now()
    for query in queries:
        evaluate = query.condition.evaluate
        for row in rows:
            evaluate(row)
    return (now() - start) / (len(queries) * len(rows))


def check_costs(world: World, queries: list[TargetQuery]) -> tuple[float, float]:
    """Median microseconds of one ``Check`` that misses the cache and of
    one that hits it, on a fresh closed and compiled description."""
    description = commutation_closure(world.description())
    description.compile()
    conditions = list(dict.fromkeys(
        node for query in queries for node in query.condition.nodes()))
    passes = []
    for _ in range(2):
        samples = []
        for condition in conditions:
            start = now()
            description.check(condition)
            samples.append(now() - start)
        passes.append(statistics.median(samples) / 1e3)
    return passes[1], passes[0]


class _NoAsk:
    """The no-op the harness's own cost is measured against."""

    def ask(self, text: str) -> None:
        return None

    def mutate_source(self, name: str, description) -> None:
        return None


def _try_ask(mediator: Mediator, text: str, executor: str | None = None):
    try:
        return mediator.ask(text, executor=executor)
    except InfeasiblePlanError:
        return None


def engines_and_telemetry(world: World, queries: list[TargetQuery]) -> dict:
    """The same asks through each engine, and through a mediator with
    its telemetry armed, on plain sources.

    Every ask was asked once before it is timed and the arms take turns
    going first, so all of them see the same plan-cache state and the
    same share of warm processor caches."""
    texts = [query.to_text() for query in queries]
    mediator, _ = set_up(world)
    armed = Mediator(**world.workload.mediator, latency_objective=1.0,
                     event_log_entries=256)
    tracer = Tracer()
    latency = mediator.catalog[world.source_name].latency
    arms = [("serial", mediator, "serial"), ("parallel", mediator, "parallel"),
            ("async", mediator, "async"), ("default", mediator, None),
            ("armed", armed, None)]
    samples: dict[str, list[int]] = {name: [] for name, _, _ in arms}
    serial_rtt_s = serial_cpu_s = 0.0
    with mediator, armed:
        for source in mediator.catalog.values():
            armed.add_source(source)
        with use_tracer(tracer):
            for query in world.warmup:
                armed.ask(query.to_text())
            for text in texts:
                _try_ask(armed, text)
        for text in texts:
            _try_ask(mediator, text)
        tracer.reset()
        settle()
        for turn, text in enumerate(texts):
            first = turn % len(arms)
            for name, target, engine in arms[first:] + arms[:first]:
                slept = latency.slept_seconds if latency else 0.0
                cpu = time.process_time()
                if target is armed:
                    with use_tracer(tracer):
                        start = now()
                        _try_ask(target, text)
                        samples[name].append(now() - start)
                else:
                    start = now()
                    _try_ask(target, text, engine)
                    samples[name].append(now() - start)
                if name == "serial" and latency:
                    serial_rtt_s += latency.slept_seconds - slept
                    serial_cpu_s += time.process_time() - cpu
    p50 = {name: statistics.median(ns) / 1e6 for name, ns in samples.items()}
    return {
        "plans.engine.serial.ask_p50_ms": p50["serial"],
        "plans.engine.parallel.ask_p50_ms": p50["parallel"],
        "plans.engine.async.ask_p50_ms": p50["async"],
        "plans.rtt_to_cpu_ratio":
            serial_rtt_s / serial_cpu_s if latency else None,
        "observability.default_ask_p50_ms": p50["default"],
        "observability.armed_ask_ratio": p50["armed"] / p50["default"],
        "observability.spans_per_ask":
            len(tracer.finished_spans()) / len(texts),
    }


# ----------------------------------------------------------------------
# The traced repetition
# ----------------------------------------------------------------------

def _total(spans: list[Span]) -> int:
    return sum(span.ns for span in spans)


def _median_ms(spans: list[Span]) -> float | None:
    return statistics.median(s.ns for s in spans) / 1e6 if spans else None


def _mean_us(spans: list[Span]) -> float | None:
    return statistics.mean(s.ns for s in spans) / 1e3 if spans else None


def _ratio(part: float, whole: float) -> float | None:
    return part / whole if whole else None


def _serving_counts(mediator: Mediator) -> dict[str, int]:
    counts = dict.fromkeys(
        ("hits", "misses", "evictions", "invalidations",
         "template_hits", "template_rejected"), 0)
    cache, templates = mediator.plan_cache, mediator.plan_templates
    if cache is not None:
        stats = cache.stats
        counts.update(hits=stats.hits, misses=stats.misses,
                      evictions=stats.evictions,
                      invalidations=stats.invalidations)
    if templates is not None:
        stats = templates.stats
        counts["evictions"] += stats.evictions
        counts["invalidations"] += stats.invalidations
        counts.update(template_hits=templates.hits,
                      template_rejected=templates.rejected)
    return counts


def traced_run(world: World, oracle: Oracle, *, budget_s: float,
               min_asks: int, max_asks: int | None,
               spans_path: str = "") -> dict:
    """One traced repetition; returns the in-situ loop's summary with the
    per-layer ``metrics`` (``None`` where a layer does not run)."""
    log = SpanLog()
    replayed = min(REPLAY_ASKS, max_asks or min_asks)
    replay = Replay(world, replayed)
    log.after_ask = replay.step

    # -- in situ, each of the first asks followed by its replay -----------
    mediator, setup = set_up(
        world, source_cls=TimedSource, planner=TimedPlanner(log))
    sources = list(mediator.catalog.values())
    for source in sources:
        source.log = log
    before = _serving_counts(mediator)
    with mediator:
        settle()
        tally = drive(mediator, world, oracle, budget_s=budget_s,
                      min_asks=min_asks, max_asks=max_asks, log=log)
        result = summarize(tally, world, mediator)
    after = _serving_counts(mediator)
    serving = {key: after[key] - before[key] for key in after}
    asks = result["asks"]
    in_situ = log.by_name()
    ask_spans = in_situ["mediator.ask"]
    plan_spans = in_situ.get("planners.plan", [])

    # -- the anatomy: what the replayed parts add up to ---------------------
    parts = replay.log.by_name()
    covered: dict[int, list[Span]] = {}
    for span in parts.get("source.execute", []):
        covered.setdefault(span.parent, []).append(span)
    parts_ns = sum(_total(parts.get(name, [])) for name in REPLAY_PARTS)
    wall_ns = _total(ask_spans[:replayed])
    executes = parts.get("plans.execute", [])
    execute_self = [span.ns - covered_ns(covered.get(span.index, []))
                    for span in executes]
    rewrites = parts.get("conditions.rewrite", [])
    replans = parts.get("planners.plan", [])
    sample = [query for query, _ in replay.executed[:WALKED_PLANS]] or \
        list(itertools.islice(world.requests(), WALKED_PLANS))
    ops = relation_ops(replay)
    cost_model = replay.cost_model()
    cost_ns = []
    for _, plan in replay.executed[:WALKED_PLANS]:
        start = now()
        cost_model.cost(plan)
        cost_ns.append(now() - start)
    replay.close()
    check_hit_us, check_miss_us = check_costs(world, sample)

    # -- the other passes --------------------------------------------------
    extra = engines_and_telemetry(
        world, list(itertools.islice(world.requests(), SUBSAMPLE_ASKS)))
    noop = drive(_NoAsk(), world, oracle, budget_s=0.0, min_asks=2000)

    def planned(key: str) -> int:
        return sum(span.counts[key] for span in plan_spans)

    def asked(key: str) -> int:
        return sum(span.counts.get(key, 0) for span in ask_spans)

    check_hits, check_misses = planned("check_hits"), planned("check_misses")
    rtt_asks = [span for span in ask_spans if "rtt_max_ns" in span.counts]
    has_cache = mediator.plan_cache is not None
    metrics = {
        "query.parse_us": _mean_us(parts.get("query.parse", [])),
        "conditions.unsat_check_us": _mean_us(
            parts.get("conditions.unsatisfiable", [])),
        "conditions.key_us": _mean_us(parts.get("conditions.key", [])),
        "conditions.rewrite_ms": _median_ms(rewrites),
        "conditions.rewrite_trees_per_ask": _ratio(
            sum(span.counts["trees"] for span in rewrites), replayed),
        "conditions.rewrite_truncated_share": _ratio(
            sum(span.counts["truncated"] for span in rewrites), len(rewrites)),
        "conditions.evaluate_us_per_ktuple": evaluate_us_per_ktuple(
            world, sample),
        "ssdl.check_requests_per_ask": planned("check_requests") / asks,
        "ssdl.check_cache_hit_ratio": _ratio(
            check_hits, check_hits + check_misses),
        "ssdl.check_hit_us": check_hit_us,
        "ssdl.check_miss_us": check_miss_us,
        "ssdl.check_fallback_ratio": _ratio(
            planned("check_fallbacks"), check_misses),
        "ssdl.closure_ms": sum(s.closure_ns for s in sources) / 1e6,
        "ssdl.compile_ms": sum(s.compile_ns for s in sources) / 1e6,
        "planners.plan_p50_ms": _median_ms(plan_spans),
        "planners.plan_p95_ms": percentile(
            sorted(span.ns / 1e6 for span in plan_spans), 0.95)
        if plan_spans else None,
        "planners.infeasible_plan_p50_ms": _median_ms(
            [span for span in plan_spans if not span.counts["feasible"]]),
        "planners.generate_ms": (
            statistics.mean(span.ns for span in replans)
            - statistics.mean(span.ns for span in rewrites)
        ) / 1e6 if replans else None,
        "planners.plan_share": _total(plan_spans) / _total(ask_spans),
        "planners.cts_per_ask": planned("cts") / asks,
        "planners.subplans_per_ask": planned("subplans") / asks,
        "planners.mcsc_problems_per_ask": planned("mcsc_problems") / asks,
        "planners.prune_fires_per_ask": planned("prune_fires") / asks,
        "serving.plan_cache_hit_ratio": _ratio(
            serving["hits"], serving["hits"] + serving["misses"]),
        "serving.template_hit_ratio": _ratio(
            serving["template_hits"], serving["misses"]),
        "serving.template_rejected_ratio": _ratio(
            serving["template_rejected"],
            serving["template_hits"] + serving["template_rejected"]),
        "serving.evictions_per_kask":
            1000 * serving["evictions"] / asks if has_cache else None,
        "serving.invalidations_per_kask":
            1000 * serving["invalidations"] / asks if has_cache else None,
        "serving.cache_get_us": _mean_us(parts.get("serving.cache_get", [])),
        "serving.template_rebind_us": _mean_us(
            parts.get("serving.template_rebind", [])),
        "plans.execute_p50_ms": _median_ms(executes),
        "plans.execute_share": _ratio(
            _total(executes), _total(parts.get("replay.ask", []))),
        "plans.mediator_self_ms":
            statistics.median(execute_self) / 1e6 if executes else None,
        "plans.mediator_self_share": _ratio(
            sum(execute_self), _total(executes)),
        "plans.async_overhead_ms": statistics.median(
            span.ns - span.counts["rtt_max_ns"] for span in rtt_asks) / 1e6
        if rtt_asks else None,
        "plans.overlap_ratio": _ratio(
            sum(span.counts["rtt_sum_ns"] for span in rtt_asks),
            _total(rtt_asks)),
        "plans.coalesced_hits_per_ask": asked("coalesced") / asks,
        "plans.batched_hits_per_ask": asked("batched") / asks,
        "plans.cost_estimate_us":
            statistics.median(cost_ns) / 1e3 if cost_ns else None,
        "source.execute_p50_ms": _median_ms(in_situ.get("source.execute", [])),
        "source.queries_per_ask": asked("queries") / asks,
        "source.tuples_per_ask": asked("tuples") / asks,
        "source.rejected": result["rejected"],
        "source.max_in_flight": max(s.max_in_flight for s in sources),
        "source.rtt_ms_per_ask":
            asked("rtt_sum_ns") / asks / 1e6 if rtt_asks else None,
        "data.select_us_per_ktuple": ops["select"],
        "data.project_us_per_ktuple": ops["project"],
        "data.union_us_per_ktuple": ops["union"],
        "data.intersect_us_per_ktuple": ops["intersect"],
        "data.stats_build_ms": sum(s.stats_ns or 0 for s in sources) / 1e6,
        "mediator.add_source_ms": setup["add_source_s"] * 1e3,
        "mediator.mutate_source_ms": _median_ms(
            in_situ.get("mediator.mutate_source", [])),
        "mediator.glue_us": (wall_ns - parts_ns) / replayed / 1e3,
        "mediator.unattributed_share": 1 - parts_ns / wall_ns,
        "harness.overhead_us": statistics.median(noop.ask_ns) / 1e3,
        "harness.machine_speed": result["machine_speed"],
        **extra,
    }
    if spans_path:
        with open(spans_path, "w") as handle:
            log.write(handle)
            replay.log.write(handle, first_id=len(log.spans))
    result.update(setup=setup, setup_s=setup["setup_s"], metrics=metrics,
                  spans=len(log.spans) + len(replay.log.spans),
                  replayed_asks=replayed)
    return result
