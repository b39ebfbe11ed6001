"""The mediator facade: register sources, plan and execute target queries.

This is the top of the paper's architecture: target queries "are
submitted to a mediator that generates and executes query plans that
respect the limitations of the source" (Section 3).  The default
plan-generation scheme is GenCompact.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.conditions.simplify import is_definitely_unsatisfiable
from repro.data.relation import Relation
from repro.errors import InfeasiblePlanError, OverloadError, PlanExecutionError
from repro.observability.events import AskEvent, EventLog
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    get_metrics,
)
from repro.observability.slo import query_fingerprint
from repro.observability.trace import Tracer, get_tracer, use_tracer
from repro.planners.base import Planner, PlannerStats, PlanningResult
from repro.planners.gencompact import GenCompact
from repro.plans.cost import CostModel
from repro.plans.execute import ExecutionReport, Executor
from repro.plans.retry import RetryPolicy
from repro.query import TargetQuery, parse_query
from repro.serving.plan_cache import PlanCache, PlanTemplates, plan_cache_key
from repro.source.source import CapabilitySource

#: The attainment the latency objective is tracked against (0.99 = at
#: most 1 % of asks may breach it).
SLO_TARGET = 0.99
#: Breaching asks the slow-query log retains (older ones are evicted).
SLOW_QUERY_LOG_ENTRIES = 128
#: The admission slot of a mediator without admission control.
_NO_ADMISSION = nullcontext()


@dataclass
class MediatorAnswer:
    """Everything the mediator knows about one answered query."""

    query: TargetQuery
    planning: PlanningResult
    report: ExecutionReport

    @property
    def rows(self) -> list[dict]:
        return self.report.result.rows

    @property
    def result(self) -> Relation:
        return self.report.result


class Mediator:
    """Holds a catalog of capability-limited sources and answers queries.

    The one plan path: parse, canonical plan-cache / template lookup,
    plan, execute.  A :class:`~repro.wrapper.Wrapper` is a one-source
    mediator."""

    def __init__(
        self,
        planner: Planner | None = None,
        k1: float = 100.0,
        k2: float = 1.0,
        result_cache_tuples: int | None = None,
        retry_policy: RetryPolicy | None = None,
        parallel_workers: int | None = None,
        executor: str | None = None,
        plan_cache_entries: int | None = None,
        minimal_answers: bool = False,
        max_in_flight: int | None = None,
        admission_timeout: float = 1.0,
        latency_objective: float | None = None,
        exemplar_slots: int = 4,
        event_log_entries: int | None = None,
        event_log_path=None,
    ):
        """A provably empty query (e.g. ``price < 10 and price > 20``) is
        answered locally, without planning or contacting the source.
        ``result_cache_tuples`` enables an LRU
        source-query result cache bounded by that many cached tuples.
        ``retry_policy`` makes the mediator's executor retry transient
        source failures (capability rejections are never retried).
        ``parallel_workers`` executes plans on a
        :class:`~repro.plans.parallel.ParallelExecutor` with that many
        worker threads (``None`` = the serial executor).

        ``executor`` names the *default* execution engine --
        ``"serial"``, ``"parallel"`` or ``"async"`` -- overriding the
        ``parallel_workers`` inference; every :meth:`ask` can still
        pick per call with ``ask(..., executor=...)`` (the engines are
        built lazily and share the catalog, result cache and retry
        policy, so switching engines never changes answers).  The
        async engine runs source calls as tasks on one event-loop
        thread with single-flight coalescing; call :meth:`close` -- or
        use the mediator as a context manager -- to stop its loop
        thread.

        Every registered source's SSDL grammars are compiled into
        token-trie recognizers at :meth:`add_source` time -- the
        offline knowledge-compilation step that turns each planner
        ``Check`` into a token walk -- and so are the fresh description
        objects a :meth:`mutate_source` hands over; a description
        already compiled is never compiled again, whatever else in the
        catalog changes.  A source compiled beforehand with a budget it
        exceeds keeps its Earley recognizer.

        Serving knobs: ``plan_cache_entries`` enables the canonical
        :class:`~repro.serving.PlanCache` -- equivalent rewritings of a
        query share one planned entry, invalidated whenever the catalog
        changes -- and the :class:`~repro.serving.PlanTemplates` store
        behind it: an exact miss first tries to *rebind* the plan of a
        previously planned query with the same constant-stripped
        skeleton, so constant-varying respellings of one query shape
        cost a validated substitution instead of a planning run.
        ``minimal_answers``
        (default off) prunes provably subsumed Union branches from
        every plan right before execution
        (:func:`~repro.plans.minimal.prune_subsumed`, per Johnson's
        minimal-answers observation): the answer row set is identical,
        but redundant branches stop costing source round-trips.
        Pruning is per-ask because the subsumption proof depends on the
        bound constants -- cached plans and templates stay unpruned.
        ``max_in_flight`` bounds
        concurrent :meth:`ask` calls
        with an :class:`~repro.serving.AdmissionController` that sheds
        excess load via :class:`~repro.errors.OverloadError` after
        ``admission_timeout`` seconds of queueing (never deadlocks;
        parallel-executor fan-out happens *inside* one admitted
        request and does not consume slots).

        Telemetry knobs: ``latency_objective`` (seconds) arms the SLO
        machinery -- every :meth:`ask` is timed into a bucketed
        latency histogram with the objective as an exact boundary, an
        :class:`~repro.observability.slo.SLOTracker` computes
        error-budget burn against :data:`SLO_TARGET`, and the
        :class:`~repro.observability.events.AskEvent` of any ask past
        the objective lands in ``slow_queries``, an
        :class:`~repro.observability.events.EventLog` of
        :data:`SLOW_QUERY_LOG_ENTRIES`, with the rendered span timeline
        when a recording tracer is installed.  The ask
        latency histogram keeps ``exemplar_slots`` exemplars: the
        (trace id, latency) of recent extreme asks, exported in
        OpenMetrics exemplar syntax so a scraper can jump from a
        latency bucket to the exact trace; traces an exemplar points
        at are pinned in a :class:`SamplingTracer` so the link never
        dangles.

        ``event_log_entries`` arms the **wide-event request log**
        (see :mod:`repro.observability.events`): one structured
        :class:`~repro.observability.events.AskEvent` per :meth:`ask`
        -- trace id, plan fingerprint, planning outcome, per-source
        tallies, coalesced hits, latency and outcome -- in a
        bounded ring that deep, optionally mirrored to the JSONL file
        ``event_log_path`` (a path alone also arms it).  An ask that
        breaches the objective builds one event for both logs."""
        self.planner = planner if planner is not None else GenCompact()
        self.k1 = k1
        self.k2 = k2
        self.catalog: dict[str, CapabilitySource] = {}
        self._catalog_lock = threading.Lock()
        #: Bumped by every catalog mutation; versions plan-cache entries.
        self.catalog_version = 0
        #: ``(catalog version, CostModel)`` of the last :meth:`cost_model`.
        self._cost_model: tuple[int, CostModel] | None = None
        self.plan_cache = None
        self.plan_templates = None
        if plan_cache_entries is not None:
            self.plan_cache = PlanCache(plan_cache_entries)
            self.plan_templates = PlanTemplates(plan_cache_entries)
        self.minimal_answers = minimal_answers
        self.admission = None
        if max_in_flight is not None:
            from repro.serving.admission import AdmissionController

            self.admission = AdmissionController(
                max_in_flight, queue_timeout=admission_timeout
            )
        self.slo = None
        self.slow_queries: EventLog | None = None
        self.ask_latency: Histogram | None = None
        self.latency_objective = latency_objective
        if latency_objective is not None:
            from repro.observability.slo import SLOTracker

            # A mediator-local histogram so the objective is always one
            # of the boundaries (exact SLO accounting), whatever the
            # process-wide "mediator.ask_seconds" was created with.
            self.ask_latency = Histogram(
                "mediator.ask_seconds",
                buckets=sorted(set(DEFAULT_BUCKETS) | {latency_objective}),
                exemplar_slots=exemplar_slots,
            )
            self.slo = SLOTracker(self.ask_latency, latency_objective,
                                  target=SLO_TARGET)
            self.slow_queries = EventLog(SLOW_QUERY_LOG_ENTRIES)
        self.events = None
        if event_log_entries is not None or event_log_path is not None:
            self.events = EventLog(
                capacity=event_log_entries or 256, path=event_log_path
            )
        self.result_cache = None
        if result_cache_tuples is not None:
            from repro.plans.cache import ResultCache

            self.result_cache = ResultCache(result_cache_tuples)
        self.retry_policy = retry_policy
        self.parallel_workers = parallel_workers
        #: Lazily built engines, keyed "serial" | "parallel" | "async";
        #: all share the live catalog, result cache and retry policy.
        self._executors: dict[str, Executor] = {}
        if executor is None:
            executor = "serial" if parallel_workers is None else "parallel"
        self._executor = self._executor_for(executor)

    _EXECUTORS = ("serial", "parallel", "async")

    def _executor_for(self, choice: str | None) -> Executor:
        """The engine for one ask (``None`` = the mediator's default)."""
        if choice is None:
            return self._executor
        if choice not in self._EXECUTORS:
            raise PlanExecutionError(
                f"unknown executor {choice!r}; pick one of "
                f"{', '.join(self._EXECUTORS)}"
            )
        engine = self._executors.get(choice)
        if engine is None:
            if choice == "serial":
                engine = Executor(
                    self.catalog, cache=self.result_cache,
                    retry_policy=self.retry_policy,
                )
            elif choice == "parallel":
                from repro.plans.parallel import ParallelExecutor

                engine = ParallelExecutor(
                    self.catalog, cache=self.result_cache,
                    retry_policy=self.retry_policy,
                    max_workers=self.parallel_workers or 8,
                )
            else:
                from repro.plans.async_exec import AsyncExecutor

                engine = AsyncExecutor(
                    self.catalog, cache=self.result_cache,
                    retry_policy=self.retry_policy,
                )
            self._executors[choice] = engine
        return engine

    def close(self) -> None:
        """Release engine resources (worker pools, the async loop
        thread).  Idempotent; the mediator remains usable -- engines
        are rebuilt lazily on the next ask."""
        engines, self._executors = self._executors, {}
        for engine in engines.values():
            closer = getattr(engine, "close", None)
            if closer is not None:
                closer()
        if self.events is not None:
            self.events.close()
        # The default engine is always registered in _executors, so it
        # was closed above; rebuild it lazily via the same registry.
        if self._executor in engines.values():
            name = next(
                name for name, engine in engines.items()
                if engine is self._executor
            )
            self._executor = self._executor_for(name)

    def __enter__(self) -> "Mediator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def add_source(self, source: CapabilitySource) -> None:
        """Register a source (its name becomes its FROM-clause name).

        Bumps the catalog version: plans were generated against the old
        catalog's statistics and capabilities, so every cached plan is
        (lazily) invalidated.  The source's grammars are compiled here,
        at registration time -- the paper's
        build-the-parser-at-integration-time step taken to its
        knowledge-compilation conclusion."""
        with self._catalog_lock:
            if source.name in self.catalog:
                raise PlanExecutionError(
                    f"a source named {source.name!r} already exists"
                )
            self.catalog[source.name] = source
        self.bump_catalog()
        self._ensure_compiled(source)

    def remove_source(self, name: str) -> CapabilitySource:
        """Deregister a source (it left the federation).  Eager.

        The catalog version bump already guarantees no *versioned*
        cache can serve a plan touching the departed source, but lazy
        invalidation leaves its entries (and its compiled grammars)
        resident until each key happens to be looked up again.
        Removal drops all of it now: the plan cache and the template
        store are emptied and the source's compiled recognizers are
        discarded -- a removed source can never be queried from a
        cached or template-rebound plan, and holds no derived state
        either.

        Returns the removed source (callers re-registering it later
        must go through :meth:`add_source` again).
        """
        with self._catalog_lock:
            source = self.catalog.pop(name, None)
            if source is None:
                raise PlanExecutionError(f"unknown source {name!r}")
        self.bump_catalog()
        source.invalidate_compiled()
        if self.plan_cache is not None:
            self.plan_cache.invalidate()
            self.plan_templates.invalidate()
        get_metrics().counter("mediator.sources_removed").inc()
        return source

    def mutate_source(
        self,
        name: str,
        description,
        order_insensitive: bool | None = None,
    ) -> CapabilitySource:
        """Capability drift: a registered source changed its form.

        Swaps the source's SSDL description
        (:meth:`~repro.source.source.CapabilitySource
        .replace_description`), bumps the catalog version -- so every
        cached plan and template built against the old grammar is
        invalidated -- and recompiles the new grammars eagerly so the
        next ask pays a token walk, not a compilation.
        """
        source = self.source(name)
        source.replace_description(description,
                                   order_insensitive=order_insensitive)
        self.bump_catalog()
        self._ensure_compiled(source)
        get_metrics().counter("mediator.sources_mutated").inc()
        return source

    def _ensure_compiled(self, source: CapabilitySource) -> None:
        """Compile a source's grammars unless they already went through
        it.  What decides is the description objects themselves -- a
        capability change hands over fresh, uncompiled ones -- not the
        catalog version: other sources joining, leaving or drifting
        leave this source's compiled forms as good as they were."""
        if source.capabilities_compiled:
            return
        with self._catalog_lock:
            if not source.capabilities_compiled:
                source.compile_capabilities()

    def bump_catalog(self) -> int:
        """Record a catalog mutation (source added / replaced / data
        swapped): advances the version so stale cached plans can never
        be served.  Returns the new version."""
        with self._catalog_lock:
            self.catalog_version += 1
            self._cost_model = None
            return self.catalog_version

    def source(self, name: str) -> CapabilitySource:
        try:
            return self.catalog[name]
        except KeyError:
            raise PlanExecutionError(f"unknown source {name!r}") from None

    def cost_model(self, source_name: str | None = None) -> CostModel:
        """The Eq. 1 cost model over the registered sources' statistics.

        Built once per catalog version (a source's statistics are fixed
        once built; :meth:`bump_catalog` drops the model)."""
        version = self.catalog_version
        cached = self._cost_model
        if cached is not None and cached[0] == version:
            return cached[1]
        # dict() of the live catalog is a C-level copy (atomic under the
        # GIL); iterating the live dict here raced concurrent add_source.
        stats = {name: src.stats for name, src in dict(self.catalog).items()}
        model = CostModel(stats, self.k1, self.k2)
        self._cost_model = (version, model)
        return model

    # ------------------------------------------------------------------
    def plan(self, query: TargetQuery | str, planner: Planner | None = None
             ) -> PlanningResult:
        """Generate (but do not run) the best feasible plan for the query.

        With a plan cache configured, equivalent rewritings of the same
        query (commuted / reassociated conditions, same projection)
        share one cached :class:`PlanningResult` -- planner stats
        included, so a hit reports the *original* planning work, not a
        re-run.  Entries are versioned by the catalog: a lookup after
        :meth:`add_source` / :meth:`bump_catalog` re-plans.
        """
        if isinstance(query, str):
            query = parse_query(query)
        return self._plan(query, planner)[0]

    def _plan(self, query: TargetQuery, planner: Planner | None
              ) -> tuple[PlanningResult, str]:
        """:meth:`plan`, and how the plan cache resolved it: ``"hit"``,
        ``"template_hit"``, ``"miss"`` or ``""`` (no plan cache)."""
        tracer = get_tracer()
        # The query text is rendered only for a tracer that records it:
        # an untraced ask renders no text.
        attributes = (
            {"query": query.text, "source": query.source}
            if tracer.enabled else {}
        )
        with tracer.span("mediator.plan", **attributes) as span:
            source = self.source(query.source)
            source.schema.validate_attributes(query.attributes)
            source.schema.validate_attributes(query.condition_attributes)
            scheme = planner if planner is not None else self.planner
            self._ensure_compiled(source)
            cache_key = None
            # The version every outcome of this call is stamped with:
            # read *before* planning, so a concurrent catalog change
            # mid-plan leaves the result conservatively older, never
            # newer, than the catalog it was actually planned against.
            version = self.catalog_version
            if self.plan_cache is not None:
                cache_key = (plan_cache_key(query), scheme.name)
                cached = self.plan_cache.get(cache_key, version)
                if cached is not None:
                    span.add_event(
                        "plan.cache_hit", planner=cached.planner,
                        catalog_version=version,
                    )
                    span.set_attributes(
                        planner=cached.planner, feasible=cached.feasible,
                        cost=cached.cost, plan_cache="hit",
                    )
                    return cached, "hit"
                span.add_event("plan.cache_miss", catalog_version=version)
                template_key = self.plan_templates.key(query, scheme.name)
                rebound = self.plan_templates.instantiate(
                    template_key, query, source, self.cost_model(), version,
                )
                if rebound is not None:
                    # A validated constant rebinding of an earlier plan:
                    # promote it to an exact entry so repeats of *these*
                    # constants hit the canonical cache.
                    rebound.catalog_version = version
                    self.plan_cache.put(cache_key, rebound, version)
                    span.add_event(
                        "plan.template_hit", planner=rebound.planner,
                        catalog_version=version,
                    )
                    span.set_attributes(
                        planner=rebound.planner, feasible=rebound.feasible,
                        cost=rebound.cost, plan_cache="template_hit",
                    )
                    return rebound, "template_hit"
            result = scheme.plan(query, source, self.cost_model())
            result.catalog_version = version
            plan_cache = ""
            if cache_key is not None:
                # Store under the version read *before* planning: a
                # concurrent catalog change mid-plan leaves a stale
                # entry that the versioned get() will refuse to serve.
                self.plan_cache.put(cache_key, result, version)
                self.plan_templates.store(
                    template_key, query.condition, result, version
                )
                span.set_attribute("plan_cache", "miss")
                plan_cache = "miss"
            span.set_attributes(
                planner=result.planner, feasible=result.feasible,
                cost=result.cost,
            )
            return result, plan_cache

    def explain(self, query: TargetQuery | str, planner: Planner | None = None,
                trace: bool = False) -> str:
        """Plan (without executing) and render the chosen plan.

        With ``trace=True`` the planning run is traced into a private
        :class:`Tracer` and the rendered plan is followed by the
        planner-phase span timeline (rewrite/mark/generate/cost with Q
        and PR1-PR3 fire counts) -- "why was this plan picked" in one
        call.
        """
        from repro.plans.printer import explain as render

        if trace:
            from repro.observability.timeline import render_timeline

            with use_tracer(Tracer()) as tracer:
                result = self.plan(query, planner)
            timeline = render_timeline(tracer.finished_spans())
        else:
            result = self.plan(query, planner)
        header = result.describe()
        body = header if result.plan is None else (
            header + "\n" + render(result.plan, self.cost_model())
        )
        if trace:
            body += "\n\n" + timeline
        return body

    def ask(self, query: TargetQuery | str, planner: Planner | None = None,
            executor: str | None = None) -> MediatorAnswer:
        """Plan and execute; raise :class:`InfeasiblePlanError` if no plan.

        ``executor`` picks the execution engine for this ask --
        ``"serial"``, ``"parallel"`` or ``"async"`` (``None`` = the
        mediator's default).  With ``max_in_flight`` configured, the
        whole plan+execute is one admitted request -- however wide the
        chosen engine fans out inside, one ask holds one admission slot
        -- and past the limit :meth:`ask` raises
        :class:`~repro.errors.OverloadError` within the admission
        timeout instead of queueing without bound."""
        # An unknown engine name fails here, before admission, planning
        # or telemetry -- even for an ask the shortcut would answer.
        engine = self._executor_for(executor)
        if isinstance(query, str):
            query = parse_query(query)
        tracer = get_tracer()
        attributes = (
            {"query": query.text, "source": query.source}
            if tracer.enabled else {}
        )
        with tracer.span("mediator.ask", **attributes) as span:
            armed = self.slo is not None or self.events is not None
            started = time.perf_counter() if armed else 0.0
            plan_cache = ""
            try:
                with (_NO_ADMISSION if self.admission is None
                      else self.admission.admit()):
                    if is_definitely_unsatisfiable(query.condition):
                        span.set_attribute("short_circuited", True)
                        answer = self._empty_answer(query)
                    else:
                        planning, plan_cache = self._plan(query, planner)
                        answer = self._execute(query, planning, span,
                                               engine)
            except BaseException as exc:
                if armed:
                    self._record_ask(query, time.perf_counter() - started,
                                     None, exc, span, plan_cache)
                raise
            if armed:
                self._record_ask(query, time.perf_counter() - started,
                                 answer, None, span, plan_cache)
            return answer

    def _record_ask(self, query: TargetQuery, duration: float,
                    answer: MediatorAnswer | None,
                    error: BaseException | None, span,
                    plan_cache: str) -> None:
        """Telemetry for one finished ask, success *or* failure.

        With an objective, the latency feeds the SLO histograms and a
        breach is counted.  The ask's one :class:`AskEvent` is built
        only when something keeps it -- the event ring, or the
        slow-query log on a breach, where it also carries the rendered
        span timeline -- and every keeper holds that same value."""
        trace_id = span.trace_id
        breached = False
        if self.slo is not None:
            if self.ask_latency.observe(duration, trace_id=trace_id or None):
                # The latency landed in an exemplar slot: the exported
                # exemplar will point at this trace, so pin it through
                # any sampling decision (a dangling exemplar helps
                # nobody).
                pin = getattr(get_tracer(), "pin_trace", None)
                if pin is not None:
                    pin(trace_id)
            get_metrics().histogram("mediator.ask_seconds").observe(duration)
            breached = duration > self.latency_objective
            if breached:
                get_metrics().counter("mediator.slo_breaches").inc()
                span.set_attribute("slo_breach", True)
        if not breached and self.events is None:
            return
        if error is None:
            outcome = "ok"
        elif isinstance(error, OverloadError):
            outcome = "shed"
        else:
            outcome = type(error).__name__
        event = AskEvent(
            query=query.text,
            source=query.source,
            outcome=outcome,
            duration_seconds=duration,
            trace_id=f"{trace_id:032x}" if trace_id else "",
            fingerprint=query_fingerprint(query),
            plan_cache=plan_cache,
            error=f"{type(error).__name__}: {error}" if error else None,
        )
        if answer is not None:
            report = answer.report
            event.planner = answer.planning.planner
            event.per_source = {
                name: [delta.queries, delta.tuples]
                for name, delta in report.per_source.items()
            }
            event.answers = len(report.result)
            event.coalesced_hits = report.coalesced_hits
        if breached:
            spans = get_tracer().trace_spans(trace_id) if trace_id else []
            if spans:
                from repro.observability.timeline import render_timeline

                event.timeline = render_timeline(spans)
            self.slow_queries.append(event)
        if self.events is not None:
            self.events.append(event)

    def _execute(self, query: TargetQuery, planning: PlanningResult, span,
                 engine: Executor) -> MediatorAnswer:
        """Run a planned ask (under its span and admission slot)."""
        if planning.plan is None:
            why = planning.why_infeasible()
            raise InfeasiblePlanError(
                f"no feasible plan for {query} under the capabilities of "
                f"source {query.source!r}" + (f": {why}" if why else ""),
                witness=planning.witness,
            )
        plan = planning.plan
        if self.minimal_answers:
            from repro.plans.minimal import prune_subsumed

            plan, pruned = prune_subsumed(plan)
            if pruned:
                get_metrics().counter(
                    "mediator.union_branches_pruned").inc(pruned)
                span.set_attribute("union_branches_pruned", pruned)
        with get_tracer().span("mediator.execute") as exec_span:
            report = engine.execute_with_report(plan)
            exec_span.set_attributes(
                queries=report.queries,
                tuples=report.tuples_transferred,
                attempts=report.attempts,
                retries=report.retries,
                failovers=report.failovers,
            )
        span.set_attributes(
            rows=len(report.result), queries=report.queries,
            tuples=report.tuples_transferred,
        )
        return MediatorAnswer(query, planning, report)

    def _empty_answer(self, query: TargetQuery) -> MediatorAnswer:
        """The answer to a provably unsatisfiable query: empty, free."""
        from repro.plans.execute import ExecutionReport

        source = self.source(query.source)
        schema = source.schema.project(query.attributes)
        source.schema.validate_attributes(query.condition_attributes)
        planning = PlanningResult(
            planner="unsatisfiable-shortcut",
            query=query,
            plan=None,
            cost=0.0,
            stats=PlannerStats(),
            catalog_version=self.catalog_version,
        )
        report = ExecutionReport(Relation(schema, []), queries=0,
                                 tuples_transferred=0)
        return MediatorAnswer(query, planning, report)
