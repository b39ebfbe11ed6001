"""Unit tests for fault injection, retry policies and failover."""

import pytest

from repro.conditions.parser import parse_condition
from repro.errors import (
    PlanExecutionError,
    ReproError,
    SourceRateLimitError,
    SourceTimeoutError,
    SourceUnavailableError,
    TransientSourceError,
    UnsupportedQueryError,
)
from repro.plans.async_exec import AsyncExecutor
from repro.plans.cost import CostModel
from repro.plans.execute import Executor
from repro.plans.nodes import ChoicePlan, SourceQuery, UnionPlan
from repro.plans.parallel import ParallelExecutor
from repro.plans.retry import RetryPolicy
from repro.source.faults import FaultInjector
from repro.source.metering import MeterSnapshot
from tests.conftest import make_example41_source

A = frozenset({"model"})


def sq(text, attrs=A, source="cars"):
    return SourceQuery(parse_condition(text), frozenset(attrs), source)


BMW = "make = 'BMW' and price < 40000"


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_deterministic_sequence(self):
        a = FaultInjector(seed=42, transient_rate=0.3, timeout_rate=0.2,
                          rate_limit_rate=0.1)
        b = FaultInjector(seed=42, transient_rate=0.3, timeout_rate=0.2,
                          rate_limit_rate=0.1)
        outcomes_a = [type(a.draw("s")).__name__ for _ in range(50)]
        outcomes_b = [type(b.draw("s")).__name__ for _ in range(50)]
        assert outcomes_a == outcomes_b
        assert a.injected == b.injected

    def test_zero_rates_never_fail(self):
        injector = FaultInjector(seed=0)
        assert all(injector.draw("s") is None for _ in range(100))
        assert injector.total_injected == 0

    def test_certain_failure(self):
        injector = FaultInjector(seed=0, transient_rate=1.0)
        fault = injector.draw("s")
        assert isinstance(fault, SourceUnavailableError)
        assert fault.source == "s"

    def test_fault_kinds_carry_metadata(self):
        timeouts = FaultInjector(seed=0, timeout_rate=1.0, timeout_latency=2.5)
        fault = timeouts.draw("s")
        assert isinstance(fault, SourceTimeoutError)
        assert fault.elapsed == 2.5
        limited = FaultInjector(seed=0, rate_limit_rate=1.0, retry_after=1.5)
        fault = limited.draw("s")
        assert isinstance(fault, SourceRateLimitError)
        assert fault.retry_after == 1.5

    def test_take_down_and_restore(self):
        injector = FaultInjector(seed=0)
        injector.take_down()
        assert isinstance(injector.draw("s"), SourceUnavailableError)
        assert injector.injected["outage"] == 1
        injector.restore()
        assert injector.draw("s") is None

    def test_reset_rewinds_rng(self):
        injector = FaultInjector(seed=9, transient_rate=0.5)
        first = [injector.draw("s") is None for _ in range(20)]
        injector.reset()
        again = [injector.draw("s") is None for _ in range(20)]
        assert first == again

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultInjector(transient_rate=0.7, timeout_rate=0.6)
        with pytest.raises(ValueError):
            FaultInjector(transient_rate=-0.1)

    def test_source_meters_failures(self):
        source = make_example41_source()
        source.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        with pytest.raises(SourceUnavailableError):
            source.execute(parse_condition(BMW), ["model"])
        assert source.meter.failures == 1
        assert source.meter.queries == 0
        assert source.meter.rejected == 0


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_backoff=1.0, multiplier=2.0,
                             max_backoff=5.0, jitter=0.0)
        delays = [policy.backoff_delay(a) for a in (1, 2, 3, 4)]
        assert delays == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff=1.0, jitter=0.5, seed=3)
        one = policy.backoff_delay(1, key="s|c")
        two = policy.backoff_delay(1, key="s|c")
        assert one == two
        assert 0.5 <= one <= 1.0
        # Different keys de-synchronize their delays.
        assert policy.backoff_delay(1, key="other") != one

    def test_rate_limit_floors_the_delay(self):
        policy = RetryPolicy(base_backoff=0.01, jitter=0.0)
        fault = SourceRateLimitError("slow down", retry_after=9.0)
        assert policy.backoff_delay(1, fault=fault) == 9.0

    def test_none_policy_fails_fast(self):
        policy = RetryPolicy.none()
        assert policy.max_attempts == 1
        assert not policy.should_retry(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(retry_budget=-1)


# ----------------------------------------------------------------------
# Executor retry behaviour
# ----------------------------------------------------------------------

class TestExecutorRetry:
    def test_recovers_from_transient_failure(self):
        # Random(1) draws ~0.134 then ~0.847: with rate 0.5 the first
        # attempt fails and the retry succeeds.
        source = make_example41_source()
        source.fault_injector = FaultInjector(seed=1, transient_rate=0.5)
        executor = Executor(
            {"cars": source}, retry_policy=RetryPolicy(max_attempts=3)
        )
        report = executor.execute_with_report(sq(BMW))
        assert report.result.as_row_set() == {("328i",), ("318i",)}
        assert report.attempts == 2
        assert report.retries == 1
        assert report.backoff_seconds > 0.0
        assert source.meter.failures == 1
        assert source.meter.retries == 1
        assert source.meter.queries == 1

    def test_no_policy_fails_fast(self):
        source = make_example41_source()
        source.fault_injector = FaultInjector(seed=1, transient_rate=0.5)
        executor = Executor({"cars": source})
        with pytest.raises(TransientSourceError):
            executor.execute(sq(BMW))
        assert source.meter.retries == 0

    def test_gives_up_after_max_attempts(self):
        source = make_example41_source()
        source.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        executor = Executor(
            {"cars": source}, retry_policy=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(SourceUnavailableError):
            executor.execute(sq(BMW))
        assert source.meter.failures == 3
        assert source.meter.retries == 2

    def test_plan_wide_retry_budget(self):
        source = make_example41_source()
        source.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        executor = Executor(
            {"cars": source},
            retry_policy=RetryPolicy(max_attempts=10, retry_budget=2),
        )
        with pytest.raises(SourceUnavailableError):
            executor.execute(sq(BMW))
        # 1 try + a budget of 2 retries, not 10 attempts.
        assert source.meter.failures == 3

    def test_capability_rejections_are_never_retried(self):
        source = make_example41_source()
        executor = Executor(
            {"cars": source},
            fix_queries=False,
            retry_policy=RetryPolicy(max_attempts=5),
        )
        # Reversed conjunct order: the order-sensitive form rejects it.
        with pytest.raises(UnsupportedQueryError):
            executor.execute(sq("price < 40000 and make = 'BMW'"))
        assert source.meter.rejected == 1
        assert source.meter.retries == 0
        assert source.meter.failures == 0

    def test_cache_hit_masks_faults(self):
        from repro.plans.cache import ResultCache

        source = make_example41_source()
        cache = ResultCache(1000)
        executor = Executor({"cars": source}, cache=cache)
        plan = sq(BMW)
        warm = executor.execute(plan)
        source.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        hit = executor.execute(plan)
        assert hit.as_row_set() == warm.as_row_set()
        assert source.meter.failures == 0


# ----------------------------------------------------------------------
# Choice resolution at execution time
# ----------------------------------------------------------------------

class TestChoiceFailover:
    def two_sources(self):
        cheap = make_example41_source("cheap")
        dear = make_example41_source("dear")
        model = CostModel(
            {"cheap": cheap.stats, "dear": dear.stats},
            per_source={"dear": (1000.0, 10.0)},
        )
        return cheap, dear, model

    def test_without_cost_model_choice_still_rejected(self):
        cheap, dear, __ = self.two_sources()
        executor = Executor({"cheap": cheap, "dear": dear})
        choice = ChoicePlan([sq(BMW, source="cheap"), sq(BMW, source="dear")])
        with pytest.raises(PlanExecutionError):
            executor.execute(choice)

    def test_picks_cheapest_alternative(self):
        cheap, dear, model = self.two_sources()
        executor = Executor({"cheap": cheap, "dear": dear}, cost_model=model)
        choice = ChoicePlan([sq(BMW, source="dear"), sq(BMW, source="cheap")])
        result = executor.execute(choice)
        assert result.as_row_set() == {("328i",), ("318i",)}
        assert cheap.meter.queries == 1
        assert dear.meter.queries == 0

    def test_falls_over_to_next_alternative(self):
        cheap, dear, model = self.two_sources()
        cheap.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        executor = Executor({"cheap": cheap, "dear": dear}, cost_model=model)
        choice = ChoicePlan([sq(BMW, source="dear"), sq(BMW, source="cheap")])
        report = executor.execute_with_report(choice)
        assert report.result.as_row_set() == {("328i",), ("318i",)}
        assert report.failovers == 1
        assert dear.meter.queries == 1

    def test_all_alternatives_dead_raises_the_fault(self):
        cheap, dear, model = self.two_sources()
        cheap.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        dear.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        executor = Executor({"cheap": cheap, "dear": dear}, cost_model=model)
        choice = ChoicePlan([sq(BMW, source="dear"), sq(BMW, source="cheap")])
        with pytest.raises(TransientSourceError):
            executor.execute(choice)

    def test_failed_source_skipped_across_choices(self):
        cheap, dear, model = self.two_sources()
        cheap.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        executor = Executor({"cheap": cheap, "dear": dear}, cost_model=model)
        red = "make = 'BMW' and color = 'red'"
        choice1 = ChoicePlan([sq(BMW, source="cheap"), sq(BMW, source="dear")])
        choice2 = ChoicePlan([sq(red, source="cheap"), sq(red, source="dear")])
        from repro.plans.nodes import IntersectPlan

        report = executor.execute_with_report(IntersectPlan([choice1, choice2]))
        assert report.result.as_row_set() == {("328i",)}
        # The second Choice skips 'cheap' without re-probing it: one
        # failed attempt total, both answers from 'dear'.
        assert cheap.meter.failures == 1
        assert dear.meter.queries == 2


class TestPlanSources:
    def test_sources_includes_choice_branches(self):
        choice = ChoicePlan([sq(BMW, source="a"), sq(BMW, source="b")])
        assert choice.sources() == {"a", "b"}
        assert sq(BMW, source="a").sources() == {"a"}


# ----------------------------------------------------------------------
# One interpreter, three drivers: identical resilience accounting
# ----------------------------------------------------------------------

RED = "make = 'BMW' and color = 'red'"
_FLAT_BACKOFF = dict(base_backoff=0.25, multiplier=1.0, jitter=0.0)

ENGINES = {
    "serial": Executor,
    "parallel": lambda catalog, **kw: ParallelExecutor(
        catalog, max_workers=4, **kw),
    "async": AsyncExecutor,
}


class _MirrorFailover:
    """Re-plans a dead source query onto one mirror."""

    def __init__(self, mirror: str):
        self.mirror = mirror

    def replan(self, query, failed):
        if self.mirror in failed:
            return None
        return SourceQuery(query.condition, query.attrs, self.mirror)


def _cars(*names):
    return {name: make_example41_source(name) for name in names}


def _take_down(*sources):
    for source in sources:
        source.fault_injector = FaultInjector(seed=0, transient_rate=1.0)


def _retry_budget_exhausted():
    catalog = _cars("c0", "c1")
    _take_down(catalog["c1"])
    plan = UnionPlan([sq(BMW, source="c0"), sq(BMW, source="c1")])
    policy = RetryPolicy(max_attempts=10, retry_budget=2, **_FLAT_BACKOFF)
    return catalog, plan, dict(retry_policy=policy), None


def _failover_to_mirror():
    catalog = _cars("m0", "m1", "c0")
    _take_down(catalog["m0"])
    plan = UnionPlan([sq(BMW, source="m0"), sq(RED, source="c0")])
    return catalog, plan, dict(
        retry_policy=RetryPolicy(max_attempts=2, **_FLAT_BACKOFF),
        failover=_MirrorFailover("m1"),
    ), None


def _choice_cheapest_then_failover():
    catalog = _cars("cheap", "dear", "c0")
    _take_down(catalog["cheap"])
    model = CostModel(
        {"cheap": catalog["cheap"].stats, "dear": catalog["dear"].stats},
        per_source={"dear": (1000.0, 10.0)},
    )
    choice = ChoicePlan([sq(BMW, source="dear"), sq(BMW, source="cheap")])
    plan = UnionPlan([choice, sq(RED, source="c0")])
    return catalog, plan, dict(cost_model=model), None


def _cache_hit_masks_fault():
    from repro.plans.cache import ResultCache

    catalog = _cars("c0", "c1")
    plan = UnionPlan([sq(BMW, source="c0"), sq(RED, source="c1")])

    def warm_then_fail(executor):
        executor.execute(plan)
        _take_down(*catalog.values())

    return catalog, plan, dict(cache=ResultCache(1000)), warm_then_fail


def _unfixed_rejection():
    catalog = _cars("c0", "c1", "c2")
    plan = UnionPlan([
        sq(BMW, source="c0"), sq(RED, source="c1"),
        sq("price < 40000 and make = 'BMW'", source="c2"),
    ])
    return catalog, plan, dict(
        fix_queries=False, retry_policy=RetryPolicy(max_attempts=5),
    ), None


#: Each case, and what every engine must report for it.
ONE_CORE_CASES = {
    "retry_budget_exhausted": (_retry_budget_exhausted, dict(
        error=(SourceUnavailableError, 1), rows=None,
        attempts=4, retries=2, failovers=0, backoff_seconds=0.5,
        per_source={"c0": MeterSnapshot(queries=1, tuples=2),
                    "c1": MeterSnapshot(failures=3, retries=2)})),
    "failover_to_mirror": (_failover_to_mirror, dict(
        error=None, rows=[{"model": "328i"}, {"model": "318i"}],
        attempts=4, retries=1, failovers=1, backoff_seconds=0.25,
        per_source={"m0": MeterSnapshot(failures=2, retries=1),
                    "m1": MeterSnapshot(queries=1, tuples=2),
                    "c0": MeterSnapshot(queries=1, tuples=1)})),
    "choice_cheapest_then_failover": (_choice_cheapest_then_failover, dict(
        error=None, rows=[{"model": "328i"}, {"model": "318i"}],
        attempts=3, retries=0, failovers=1, backoff_seconds=0.0,
        per_source={"cheap": MeterSnapshot(failures=1),
                    "dear": MeterSnapshot(queries=1, tuples=2),
                    "c0": MeterSnapshot(queries=1, tuples=1)})),
    "cache_hit_masks_fault": (_cache_hit_masks_fault, dict(
        error=None, rows=[{"model": "328i"}, {"model": "318i"}],
        attempts=0, retries=0, failovers=0, backoff_seconds=0.0,
        per_source={})),
    "unfixed_rejection": (_unfixed_rejection, dict(
        error=(UnsupportedQueryError, 2), rows=None,
        attempts=3, retries=0, failovers=0, backoff_seconds=0.0,
        per_source={"c0": MeterSnapshot(queries=1, tuples=2),
                    "c1": MeterSnapshot(queries=1, tuples=1),
                    "c2": MeterSnapshot(rejected=1)})),
}


def _failing_child(plan, exc) -> int:
    """Index of the (lowest) child whose source the error names."""
    return next(
        index for index, child in enumerate(plan.children)
        if any(f"source {name!r}" in str(exc) for name in child.sources())
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", ONE_CORE_CASES)
def test_every_engine_reports_the_same_resilience(case, engine):
    """Retry budgets, failover, Choice resolution, cache hits and
    rejections exist once, in the shared interpreter: whichever engine
    drives it, the accounting and the error surfaced are identical."""
    build, expected = ONE_CORE_CASES[case]
    catalog, plan, options, prepare = build()
    executor = ENGINES[engine](catalog, **options)
    try:
        if prepare is not None:
            prepare(executor)
        ctx = executor._new_context()
        error = rows = None
        try:
            rows = executor._run(plan, ctx).rows
        except ReproError as exc:
            error = (type(exc), _failing_child(plan, exc))
    finally:
        if engine != "serial":
            executor.close()
    report = ctx.report(None, 0.0)
    assert report.retries == sum(
        delta.retries for delta in report.per_source.values()
    )
    assert dict(
        error=error, rows=rows, attempts=report.attempts,
        retries=report.retries, failovers=report.failovers,
        backoff_seconds=report.backoff_seconds,
        per_source=report.per_source,
    ) == expected
