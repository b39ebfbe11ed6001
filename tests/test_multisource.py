"""Unit tests for mirrors and partitioned sources."""

import pytest

from repro.conditions.parser import parse_condition
from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema
from repro.errors import (
    InfeasiblePlanError,
    PlanExecutionError,
    SchemaError,
    TransientSourceError,
    UnknownAttributeError,
)
from repro.mediator import Mediator
from repro.multisource import (
    MirrorGroup,
    PartialAnswer,
    PartitionedSource,
    merge_stats,
)
from repro.plans import AsyncExecutor, Executor, ParallelExecutor
from repro.plans.cache import ResultCache
from repro.plans.retry import RetryPolicy
from repro.source.faults import FaultInjector
from repro.query import TargetQuery
from repro.source.source import CapabilitySource
from repro.ssdl.builder import DescriptionBuilder

SCHEMA = Schema.of(
    "cars",
    [("id", AttrType.INT), ("make", AttrType.STRING),
     ("price", AttrType.INT)],
    key="id",
)

ROWS = [
    {"id": 0, "make": "BMW", "price": 30000},
    {"id": 1, "make": "BMW", "price": 50000},
    {"id": 2, "make": "Toyota", "price": 15000},
    {"id": 3, "make": "Toyota", "price": 22000},
    {"id": 4, "make": "Honda", "price": 18000},
    {"id": 5, "make": "Honda", "price": 12000},
]


def rich_source(name="rich", rows=None):
    """Supports make+price conjunctions."""
    desc = (
        DescriptionBuilder(name)
        .rule("mp", "make = $str and price <= $num | make = $str",
              attributes=["id", "make", "price"])
        .build()
    )
    return CapabilitySource(name, Relation(SCHEMA, rows or ROWS), desc)


def poor_source(name="poor", rows=None):
    """Only whole downloads."""
    desc = (
        DescriptionBuilder(name)
        .rule("dl", "true", attributes=["id", "make", "price"])
        .build()
    )
    return CapabilitySource(name, Relation(SCHEMA, rows or ROWS), desc)


def q(text, attrs=("id",)):
    return TargetQuery(parse_condition(text), frozenset(attrs), "logical")


class TestMirrorGroup:
    def test_requires_two_distinct_sources(self):
        with pytest.raises(SchemaError):
            MirrorGroup([rich_source()])
        with pytest.raises(SchemaError):
            MirrorGroup([rich_source("x"), rich_source("x")])

    def test_requires_shared_attributes(self):
        other_schema = Schema.of("other", [("id", AttrType.INT)], key="id")
        other = CapabilitySource(
            "other",
            Relation(other_schema, [{"id": 1}]),
            DescriptionBuilder("o").rule("dl", "true", attributes=["id"]).build(),
        )
        with pytest.raises(SchemaError):
            MirrorGroup([rich_source(), other])

    def test_picks_cheaper_mirror(self):
        group = MirrorGroup([rich_source(), poor_source()])
        choice = group.plan(q("make = 'BMW' and price <= 40000"))
        assert choice.feasible
        # The rich mirror answers with a filtered query; the poor one
        # must download everything -- rich wins.
        assert choice.chosen.query.source == "rich"
        assert len(choice.per_source) == 2
        assert choice.per_source["poor"].feasible  # download plan exists

    def test_capability_based_failover(self):
        # A query the rich form cannot express (no price-only rule) falls
        # over to the download mirror.
        group = MirrorGroup([rich_source(), poor_source()])
        choice = group.plan(q("price <= 16000"))
        assert choice.feasible
        assert choice.chosen.query.source == "poor"

    def test_infeasible_everywhere(self):
        group = MirrorGroup([rich_source("r1"), rich_source("r2")])
        choice = group.plan(q("price <= 16000"))
        assert not choice.feasible
        assert choice.chosen is None

    def test_per_source_cost_constants_steer_choice(self):
        # Same capabilities, but mirror two is 100x more expensive per
        # tuple: mirror one must win.
        group = MirrorGroup(
            [rich_source("m1"), rich_source("m2")],
            per_source_constants={"m2": (100.0, 100.0)},
        )
        choice = group.plan(q("make = 'BMW' and price <= 40000"))
        assert choice.chosen.query.source == "m1"

    def test_merge_stats(self):
        group = MirrorGroup([rich_source(), poor_source()])
        choice = group.plan(q("make = 'BMW' and price <= 40000"))
        merged = merge_stats(choice.per_source)
        assert merged.check_calls > 0


class TestPartitionedSource:
    def partitions(self):
        west = [r for r in ROWS if r["id"] % 2 == 0]
        east = [r for r in ROWS if r["id"] % 2 == 1]
        return rich_source("west", west), rich_source("east", east)

    def test_union_over_partitions(self):
        west, east = self.partitions()
        partitioned = PartitionedSource([west, east])
        outcome = partitioned.plan(q("make = 'Toyota' and price <= 30000"))
        assert outcome.feasible
        report = partitioned.ask(q("make = 'Toyota' and price <= 30000"))
        assert report.result.as_row_set() == {(2,), (3,)}
        assert report.queries == 2  # one per partition

    def test_cost_is_sum_of_partitions(self):
        west, east = self.partitions()
        partitioned = PartitionedSource([west, east])
        outcome = partitioned.plan(q("make = 'Honda' and price <= 30000"))
        parts = [r.cost for r in outcome.per_source.values()]
        assert outcome.cost == pytest.approx(sum(parts))

    def test_unplannable_partition_sinks_query(self):
        west, __ = self.partitions()
        east_poor = poor_source("east_poor", [r for r in ROWS if r["id"] % 2])
        # poor partition can still download, so use a partition with a
        # form that cannot express the query AND no download:
        east_limited = rich_source("east_limited", [r for r in ROWS if r["id"] % 2])
        partitioned = PartitionedSource([west, east_limited])
        outcome = partitioned.plan(q("price <= 16000"))
        assert not outcome.feasible
        assert "east_limited" in outcome.infeasible_partitions
        with pytest.raises(InfeasiblePlanError):
            partitioned.ask(q("price <= 16000"))
        del east_poor

    def test_mixed_capability_partitions_work(self):
        west, __ = self.partitions()
        east_poor = poor_source("east_poor", [r for r in ROWS if r["id"] % 2])
        partitioned = PartitionedSource([west, east_poor])
        report = partitioned.ask(q("make = 'BMW' and price <= 60000"))
        assert report.result.as_row_set() == {(0,), (1,)}


class TestMirrorExecutionFailover:
    def test_dead_mirror_fails_over_mid_execution(self):
        rich, poor = rich_source(), poor_source()
        rich.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        group = MirrorGroup([rich, poor],
                            retry_policy=RetryPolicy(max_attempts=2))
        # Planning picks the (cheaper) rich mirror; execution finds it
        # dead and re-plans the query against the surviving mirror.
        report = group.ask(q("make = 'BMW' and price <= 40000"))
        assert report.result.as_row_set() == {(0,)}
        assert report.failovers == 1
        assert report.retries == 1
        assert rich.meter.failures == 2
        assert poor.meter.queries == 1

    def test_all_mirrors_dead_raises(self):
        r1, r2 = rich_source("r1"), rich_source("r2")
        r1.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        r2.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        group = MirrorGroup([r1, r2])
        with pytest.raises(TransientSourceError):
            group.ask(q("make = 'BMW' and price <= 40000"))

    def test_shared_cache_across_asks(self):
        cache = ResultCache(10_000)
        group = MirrorGroup([rich_source(), poor_source()], cache=cache)
        query = q("make = 'BMW' and price <= 40000")
        first = group.ask(query)
        assert first.queries == 1
        second = group.ask(query)
        assert second.queries == 0  # served by the group's shared cache
        assert second.result.as_row_set() == first.result.as_row_set()
        assert cache.stats.hits >= 1

    def test_group_reuses_one_executor(self):
        group = MirrorGroup([rich_source(), poor_source()])
        assert group._executor is group._executor  # stable handle
        executor = group._executor
        group.ask(q("make = 'BMW' and price <= 40000"))
        assert group._executor is executor


class TestPartialPartitions:
    def partitions(self):
        west = [r for r in ROWS if r["id"] % 2 == 0]
        east = [r for r in ROWS if r["id"] % 2 == 1]
        return rich_source("west", west), rich_source("east", east)

    def test_complete_when_all_partitions_answer(self):
        west, east = self.partitions()
        partitioned = PartitionedSource([west, east])
        answer = partitioned.ask(
            q("make = 'Toyota' and price <= 30000"), partial=True
        )
        assert isinstance(answer, PartialAnswer)
        assert answer.complete
        assert answer.missing_partitions == []
        assert answer.result.as_row_set() == {(2,), (3,)}
        assert answer.report.queries == 2

    def test_down_partition_yields_flagged_partial_result(self):
        west, east = self.partitions()
        east.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        partitioned = PartitionedSource([west, east])
        answer = partitioned.ask(
            q("make = 'Toyota' and price <= 30000"), partial=True
        )
        assert not answer.complete
        assert answer.missing_partitions == ["east"]
        assert answer.result.as_row_set() == {(2,)}  # west's Toyota only

    def test_unplannable_partition_skipped_in_partial_mode(self):
        west, __ = self.partitions()
        east_limited = rich_source(
            "east_limited", [r for r in ROWS if r["id"] % 2]
        )
        partitioned = PartitionedSource([west, east_limited])
        # price-only: the rich form cannot express it, west can't either
        # -- but 'true' downloads are not in the rich grammar, so use a
        # make query only west's slice can satisfy after the east form
        # fails to plan the price-only condition.
        answer = partitioned.ask(q("make = 'Honda'"), partial=True)
        assert answer.complete  # make-only is plannable on both
        east_limited.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        flagged = partitioned.ask(q("make = 'Honda'"), partial=True)
        assert not flagged.complete
        assert flagged.missing_partitions == ["east_limited"]

    def test_every_partition_down_still_raises(self):
        west, east = self.partitions()
        west.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        east.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        partitioned = PartitionedSource([west, east])
        with pytest.raises(InfeasiblePlanError):
            partitioned.ask(q("make = 'Toyota' and price <= 30000"),
                            partial=True)

    def test_default_mode_still_all_or_nothing(self):
        west, east = self.partitions()
        east.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        partitioned = PartitionedSource([west, east])
        with pytest.raises(TransientSourceError):
            partitioned.ask(q("make = 'Toyota' and price <= 30000"))


class TestUnknownAttributes:
    """An attribute outside the shared schema is a schema error on every
    group path, as on a Mediator -- not an infeasible plan."""

    QUERIES = [q("make = 'BMW'", attrs=("id", "colour")),
               q("colour = 'red'")]

    def groups(self):
        west = [r for r in ROWS if r["id"] % 2 == 0]
        east = [r for r in ROWS if r["id"] % 2 == 1]
        partitioned = PartitionedSource([rich_source("west", west),
                                         rich_source("east", east)])
        return {
            "mirror": lambda query: MirrorGroup(
                [rich_source(), poor_source()]).ask(query),
            "partition": partitioned.ask,
            "partial": lambda query: partitioned.ask(query, partial=True),
        }

    @pytest.mark.parametrize("path", ["mirror", "partition", "partial"])
    @pytest.mark.parametrize("query", QUERIES, ids=["selected", "condition"])
    def test_raises_unknown_attribute(self, path, query):
        with pytest.raises(UnknownAttributeError, match="colour"):
            self.groups()[path](query)


class TestGroupEngines:
    """A group runs on any engine the Mediator names, and which one
    changes nothing a caller can read: rows, per-source traffic,
    failovers and missing partitions."""

    ENGINES = {"serial": Executor, "parallel": ParallelExecutor,
               "async": AsyncExecutor}

    @classmethod
    def outcomes(cls, engine: str) -> dict:
        rich, poor = rich_source(), poor_source()
        rich.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
        west = rich_source("west", [r for r in ROWS if r["id"] % 2 == 0])
        east = rich_source("east", [r for r in ROWS if r["id"] % 2 == 1])
        query = q("make = 'Toyota' and price <= 30000")
        with MirrorGroup([rich, poor], executor=engine,
                         retry_policy=RetryPolicy(max_attempts=2)) as mirror, \
                PartitionedSource([west, east], executor=engine) as partition:
            assert type(mirror._executor) is cls.ENGINES[engine]
            assert type(partition._executor) is cls.ENGINES[engine]
            reports = {
                "mirror": mirror.ask(q("make = 'BMW' and price <= 40000")),
                "partition": partition.ask(query),
            }
            east.fault_injector = FaultInjector(seed=0, transient_rate=1.0)
            partial = partition.ask(query, partial=True)
        reports["partial"] = partial.report
        outcome = {
            path: (report.result.as_row_set(), report.per_source,
                   report.failovers)
            for path, report in reports.items()
        }
        outcome["missing"] = partial.missing_partitions
        return outcome

    @pytest.mark.parametrize("engine", ["parallel", "async"])
    def test_every_engine_answers_as_the_serial_one(self, engine):
        serial = self.outcomes("serial")
        assert serial["mirror"][0] == {(0,)} and serial["mirror"][2] == 1
        assert serial["partition"][0] == {(2,), (3,)}
        assert serial["partial"][0] == {(2,)}
        assert serial["missing"] == ["east"]
        assert self.outcomes(engine) == serial

    @pytest.mark.parametrize("build", [
        lambda: MirrorGroup([rich_source(), poor_source()], executor="bogus"),
        lambda: PartitionedSource([rich_source("west"), rich_source("east")],
                                  executor="bogus"),
        lambda: Mediator(executor="bogus"),
    ], ids=["mirror", "partition", "mediator"])
    def test_an_unknown_engine_is_refused_at_construction(self, build):
        with pytest.raises(PlanExecutionError, match="unknown executor 'bogus'"):
            build()
