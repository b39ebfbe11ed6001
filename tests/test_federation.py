"""Dynamic federation: eager removal, capability drift, the stale-plan
oracle, and the concurrent catalog-version race batteries."""

from __future__ import annotations

import random
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasiblePlanError, PlanExecutionError
from repro.mediator import Mediator
from repro.ssdl.builder import DescriptionBuilder
from repro.workloads.federation import (
    DriftingCatalog,
    DynamicFederationWorkload,
    oracle_ask,
)
from tests.conftest import make_example41_source

BMW = "SELECT model FROM {} WHERE make = 'BMW' and price < 40000"


@pytest.fixture
def served_mediator():
    """Two sources behind a plan cache, with cars2's plan hot."""
    mediator = Mediator(plan_cache_entries=64)
    mediator.add_source(make_example41_source("cars"))
    mediator.add_source(make_example41_source("cars2"))
    mediator.ask(BMW.format("cars2"))  # populate cache + template store
    mediator.ask(BMW.format("cars2"))
    assert mediator.plan_cache.stats.hits == 1
    return mediator


class TestRemoveSource:
    def test_removed_source_cannot_be_served_from_cache(self, served_mediator):
        """The regression the eager path exists for: a removed source
        must never be answerable from a cached plan."""
        served_mediator.remove_source("cars2")
        with pytest.raises(PlanExecutionError, match="unknown source"):
            served_mediator.ask(BMW.format("cars2"))

    def test_removed_source_cannot_be_template_rebound(self, served_mediator):
        """A constant-varying respelling (the template-rebind path) of a
        removed source's query must fail too, not rebind a stale plan."""
        served_mediator.remove_source("cars2")
        with pytest.raises(PlanExecutionError, match="unknown source"):
            served_mediator.ask(
                "SELECT model FROM cars2 "
                "WHERE make = 'Honda' and price < 20000"
            )

    def test_removal_is_eager(self, served_mediator):
        """Cache, template store and compiled grammars drop *now*, not
        lazily at next lookup."""
        source = served_mediator.remove_source("cars2")
        assert len(served_mediator.plan_cache) == 0
        assert len(served_mediator.plan_templates) == 0
        assert not source.description.compiled
        assert not source.capabilities_compiled

    def test_survivor_still_served(self, served_mediator):
        served_mediator.remove_source("cars2")
        assert served_mediator.ask(BMW.format("cars")).rows

    def test_unknown_source_raises(self, served_mediator):
        with pytest.raises(PlanExecutionError, match="unknown source"):
            served_mediator.remove_source("nope")

    def test_removed_source_can_rejoin(self, served_mediator):
        removed = served_mediator.remove_source("cars2")
        version = served_mediator.catalog_version
        served_mediator.add_source(removed)
        assert served_mediator.catalog_version > version
        assert served_mediator.ask(BMW.format("cars2")).rows

    def test_removal_bumps_version_and_counts(self, served_mediator):
        version = served_mediator.catalog_version
        served_mediator.remove_source("cars2")
        assert served_mediator.catalog_version == version + 1


class TestMutateSource:
    def test_post_drift_semantics(self):
        """After a mutation the *new* grammar governs immediately: a
        shape the old grammar supported becomes infeasible, a cached
        plan for it is never served."""
        mediator = Mediator(plan_cache_entries=64)
        mediator.add_source(make_example41_source("cars"))
        query = BMW.format("cars")
        assert mediator.ask(query).rows  # hot in the cache
        narrow = (
            DescriptionBuilder("narrowed")
            .rule("only_color", "color = $str",
                  attributes=["make", "model", "year", "color"])
            .build()
        )
        version = mediator.catalog_version
        mediator.mutate_source("cars", narrow)
        assert mediator.catalog_version == version + 1
        with pytest.raises(InfeasiblePlanError):
            mediator.ask(query)
        rows = mediator.ask(
            "SELECT model FROM cars WHERE color = 'red'").rows
        assert rows

    def test_mutation_recompiles_eagerly(self):
        mediator = Mediator()
        mediator.add_source(make_example41_source("cars"))
        narrow = (
            DescriptionBuilder("narrowed")
            .rule("only_make", "make = $str",
                  attributes=["make", "model"])
            .build()
        )
        source = mediator.mutate_source("cars", narrow)
        assert source.description is narrow
        assert source.compiled  # the *new* grammar is compiled


class TestOracle:
    def test_ok_and_infeasible(self):
        mediator = Mediator()
        mediator.add_source(make_example41_source("cars"))
        from repro.query import parse_query

        assert oracle_ask(mediator, parse_query(BMW.format("cars"))).kind \
            == "ok"
        infeasible = parse_query(
            "SELECT model FROM cars WHERE year = 1998")
        assert oracle_ask(mediator, infeasible).kind == "infeasible"

    def test_detects_backdated_plan(self):
        """The oracle itself must catch a plan stamped older than the
        ask's admission version (the bug it exists to find)."""
        from repro.query import parse_query

        query = parse_query(BMW.format("cars"))
        stub = SimpleNamespace(
            catalog_version=7,
            ask=lambda q: SimpleNamespace(
                planning=SimpleNamespace(catalog_version=6)),
        )
        outcome = oracle_ask(stub, query)
        assert outcome.kind == "stale"
        assert outcome.admitted_version == 7
        assert outcome.served_version == 6

    def test_detects_unstamped_plan(self):
        from repro.query import parse_query

        stub = SimpleNamespace(
            catalog_version=3,
            ask=lambda q: SimpleNamespace(
                planning=SimpleNamespace(catalog_version=None)),
        )
        assert oracle_ask(stub, parse_query(BMW.format("cars"))).kind \
            == "stale"


class TestDriftingCatalog:
    def test_seeded_drift_schedule_replays(self):
        logs = []
        for _ in range(2):
            mediator = Mediator(plan_cache_entries=32)
            catalog = DriftingCatalog(mediator, seed=23, n_rows=40)
            for _ in range(12):
                catalog.drift()
            logs.append([(kind, name) for kind, name, _ in catalog.events])
        assert logs[0] == logs[1]

    def test_removed_source_queries_dropped(self):
        mediator = Mediator()
        catalog = DriftingCatalog(mediator, seed=5, n_rows=40)
        name = catalog.remove_source()
        assert catalog.queries_for(name) == []
        assert name not in catalog.live_names()

    def test_run_seed_threads_fault_injectors(self):
        """Satellite: FaultInjector seeds derive from the run seed, so
        the same run seed gives bit-identical fault schedules."""
        draws = []
        for _ in range(2):
            mediator = Mediator()
            catalog = DriftingCatalog(mediator, seed=77, n_rows=30,
                                      fault_rate=0.5)
            name = catalog.live_names()[0]
            injector = mediator.source(name).fault_injector
            draws.append([
                type(injector.draw(name)).__name__ for _ in range(20)
            ])
        assert draws[0] == draws[1]


class TestScriptedDriftRaces:
    """The two harness races behind the 16-thread battery's flakes,
    each forced by scripting the interleaving instead of hoping the
    thread scheduler produces it."""

    def _pinned(self, mediator):
        # min == max sources: every drift event is a mutation.
        return DriftingCatalog(mediator, seed=5, n_rows=40,
                               initial_sources=3, min_sources=3,
                               max_sources=3)

    def test_mutation_that_loses_to_a_removal_is_a_lost_race(self):
        """Remove-then-mutate on one name: the drifter picked its
        target, a concurrent remover took it before the mediator call."""
        mediator = Mediator()
        catalog = self._pinned(mediator)
        mutate = mediator.mutate_source

        def removed_first(name, description, **options):
            catalog.remove_source(name)  # the other drifter wins
            return mutate(name, description, **options)

        mediator.mutate_source = removed_first
        assert catalog.drift() == "mutate"  # the drifter survives
        (removal, lost) = catalog.events[-2:]
        assert removal[0] == "remove"
        assert lost == ("mutate_lost_race", removal[1],
                        mediator.catalog_version)
        assert removal[1] not in mediator.catalog

    def test_other_mutation_failures_still_raise(self):
        mediator = Mediator()
        catalog = self._pinned(mediator)

        def broken(name, description, **options):
            raise PlanExecutionError("the mutation itself failed")

        mediator.mutate_source = broken
        with pytest.raises(PlanExecutionError, match="itself failed"):
            catalog.drift()

    def test_removal_between_pick_and_ask_is_not_stale(self):
        mediator = Mediator()
        catalog = DriftingCatalog(mediator, seed=5, n_rows=40)
        pick = catalog.pick_query

        def picked_then_removed(rng):
            query = pick(rng)
            catalog.remove_source(query.source)  # a drifter lands now
            return query

        catalog.pick_query = picked_then_removed
        admitted, query = catalog.admit(random.Random(0))
        outcome = oracle_ask(mediator, query, admitted)
        assert outcome.kind == "removed"
        assert mediator.catalog_version > admitted
        # Admitted *after* the pick, the same ask looked like a stale
        # serve at an unchanged version -- the misclassification fixed.
        assert oracle_ask(mediator, query).kind == "stale"

    def test_real_stale_serves_still_classify_stale(self):
        from repro.query import parse_query

        stub = SimpleNamespace(
            catalog_version=7,
            ask=lambda q: SimpleNamespace(
                planning=SimpleNamespace(catalog_version=6)),
        )
        query = parse_query(BMW.format("cars"))
        assert oracle_ask(stub, query, admitted=7).kind == "stale"


class TestDynamicFederationWorkload:
    def test_run_is_deterministic_and_stale_free(self):
        knobs = dict(seed=31, rounds=150, n_rows=60)
        first = DynamicFederationWorkload(**knobs).run()
        second = DynamicFederationWorkload(**knobs).run()
        assert first.summary == second.summary
        assert first.summary["stale_serves"] == 0
        assert first.summary["drift_events"] > 0
        assert first.summary["asks"] == 150

    def test_sixteen_thread_battery(self):
        """The tentpole oracle: 16 threads of concurrent asks and
        drift, zero stale serves (asserted inside the battery)."""
        out = DynamicFederationWorkload(seed=13, n_rows=50).battery(
            threads=16, drifts_per_driver=8)
        assert out["threads"] == 16
        assert out["stale_serves"] == 0
        assert out["asks"] > 0
        assert out["drift_events"] == 16


class TestVersionRaceBattery:
    """Hypothesis battery: under arbitrary seeded interleavings of
    add/drift/ask across threads, a served plan's catalog version
    always matches or postdates the ask's admission version."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_interleaved_drift_never_serves_stale(self, seed):
        mediator = Mediator(plan_cache_entries=32)
        catalog = DriftingCatalog(mediator, seed=seed, initial_sources=2,
                                  n_rows=30, max_sources=4)
        violations = []  # filled by workers, asserted on the main thread
        stop = threading.Event()

        def asker(slot: int) -> None:
            rng = random.Random(seed * 7 + slot)
            while not stop.is_set():
                admitted, query = catalog.admit(rng)
                if query is None:  # pragma: no cover - never empties
                    continue
                outcome = oracle_ask(mediator, query, admitted)
                if outcome.kind == "stale":
                    violations.append(outcome)
                elif outcome.kind == "ok" and (
                    outcome.served_version < outcome.admitted_version
                ):  # pragma: no cover - the oracle already flags this
                    violations.append(outcome)

        def drifter() -> None:
            try:
                for _ in range(4):
                    catalog.drift()
            finally:
                stop.set()

        threads = [threading.Thread(target=asker, args=(i,), daemon=True)
                   for i in range(2)]
        threads.append(threading.Thread(target=drifter, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert not violations, (
            f"stale serves under interleaving: {violations[:3]}"
        )
