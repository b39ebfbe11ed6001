"""Dynamic federation: sources join, leave and change capabilities mid-run.

The paper's sources are *autonomous* (Section 3) -- the mediator does
not control when a site appears, disappears, or redesigns its form.
Three layers of derived state must invalidate coherently when that
happens: the compiled token-trie recognizers, the exact canonical plan
cache, and the skeleton-keyed plan templates.  This module is the
scenario that proves they do.

:class:`DriftingCatalog` is a seeded driver around a
:class:`~repro.mediator.Mediator`: every drift event either registers a
fresh synthetic source, removes a live one (eagerly, via
:meth:`Mediator.remove_source`), or mutates a live one's SSDL grammar
in place (:meth:`Mediator.mutate_source`).  All randomness -- world
data, grammars, query pools, fault injectors, the drift schedule itself
-- derives from one run-level seed, so a drift run replays bit-for-bit.

:func:`oracle_ask` is the correctness oracle: it snapshots the catalog
version at admission, asks, and classifies the outcome.  **Post-drift
semantics** means the served plan's catalog version matches or
postdates the admission version (stale = served from an older catalog)
and a source-side capability rejection can only ever coincide with a
concurrent drift -- with a quiescent catalog, a plan the mediator just
validated must execute, so an enforcement rejection without a version
move is exactly the stale-compiled-recognizer bug the oracle exists to
catch.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass

from repro.errors import (
    InfeasiblePlanError,
    PlanExecutionError,
    QueryFixingError,
    TransientSourceError,
    UnsupportedQueryError,
)
from repro.mediator import Mediator
from repro.query import TargetQuery
from repro.source.faults import FaultInjector, SimulatedLatency
from repro.source.source import CapabilitySource
from repro.workloads.named import (
    Workload,
    WorkloadReport,
    derive_seed,
    register,
)
from repro.workloads.synthetic import (
    WorldConfig,
    make_description,
    make_queries,
    make_table,
)

#: Richness levels drift cycles through (capability drift is visible:
#: a mutation can both grow and shrink the supported query space).
_RICHNESS = (0.5, 0.7, 0.9)


@dataclass(frozen=True)
class AskOutcome:
    """One oracle-checked ask, classified.

    ``kind`` is one of ``ok`` / ``infeasible`` (a legitimate post-drift
    answer: the new grammar no longer supports the shape) / ``faulted``
    (injected transient fault) / ``removed`` (the source vanished
    between pick and ask -- only possible under concurrent drift) /
    ``raced_drift`` (the catalog moved mid-ask and execution hit the
    new world) / ``stale`` (the violation: a plan served or enforced
    against an older catalog than the ask was admitted under).
    """

    kind: str
    admitted_version: int
    served_version: int | None = None
    error: str | None = None


def oracle_ask(mediator: Mediator, query: TargetQuery,
               admitted: int | None = None) -> AskOutcome:
    """Ask with the drift oracle attached (see module docstring).

    ``admitted`` is the catalog version the ask was admitted under
    (default: read now).  A caller that *picks* its query from the
    live catalog must read it before the pick: a source removed
    between pick and ask has then moved the version, and the ask is
    classified ``removed`` rather than a ``stale`` serve.
    """
    if admitted is None:
        admitted = mediator.catalog_version
    try:
        answer = mediator.ask(query)
    except InfeasiblePlanError:
        return AskOutcome("infeasible", admitted)
    except TransientSourceError as exc:
        return AskOutcome("faulted", admitted, error=str(exc))
    except (UnsupportedQueryError, QueryFixingError) as exc:
        if mediator.catalog_version != admitted:
            return AskOutcome("raced_drift", admitted, error=str(exc))
        return AskOutcome("stale", admitted, error=str(exc))
    except PlanExecutionError as exc:
        if mediator.catalog_version != admitted:
            return AskOutcome("removed", admitted, error=str(exc))
        return AskOutcome("stale", admitted, error=str(exc))
    served = answer.planning.catalog_version
    if served is None or served < admitted:
        return AskOutcome("stale", admitted, served,
                          error="served plan predates admission version")
    return AskOutcome("ok", admitted, served)


class DriftingCatalog:
    """A seeded driver mutating a mediator's catalog mid-run.

    Thread-safe: the driver's RNG, query pools and event log are
    guarded by one lock, so concurrent drifter threads interleave
    cleanly while asker threads snapshot query pools without tearing.
    The *mediator* mutations themselves go through the public
    ``add_source`` / ``remove_source`` / ``mutate_source`` API -- the
    machinery under test.
    """

    def __init__(
        self,
        mediator: Mediator,
        seed: int,
        initial_sources: int = 3,
        min_sources: int = 1,
        max_sources: int = 8,
        n_attributes: int = 6,
        n_rows: int = 240,
        queries_per_source: int = 12,
        fault_rate: float = 0.0,
        latency_base: float = 0.0,
    ):
        self.mediator = mediator
        self.seed = seed
        self.min_sources = min_sources
        self.max_sources = max_sources
        self.n_attributes = n_attributes
        self.n_rows = n_rows
        self.queries_per_source = queries_per_source
        self.fault_rate = fault_rate
        self.latency_base = latency_base
        self._rng = random.Random(derive_seed(seed, "drift-schedule"))
        self._lock = threading.Lock()
        self._next_id = 0
        self._generations: dict[str, int] = {}
        #: Per-source query pools (queries of removed sources are
        #: dropped -- the driver never knowingly asks a dead source).
        self.queries: dict[str, list[TargetQuery]] = {}
        #: Deterministic drift log: (kind, source name, catalog version).
        self.events: list[tuple[str, str, int]] = []
        for _ in range(initial_sources):
            self.add_source()

    # ------------------------------------------------------------------
    def _world(self, label: str, richness: float) -> WorldConfig:
        return WorldConfig(
            n_attributes=self.n_attributes,
            n_rows=self.n_rows,
            richness=richness,
            download_prob=1.0,
            seed=derive_seed(self.seed, label),
        )

    def live_names(self) -> list[str]:
        with self._lock:
            return sorted(self.queries)

    def queries_for(self, name: str) -> list[TargetQuery]:
        """Snapshot of one source's query pool ([] once removed)."""
        with self._lock:
            return list(self.queries.get(name, ()))

    # -- the three drift kinds -----------------------------------------
    def add_source(self) -> str:
        with self._lock:
            source_id = self._next_id
            self._next_id += 1
            name = f"fed{source_id}"
            richness = self._rng.choice(_RICHNESS)
            config = self._world(f"world:{source_id}", richness)
            source = CapabilitySource(
                name, make_table(config), make_description(config)
            )
            if self.fault_rate > 0.0:
                source.fault_injector = FaultInjector(
                    seed=derive_seed(self.seed, f"faults:{name}"),
                    transient_rate=self.fault_rate,
                )
            if self.latency_base > 0.0:
                source.latency = SimulatedLatency(
                    seed=derive_seed(self.seed, f"latency:{name}"),
                    base=self.latency_base, real_sleep=False,
                )
            pool = make_queries(
                config, source, self.queries_per_source, n_atoms=3,
                seed=derive_seed(self.seed, f"queries:{source_id}"),
            )
            self._generations[name] = 0
        # Mediator mutation outside the driver lock: add_source compiles
        # grammars, and asker threads must not stall behind that.
        self.mediator.add_source(source)
        with self._lock:
            self.queries[name] = pool
            self.events.append(("add", name, self.mediator.catalog_version))
        return name

    def remove_source(self, name: str | None = None) -> str:
        with self._lock:
            if name is None:
                name = self._rng.choice(sorted(self.queries))
            self.queries.pop(name, None)
        self.mediator.remove_source(name)
        with self._lock:
            self.events.append(
                ("remove", name, self.mediator.catalog_version))
        return name

    def mutate_source(self, name: str | None = None) -> str:
        with self._lock:
            if name is None:
                name = self._rng.choice(sorted(self.queries))
            generation = self._generations[name] + 1
            self._generations[name] = generation
            richness = self._rng.choice(_RICHNESS)
            config = self._world(f"mutate:{name}:{generation}", richness)
        description = make_description(config)
        kind = "mutate"
        try:
            self.mediator.mutate_source(name, description)
        except PlanExecutionError:
            # A concurrent remove_source took the target between the
            # pick (under the lock) and this call: a lost race, not a
            # failure.  Mutators deliberately keep racing each other.
            if name in self.mediator.catalog:
                raise
            kind = "mutate_lost_race"
        with self._lock:
            self.events.append((kind, name, self.mediator.catalog_version))
        return name

    def drift(self) -> str:
        """One drift event; the kind is drawn from the seeded schedule
        (respecting the min/max source-count bounds).  Returns the kind."""
        with self._lock:
            live = len(self.queries)
            kinds = ["mutate"]
            if live > self.min_sources:
                kinds.append("remove")
            if live < self.max_sources:
                kinds.append("add")
            kind = self._rng.choice(kinds)
        if kind == "add":
            self.add_source()
        elif kind == "remove":
            self.remove_source()
        else:
            self.mutate_source()
        return kind

    # ------------------------------------------------------------------
    def pick_query(self, rng: random.Random) -> TargetQuery | None:
        """A query against a currently-live source, drawn with ``rng``
        (callers own their RNG so concurrent askers stay deterministic
        per-thread).  None when the catalog is momentarily empty."""
        with self._lock:
            if not self.queries:
                return None
            name = rng.choice(sorted(self.queries))
            return rng.choice(self.queries[name])

    def admit(self, rng: random.Random) -> tuple[int, TargetQuery | None]:
        """An asker's admission: the catalog version, read *before*
        :meth:`pick_query` -- so a source removed between the pick and
        the ask has moved the version the oracle compares against."""
        admitted = self.mediator.catalog_version
        return admitted, self.pick_query(rng)


@register
class DynamicFederationWorkload(Workload):
    """Interleaved asks and drift events with the stale-plan oracle."""

    name = "dynamic_federation"
    description = (
        "sources join/leave/mutate mid-run; oracle proves every ask "
        "sees post-drift semantics (no stale plan across versions)"
    )

    def __init__(
        self,
        seed: int = 1999,
        rounds: int = 320,
        drift_every: int = 8,
        initial_sources: int = 3,
        n_rows: int = 240,
        plan_cache_entries: int = 512,
        fault_rate: float = 0.0,
    ):
        super().__init__(seed)
        self.rounds = rounds
        self.drift_every = drift_every
        self.initial_sources = initial_sources
        self.n_rows = n_rows
        self.plan_cache_entries = plan_cache_entries
        self.fault_rate = fault_rate

    def _build(self, seed: int) -> tuple[Mediator, DriftingCatalog]:
        mediator = Mediator(plan_cache_entries=self.plan_cache_entries)
        catalog = DriftingCatalog(
            mediator, seed,
            initial_sources=self.initial_sources,
            n_rows=self.n_rows,
            fault_rate=self.fault_rate,
        )
        return mediator, catalog

    def run(self) -> WorkloadReport:
        mediator, catalog = self._build(self.seed)
        traffic = random.Random(derive_seed(self.seed, "traffic"))
        outcomes: Counter[str] = Counter()
        drift_kinds: Counter[str] = Counter()
        for round_index in range(self.rounds):
            if self.drift_every and (round_index + 1) % self.drift_every == 0:
                drift_kinds[catalog.drift()] += 1
            query = catalog.pick_query(traffic)
            if query is None:  # pragma: no cover - min_sources >= 1
                continue
            outcomes[oracle_ask(mediator, query).kind] += 1
        cache = mediator.plan_cache.stats
        total = cache.hits + cache.misses
        summary = {
            "rounds": self.rounds,
            "asks": sum(outcomes.values()),
            "ok": outcomes["ok"],
            "infeasible": outcomes["infeasible"],
            "faulted": outcomes["faulted"],
            "stale_serves": outcomes["stale"],
            "drift_events": sum(drift_kinds.values()),
            "drift_add": drift_kinds["add"],
            "drift_remove": drift_kinds["remove"],
            "drift_mutate": drift_kinds["mutate"],
            "catalog_version": mediator.catalog_version,
            "plan_cache_hits": cache.hits,
            "plan_cache_misses": cache.misses,
            "plan_cache_invalidations": cache.invalidations,
            "template_hits": mediator.plan_templates.hits,
            "hit_rate": round(cache.hits / total, 4) if total else 0.0,
            "drift_log_length": len(catalog.events),
        }
        return self._report(summary)

    # ------------------------------------------------------------------
    def battery(
        self,
        threads: int = 16,
        drifts_per_driver: int = 24,
        drivers: int = 2,
    ) -> dict:
        """16-thread concurrent drift oracle: asker threads hammer the
        mediator while drifter threads add/remove/mutate sources; every
        served plan's catalog version must match or postdate its ask's
        admission version -- zero stale serves, reconciled exactly."""
        mediator, catalog = self._build(derive_seed(self.seed, "battery"))
        outcomes: Counter[str] = Counter()
        outcome_lock = threading.Lock()
        stale: list[AskOutcome] = []
        stop = threading.Event()
        barrier = threading.Barrier(threads)
        askers = threads - drivers

        def ask_loop(slot: int) -> None:
            rng = random.Random(derive_seed(self.seed, f"asker:{slot}"))
            barrier.wait()
            while not stop.is_set():
                admitted, query = catalog.admit(rng)
                if query is None:  # pragma: no cover - catalog never empties
                    continue
                outcome = oracle_ask(mediator, query, admitted)
                with outcome_lock:
                    outcomes[outcome.kind] += 1
                    if outcome.kind == "stale":
                        stale.append(outcome)

        def drift_loop(slot: int) -> None:
            barrier.wait()
            try:
                for _ in range(drifts_per_driver):
                    kind = catalog.drift()
                    with outcome_lock:
                        outcomes[f"drift_{kind}"] += 1
            finally:
                # Last drifter out stops the askers.
                if stop_counter.release_one():
                    stop.set()

        class _Latch:
            def __init__(self, count: int):
                self._count = count
                self._lock = threading.Lock()

            def release_one(self) -> bool:
                with self._lock:
                    self._count -= 1
                    return self._count == 0

        stop_counter = _Latch(drivers)
        workers = [
            threading.Thread(target=ask_loop, args=(slot,), daemon=True,
                             name=f"fed-ask-{slot}")
            for slot in range(askers)
        ] + [
            threading.Thread(target=drift_loop, args=(slot,), daemon=True,
                             name=f"fed-drift-{slot}")
            for slot in range(drivers)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120.0)
            assert not worker.is_alive(), f"{worker.name} wedged"
        assert not stale, f"stale plan serves detected: {stale[:3]}"
        asks = sum(
            count for kind, count in outcomes.items()
            if not kind.startswith("drift_")
        )
        assert asks > 0
        drift_events = sum(
            count for kind, count in outcomes.items()
            if kind.startswith("drift_")
        )
        assert drift_events == drivers * drifts_per_driver
        return {
            "threads": threads,
            "asks": asks,
            "drift_events": drift_events,
            "stale_serves": len(stale),
            "outcomes": dict(sorted(outcomes.items())),
            "catalog_version": mediator.catalog_version,
        }
