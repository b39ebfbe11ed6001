"""The five ask-anatomy workloads: what each one feeds ``Mediator.ask``.

A workload is defined by three things that do **not** depend on
``--seed`` -- its capability grammars (``GRAMMAR_SEED``), the *shapes*
of its queries (``SHAPE_SEED``: tree structure, attributes, operators,
projection) and its mediator configuration -- and by four that do: the
rows of every relation, the constants bound into the shapes, the order
and popularity of requests, and the simulated round-trip draws.

Shapes are pinned because a run has time for roughly a thousand
planned asks, and the median planning time of a thousand *random*
trees moved by +-14 % between seeds on the 2-core sandbox (sampling
noise of a multi-modal distribution, not the program).  With the
shapes pinned the seed still changes every tuple, every constant and
every count, while timings from two seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.conditions.atoms import Atom, Op
from repro.conditions.simplify import is_definitely_unsatisfiable
from repro.conditions.tree import Condition, Leaf, Or
from repro.data.generate import generate_books
from repro.data.relation import Relation
from repro.planners.gencompact import GenCompact
from repro.plans.cost import CostModel
from repro.query import TargetQuery
from repro.source import library
from repro.source.faults import SimulatedLatency
from repro.source.source import CapabilitySource
from repro.ssdl.description import SourceDescription
from repro.workloads.synthetic import (
    WorldConfig,
    make_description,
    make_table,
    random_condition,
)

GRAMMAR_SEED = 42
SHAPE_SEED = 1999
#: Eq. 1's constants (the mediator's defaults).
K1, K2 = 100.0, 1.0
#: The seeds whose digests and counts are committed in ``golden.json``.
DEFAULT_SEEDS = (11, 1999)

#: Fresh descriptions for the five ``standard_catalog()`` sources (a
#: description object carries its Check cache and compiled form, so
#: every mediator stack needs its own).
LIBRARY_DESCRIPTIONS: dict[str, Callable[[], SourceDescription]] = {
    "bookstore": library.bookstore_description,
    "car_guide": library.car_guide_description,
    "bank": library.bank_description,
    "flights": library.flights_description,
    "classifieds": library.classifieds_description,
}


@dataclass(frozen=True)
class Workload:
    """The seed-independent part of a workload."""

    name: str
    why: str
    #: Asks per repetition whose counts (Eq. 1, feasibility, digests)
    #: must repeat exactly; a repetition never measures fewer.
    block: int
    rows: int
    mediator: dict = field(default_factory=dict)
    richness: float = 0.7
    download_prob: float = 0.15
    #: Atom counts of the shape pool, one entry per shape.
    atoms: tuple[int, ...] = ()
    #: Keep only shapes the default planner finds feasible.
    feasible_only: bool = True
    #: Constants are bound once per pool entry (a pool of *queries*)
    #: instead of per request (a pool of *shapes*).
    fixed_constants: bool = False
    #: Exponent of the Zipf popularity over the pool (0 = uniform).
    #: Which entry holds which rank -- and, for a pool of queries, which
    #: constants it carries -- is re-drawn every ``RERANK_EVERY``
    #: requests: with one ranking per run, the median ask is whatever
    #: the two or three most popular entries happen to cost.
    zipf: float = 0.0
    #: Walk the pool round-robin instead of drawing from it.
    sequential: bool = False
    #: Ask every pool entry once in set-up.
    warm_pool: bool = False
    #: ``mutate_source`` before every this-many-th ask (0 = never).
    drift_every: int = 0
    #: Richness the k-th mutation switches to, cycling.
    drift_cycle: tuple[float, ...] = ()
    #: (base, jitter) seconds of simulated round trip per source call.
    rtt: tuple[float, float] | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="plan_cold",
            why="500 distinct 3-6 atom trees, feasible or not, no plan cache: "
                "rewrite + Check + IPG/MCSC are the whole ask",
            block=500, rows=500, feasible_only=False, sequential=True,
            atoms=(3,) * 150 + (4,) * 150 + (5,) * 125 + (6,) * 75,
        ),
        Workload(
            name="tuple_heavy",
            why="64 warm 3-atom queries moving >= 2000 tuples each on the "
                "serial engine: source service and mediator-side operators "
                "are the whole ask",
            block=500, rows=2500, richness=0.5, download_prob=1.0,
            atoms=(3,) * 64, fixed_constants=True, warm_pool=True,
            mediator={"plan_cache_entries": 256},
        ),
        Workload(
            name="zipf_warm",
            why="48 shapes, Zipf(1.1), fresh constants per request: exact "
                "keys overflow the plan cache, templates fit - the serving "
                "floor of parse, key, rebind, small execute and glue",
            block=3000, rows=250, atoms=(3,) * 48, zipf=1.1, warm_pool=True,
            mediator={"plan_cache_entries": 256},
        ),
        Workload(
            name="fanout_rtt",
            why="k-author unions (k in 4,8,8,12) over a 5-7 ms round trip on "
                "the async engine: sleep-bound, only executor scheduling "
                "is left to save",
            block=500, rows=500, rtt=(0.005, 0.002),
            mediator={"executor": "async", "plan_cache_entries": 256},
        ),
        Workload(
            name="drift_mix",
            why="Zipf(1.1) over 100 4-atom queries with mutate_source every "
                "75 asks: closure + compile + re-planning beside reads",
            block=800, rows=500, atoms=(4,) * 100, fixed_constants=True,
            zipf=1.1, drift_every=75, drift_cycle=(0.9, 0.5, 0.7),
            mediator={"plan_cache_entries": 256},
        ),
    )
}

RERANK_EVERY = 100
_FANOUT_K = (4, 8, 8, 12)
_FANOUT_ATTRS = frozenset({"id", "title", "author"})


def _sub_seed(seed: int, label: str) -> int:
    return zlib.crc32(f"{seed}:{label}".encode())


#: Numeric constants come from this many evenly spaced values of the
#: column's range (people ask for round numbers), so constant vectors
#: repeat and the exact plan cache sees hits as well as evictions.
_GRID = 4


class _Constants:
    """Data-grounded constant draws: string columns Zipf over their
    values by frequency, numeric columns uniform over a grid of their
    range."""

    def __init__(self, relation: Relation):
        self._draw: dict[str, Callable[[random.Random], object]] = {}
        for name in relation.schema.attribute_names:
            column = [row[name] for row in relation]
            if isinstance(column[0], str):
                counts: dict[str, int] = {}
                for value in column:
                    counts[value] = counts.get(value, 0) + 1
                values = sorted(counts, key=lambda v: (-counts[v], v))
                cum = list(itertools.accumulate(
                    1.0 / (rank + 1) for rank in range(len(values))
                ))
                self._draw[name] = (
                    lambda rng, values=values, cum=cum:
                    rng.choices(values, cum_weights=cum)[0]
                )
            else:
                low, high = min(column), max(column)
                grid = sorted({low + (high - low) * (step + 1) // (_GRID + 1)
                               for step in range(_GRID)})
                self._draw[name] = lambda rng, grid=grid: rng.choice(grid)

    def _rebind(self, condition: Condition, rng: random.Random) -> Condition:
        if condition.is_leaf:
            atom = condition.atom
            return Leaf(Atom(atom.attribute, atom.op,
                             self._draw[atom.attribute](rng)))
        return type(condition)(
            [self._rebind(child, rng) for child in condition.children]
        )

    def bind(self, condition: Condition, rng: random.Random) -> Condition:
        """``condition`` with every constant re-drawn.  Contradictions
        (``a1 <= 66 and a1 >= 932``) are drawn again: the mediator
        answers them without planning, which is not what any workload
        here is for."""
        for _ in range(16):
            bound = self._rebind(condition, rng)
            if not is_definitely_unsatisfiable(bound):
                break
        return bound


class RecordingLatency(SimulatedLatency):
    """``SimulatedLatency`` that remembers every round trip it drew, so
    the harness knows how much of an ask was simulated sleep."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.draws: list[float] = []

    def draw(self) -> float:
        delay = super().draw()
        self.draws.append(delay)
        return delay


class World:
    """One workload's generated inputs for one seed.

    Relations, the pool and the request stream are immutable and shared;
    :meth:`sources` hands every mediator stack its own source and
    description objects.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.source_name = "shop" if workload.rtt else "world"
        if workload.rtt:
            self.relation = generate_books(workload.rows, seed)
        else:
            self.relation = make_table(WorldConfig(
                n_rows=workload.rows, seed=seed))
        self._catalog = {
            name: source.relation
            for name, source in library.standard_catalog(seed).items()
        }
        if set(self._catalog) != set(LIBRARY_DESCRIPTIONS):
            raise RuntimeError("standard_catalog() no longer matches "
                               "LIBRARY_DESCRIPTIONS")
        self._constants = _Constants(self.relation)
        self._authors = sorted(
            {row["author"] for row in self.relation}) if workload.rtt else []
        self._pool = self._build_pool()
        self.warmup = self._warmup()
        digest = hashlib.sha256()
        for query in itertools.chain(
                self.warmup,
                itertools.islice(self.requests(), workload.block)):
            digest.update(query.to_text().encode())
            digest.update(b"\n")
        #: SHA-256 of the warm-up pass and the fixed block of requests.
        self.pool_digest = digest.hexdigest()

    # -- capabilities ----------------------------------------------------
    def description(self, mutation: int = 0) -> SourceDescription:
        """A fresh description of the workload source after its
        ``mutation``-th capability drift (0 = as registered)."""
        workload = self.workload
        if workload.rtt:
            return library.bookstore_description()
        richness = workload.richness
        if mutation:
            cycle = workload.drift_cycle
            richness = cycle[(mutation - 1) % len(cycle)]
        return make_description(WorldConfig(
            richness=richness, download_prob=workload.download_prob,
            seed=GRAMMAR_SEED,
        ))

    def sources(
        self, source_cls: type[CapabilitySource] = CapabilitySource,
    ) -> list[CapabilitySource]:
        """Fresh sources: the workload's own, then the five library ones."""
        latency = None
        if self.workload.rtt:
            base, jitter = self.workload.rtt
            latency = RecordingLatency(
                seed=_sub_seed(self.seed, "rtt"), base=base, jitter=jitter)
        out = [source_cls(self.source_name, self.relation,
                          self.description(), latency=latency)]
        for name, relation in self._catalog.items():
            out.append(source_cls(name, relation,
                                  LIBRARY_DESCRIPTIONS[name]()))
        return out

    # -- the pool ----------------------------------------------------------
    def _build_pool(self) -> list[TargetQuery]:
        workload = self.workload
        if workload.rtt:
            return []
        config = WorldConfig(seed=GRAMMAR_SEED)
        rng = random.Random(_sub_seed(SHAPE_SEED, workload.name))
        others = [a for a in self.relation.schema.attribute_names
                  if a != "key"]
        scratch = CapabilitySource(
            self.source_name, self.relation, self.description())
        scratch.compile_capabilities()
        planner = GenCompact()
        cost_model = CostModel({self.source_name: scratch.stats}, K1, K2)
        bind_rng = random.Random(_sub_seed(self.seed, "pool"))
        sizes = list(workload.atoms)
        rng.shuffle(sizes)
        pool: list[TargetQuery] = []
        for n_atoms in sizes:
            while True:
                shape = random_condition(config, n_atoms, rng)
                attrs = frozenset(
                    ["key"] + rng.sample(others, rng.randint(1, 2)))
                query = TargetQuery(shape, attrs, self.source_name)
                if not workload.feasible_only or planner.plan(
                        query, scratch, cost_model).feasible:
                    break
            if workload.fixed_constants:
                query = self._rebind(query, bind_rng)
            pool.append(query)
        return pool

    def _warmup(self) -> list[TargetQuery]:
        rng = random.Random(_sub_seed(self.seed, "warmup"))
        if self.workload.rtt:
            return [self._fanout(k, rng) for k in sorted(set(_FANOUT_K))]
        if not self.workload.warm_pool:
            return []
        return [self._bound(query, rng) for query in self._pool]

    # -- requests ----------------------------------------------------------
    def _rebind(self, query: TargetQuery, rng: random.Random) -> TargetQuery:
        """``query`` with fresh constants."""
        return TargetQuery(
            self._constants.bind(query.condition, rng),
            query.attributes, query.source)

    def _bound(self, query: TargetQuery, rng: random.Random) -> TargetQuery:
        """The request a pool entry becomes (a pool of shapes gets its
        constants per request)."""
        if self.workload.fixed_constants:
            return query
        return self._rebind(query, rng)

    def _fanout(self, k: int, rng: random.Random) -> TargetQuery:
        chosen = rng.sample(self._authors, k)
        condition = Or([Leaf(Atom("author", Op.EQ, a)) for a in chosen])
        return TargetQuery(condition, _FANOUT_ATTRS, self.source_name)

    def requests(self) -> Iterator[TargetQuery]:
        """The request stream: endless, a pure function of the seed.
        The harness sends each query as text (``to_text()``) and keeps
        the object for the oracle."""
        workload = self.workload
        rng = random.Random(_sub_seed(self.seed, "requests"))
        if workload.rtt:
            while True:
                yield self._fanout(rng.choice(_FANOUT_K), rng)
        pool = self._pool
        if workload.sequential:
            for query in itertools.cycle(pool):
                yield self._bound(query, rng)
        cum = list(itertools.accumulate(
            1.0 / (rank + 1) ** workload.zipf for rank in range(len(pool))
        ))
        ranked = list(pool)
        while True:
            if workload.zipf:
                rng.shuffle(ranked)
                if workload.fixed_constants:
                    ranked = [self._rebind(query, rng) for query in ranked]
            for _ in range(RERANK_EVERY):
                yield self._bound(rng.choices(ranked, cum_weights=cum)[0], rng)
