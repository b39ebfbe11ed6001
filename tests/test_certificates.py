"""Certificates before search: a differential oracle, not examples.

The reference is the *same planner on an uncompiled copy of the same
source*: an uncompiled description has no signature table, so it never
certifies and takes the full rewrite + generate search (DESIGN.md,
"Certificates before search").  Against it:

* **certified ⇒ the reference is infeasible**, and the witness is a
  DNF term of the condition -- a minimal one holding the named atom
  when a per-atom witness proved it;
* **floor cut or floor stop ⇒ plan text and cost byte-identical** to
  the reference;
* every other run is untouched -- same plan, same cost, same counters;
* the term-cover floor equals a ``Check``-based cover of the minimal
  terms, and against a search with five times the rewrite budget no
  floor is above a plan's cost and no witness has a plan;
* descriptions that are uncompiled, incomplete (recursive lists) or
  asked a condition over the DNF budget never certify; over the
  binding budget there is no term-cover floor;
* verdicts do not depend on ``PYTHONHASHSEED``.

Batteries: seeded and hypothesis-drawn ``make_description`` grammars
(richness 0.3-0.9, with and without a download rule), the library
grammars on the golden corpus, a literal/mixed-type/``or`` grammar,
``or``-list and recursive grammars, and order-sensitive native grammars
under GenModular.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions.atoms import Atom, Op
from repro.conditions.normal_forms import dnf_terms
from repro.conditions.parser import parse_condition
from repro.conditions.tree import TRUE, And, Condition, Leaf, Or, conjunction
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import InfeasiblePlanError, ReproError
from repro.mediator import Mediator
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.trace import Tracer, use_tracer
from repro.planners import certificate as certificate_module
from repro.planners.base import PlannerStats, PlanningResult
from repro.planners.certificate import (
    FLOOR_SLACK,
    MAX_COVER_TERMS,
    MAX_TERMS,
    certify,
)
from repro.planners.gencompact import GenCompact
from repro.planners.genmodular import GenModular
from repro.planners.ipg import MAX_FANOUT
from repro.planners.mcsc import CoverCandidate, solve_dp
from repro.plans.cost import BottleneckCostModel, CostModel
from repro.plans.nodes import SourceQuery
from repro.plans.printer import to_paper_notation
from repro.query import TargetQuery
from repro.source import library
from repro.source.source import CapabilitySource
from repro.ssdl.commute import commutation_closure
from repro.ssdl.text import parse_ssdl
from repro.workloads.synthetic import (
    WorldConfig,
    make_description,
    make_table,
    random_condition,
)
from tests.test_golden_battery import CORPUS
from tests.test_planner_hot_path import _MIXED_CONDITIONS, _MIXED_SSDL

ROOT = pathlib.Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------

class Twins:
    """One relation behind two sources: ``compiled`` (what ships) and
    ``reference`` (never compiled, so it never certifies)."""

    def __init__(self, relation: Relation, describe, name: str = "w"):
        self.compiled = CapabilitySource(name, relation, describe())
        self.compiled.compile_capabilities()
        self.reference = CapabilitySource(name, relation, describe())
        self.cost_model = CostModel({name: self.compiled.stats})


def _holds_when_exactly(condition: Condition, true_atoms: set[Atom]) -> bool:
    if condition.is_true:
        return True
    if condition.is_leaf:
        return condition.atom in true_atoms
    combine = all if condition.is_and else any
    return combine(_holds_when_exactly(child, true_atoms)
                   for child in condition.children)


_COUNTERS = ("cts_processed", "subplans_considered", "check_calls",
             "recursive_calls", "mcsc_problems", "mcsc_sets", "pr1_fires",
             "pr2_fires", "pr3_fires", "rewrite_truncated")


def assert_matches_reference(planner, twins: Twins, query: TargetQuery,
                             cost_model=None) -> PlanningResult:
    """Plan on both twins and hold the shipped run to the reference."""
    cost_model = cost_model or twins.cost_model
    got = planner.plan(query, twins.compiled, cost_model)
    want = planner.plan(query, twins.reference, cost_model)
    assert (want.stats.certified_infeasible, want.stats.rewrite_skipped,
            want.witness) == (0, 0, None)
    assert got.feasible == want.feasible, query
    assert got.plan == want.plan, query
    assert to_paper_notation(got.plan) == to_paper_notation(want.plan)
    assert repr(got.cost) == repr(want.cost), query
    assert (want.stats.rewrite_stopped, want.witness_atom) == (0, None)
    stats = got.stats
    if stats.certified_infeasible:
        assert not want.feasible
        witness = got.witness
        atoms = set(witness.atoms())
        assert witness.is_true or witness.is_leaf or (
            witness.is_and and all(c.is_leaf for c in witness.children))
        assert atoms <= set(query.condition.atoms())
        assert _holds_when_exactly(query.condition, atoms)
        if got.witness_atom is None:
            assert (stats.cts_processed, stats.check_calls,
                    stats.subplans_considered, stats.recursive_calls) \
                == (0, 0, 0, 0)
        else:
            # A per-atom witness: after the original tree, nothing ran;
            # the witness is a minimal term holding the named atom.
            assert isinstance(planner, GenCompact)
            assert stats.cts_processed == 1 and not stats.rewrite_skipped
            assert got.witness_atom.atom in atoms
            assert not any(_holds_when_exactly(query.condition, atoms - {a})
                           for a in atoms)
    else:
        assert got.witness is None and got.witness_atom is None
        if stats.rewrite_skipped or stats.rewrite_stopped:
            # Cut or stopped at the floor: plan and cost are the
            # reference's (asserted above), on fewer CTs.
            assert isinstance(planner, GenCompact) and got.feasible
            if stats.rewrite_skipped:
                assert stats.cts_processed == 1 and not stats.rewrite_stopped
            else:
                # CTs visited, planned or skipped as commuted: the
                # reference plans the CTs past the floor the stop cuts.
                assert 1 < _visited(stats) < _visited(want.stats)
        else:
            for counter in _COUNTERS:
                assert getattr(stats, counter) == getattr(want.stats, counter)
    return got


def _visited(stats) -> int:
    return stats.cts_processed + stats.cts_commuted


@functools.lru_cache(maxsize=None)
def _world(seed: int) -> tuple[WorldConfig, Twins]:
    rng = random.Random(seed)
    config = WorldConfig(
        n_attributes=rng.choice((4, 6, 8)), n_rows=120,
        richness=rng.choice((0.3, 0.5, 0.7, 0.9)),
        download_prob=rng.choice((0.0, 0.0, 1.0)), seed=seed)
    return config, Twins(make_table(config), lambda: make_description(config))


def _world_query(config: WorldConfig, rng: random.Random,
                 max_atoms: int = 6) -> TargetQuery:
    others = [f"a{i}" for i in range(config.n_attributes)]
    return TargetQuery(
        random_condition(config, rng.randint(1, max_atoms), rng),
        frozenset(["key"] + rng.sample(others, rng.randint(1, 2))), "w")


# ----------------------------------------------------------------------
# 1. The signature table
# ----------------------------------------------------------------------

class TestSignatureTable:
    def test_world_grammar_dedupes_orders_and_parentheses(self):
        closed = commutation_closure(make_description(
            WorldConfig(richness=0.7, download_prob=0.15, seed=42)))
        report = closed.compile()
        assert (report.sequences, report.signatures, report.complete) \
            == (20, 12, True)
        table = closed.signatures
        assert len(table.signatures) == 12
        assert list(table.signatures) == sorted(table.signatures)
        # A commuted rule and its native spelling are one signature.
        native = make_description(
            WorldConfig(richness=0.7, download_prob=0.15, seed=42))
        native.compile()
        assert [s[:2] for s in native.signatures.signatures] \
            == [s[:2] for s in table.signatures]

    def test_uncompiled_over_budget_and_recursive_have_no_table(self):
        description = library.bookstore_description()
        assert description.signatures is None  # not compiled yet
        assert description.compile().complete
        assert description.signatures is not None
        description.invalidate_compiled()
        assert description.signatures is None
        assert not description.compile(max_sequences=2).compiled
        assert description.signatures is None
        # ``size_list`` recurses: sentences were dropped at the horizon.
        cars = library.car_guide_description()
        report = cars.compile()
        assert report.compiled and not report.complete
        assert report.signatures == 0 and cars.signatures is None
        # A horizon too tight for a finite grammar is incomplete too.
        assert not library.bookstore_description().compile(
            max_tokens=2).complete

    def test_true_arrives_alone_and_literals_keep_their_constant(self):
        description = parse_ssdl(_MIXED_SSDL, name="mixed")
        assert description.compile().complete
        table = description.signatures
        by_templates = {
            (tuple(str(table.templates[i]) for i in s.templates), s.has_or):
                s.nonterminals
            for s in table.signatures}
        # ``true`` alone is the download sentence; ``( ... ) and true``
        # (s4 over s3's ``true`` alternative) matches nothing: dropped.
        assert by_templates[((), False)] == {"s3"}
        assert (("style = 'sedan'", "price < $num"), False) in by_templates
        assert (("flag = $bool", "size in $list"), True) in by_templates
        assert not any("true" in names for names, _ in by_templates)
        masks = table.matching([
            Atom("style", Op.EQ, "sedan"), Atom("style", Op.EQ, "coupe"),
            Atom("code", Op.EQ, 7.0), Atom("flag", Op.EQ, 1),
            Atom("rank", Op.EQ, True)])
        matched = {str(table.templates[i]): mask
                   for i, mask in enumerate(masks) if mask}
        assert matched == {"style = 'sedan'": 0b00001, "code = 7": 0b00100,
                           "rank = 1": 0b10000}

    def test_repeated_templates_stay_a_multiset(self):
        description = parse_ssdl(
            "s -> s1\ns1 -> a = $str or a = $str | "
            "a = $str or a = $str or a = $str\nattributes s1 : a",
            name="orlist")
        assert description.compile().complete
        assert [(s.templates, s.has_or)
                for s in description.signatures.signatures] \
            == [((0, 0), True), ((0, 0, 0), True)]


# ----------------------------------------------------------------------
# 2. Differential batteries over random grammars
# ----------------------------------------------------------------------

def _seeded_battery(planner, grammars: range, per_grammar: int,
                    max_atoms: int = 6) -> tuple[PlannerStats, int]:
    """The runs' merged counters, and how many a per-atom witness cut."""
    total, by_atom = PlannerStats(), 0
    for seed in grammars:
        config, twins = _world(seed)
        rng = random.Random(seed * 31 + 7)
        for _ in range(per_grammar):
            query = _world_query(config, rng, max_atoms)
            got = assert_matches_reference(planner, twins, query)
            total.merge(got.stats)
            by_atom += got.witness_atom is not None
    return total, by_atom


def test_gencompact_matches_the_reference_on_seeded_grammars():
    total, by_atom = _seeded_battery(GenCompact(), range(100, 116), 30)
    # The battery is not vacuous: every cut fires, often.
    assert total.certified_infeasible - by_atom > 120
    assert by_atom > 10
    assert total.rewrite_skipped > 100


def test_floor_stops_match_the_reference():
    """A stop needs a first plan above the floor and a later CT that
    meets it -- rare in these 120-row worlds: two of these 600 asks."""
    total, _ = _seeded_battery(GenCompact(), range(120, 140), 30)
    assert total.rewrite_stopped >= 2


def test_genmodular_matches_the_reference_on_native_grammars():
    """GenModular plans against the *native*, order-sensitive grammar;
    the signatures forget order, so they certify there too -- and the
    floor and the per-atom witness never apply."""
    total, by_atom = _seeded_battery(
        GenModular(max_rewrites=25), range(200, 208), 15, max_atoms=4)
    assert total.certified_infeasible > 25
    assert (total.rewrite_skipped, total.rewrite_stopped, by_atom) \
        == (0, 0, 0)
    closed, _ = _seeded_battery(
        GenModular(max_rewrites=15, use_closed_description=True),
        range(208, 211), 10, max_atoms=4)
    assert closed.certified_infeasible > 5


@given(st.integers(300, 340), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_gencompact_matches_the_reference_hypothesis(world_seed, query_seed):
    config, twins = _world(world_seed)
    query = _world_query(config, random.Random(query_seed))
    assert_matches_reference(GenCompact(), twins, query)


@pytest.mark.parametrize("planner", [
    GenCompact(pr1=False), GenCompact(pr2=False, pr3=False),
    GenCompact(mcsc_solver="greedy"), GenCompact(max_rewrites=5),
], ids=lambda p: f"{p.name}-{p.mcsc_solver}-{p.max_rewrites}")
def test_ablated_gencompact_matches_its_own_reference(planner):
    total, _ = _seeded_battery(planner, range(400, 404), 15, max_atoms=5)
    assert total.certified_infeasible and total.rewrite_skipped


class _SurchargedCostModel(CostModel):
    """Additive still, but prices a source query its own way -- and says
    nothing about a floor."""

    def source_query_cost(self, query):
        return 3.0 + super().source_query_cost(query)


@pytest.mark.parametrize("model_class", [
    BottleneckCostModel, _SurchargedCostModel])
def test_a_model_vouching_for_no_floor_never_cuts(model_class):
    """The floor is the cost model's to give
    (``CostModel.source_query_floor``), and a model that combines or
    prices source queries its own way -- the bottleneck model's max, an
    overridden ``source_query_cost`` -- gives none until it states one:
    the search always runs to the end, neither skipped nor stopped.
    Certificates and witnesses do not depend on cost."""
    cut = certified = 0
    for seed in range(500, 504):
        config, twins = _world(seed)
        model = model_class({"w": twins.compiled.stats})
        assert model.source_query_floor("w", 0.5) is None
        rng = random.Random(seed)
        for _ in range(12):
            got = assert_matches_reference(
                GenCompact(), twins, _world_query(config, rng, 5), model)
            cut += got.stats.rewrite_skipped + got.stats.rewrite_stopped
            certified += got.stats.certified_infeasible
    assert cut == 0 and certified > 0


def check_reference_floor(query: TargetQuery, source: CapabilitySource,
                          cost_model: CostModel) -> tuple[float | None, int]:
    """The term-cover floor the slow way, and the minimal terms it
    covers: ``Check`` every atom subset of every minimal DNF term, price
    each accepted one by Eq. 1, cover the terms exactly."""
    terms = {frozenset(term) for term in dnf_terms(query.condition) or [[]]}
    terms = [term for term in terms if not any(o < term for o in terms)]
    stats = cost_model.stats[source.name]
    cheapest: dict[frozenset[int], float] = {}
    for term in terms:
        for size in range(len(term) + 1):
            for atoms in combinations(sorted(term, key=str), size):
                condition = conjunction(list(atoms))
                if not source.closed_description.check(condition).supports(
                        query.attributes):
                    continue
                hit = frozenset(index for index, other in enumerate(terms)
                                if other >= set(atoms))
                cost = cost_model.source_query_floor(
                    source.name, stats.selectivity(condition))
                cheapest[hit] = min(cost, cheapest.get(hit, math.inf))
    cover = solve_dp(len(terms), [CoverCandidate(hit, cost, None)
                                  for hit, cost in cheapest.items()])
    return (None if cover is None else cover.cost), len(terms)


def _cover_floor(query: TargetQuery, twins: Twins, cost_model=None):
    """The compiled twin's certificate and its term-cover floor."""
    cost_model = cost_model or twins.cost_model
    certificate = certify(query, twins.compiled.closed_description)
    return certificate, certificate.cover_floor(
        cost_model.stats["w"],
        functools.partial(cost_model.source_query_floor, "w"))


def test_the_term_cover_floor_is_the_check_based_cover():
    """From the signatures, without one ``Check``: the same number as
    asking ``Check`` of every subset of every minimal term (on the
    uncompiled twin, i.e. the Earley recognizer)."""
    compared = 0
    for seed in range(100, 116):
        config, twins = _world(seed)
        rng = random.Random(seed * 17 + 3)
        for _ in range(20):
            query = _world_query(config, rng)
            want, n_terms = check_reference_floor(
                query, twins.reference, twins.cost_model)
            if n_terms > MAX_COVER_TERMS:
                continue
            _, got = _cover_floor(query, twins)
            assert (got is None) == (want is None), query
            if got is not None:
                assert math.isclose(got, want, rel_tol=1e-12), query
                compared += 1
    assert compared > 150


@given(st.integers(300, 340), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_floor_and_witness_hold_against_a_wider_search(world_seed,
                                                      query_seed):
    """At <= 4 atoms, against GenCompact with five times the rewrite
    budget on the uncompiled twin: no floor is above the cost of the
    plan it finds, and no per-atom witness is of a query it can plan."""
    config, twins = _world(world_seed)
    query = _world_query(config, random.Random(query_seed), max_atoms=4)
    wide = GenCompact(max_rewrites=200, max_rewrite_steps=20_000)
    want = wide.plan(query, twins.reference, twins.cost_model)
    certificate, floor = _cover_floor(query, twins)
    if certificate.witness is not None or certificate.refute_by_atom():
        assert not want.feasible
    elif want.feasible:
        assert floor is not None
        assert floor <= want.cost * (1.0 + FLOOR_SLACK)


def test_the_floor_is_eq1_at_the_least_selectivity():
    """One spelling of Eq. 1: the floor of a selectivity is what a
    source query selecting exactly that share costs."""
    config, twins = _world(100)
    stats = twins.compiled.stats
    model = CostModel({"w": stats}, per_source={"w": (7.0, 0.25)})
    atom = random_condition(config, 1, random.Random(3))
    assert model.source_query_floor("w", stats.selectivity(atom)) \
        == model.source_query_cost(SourceQuery(atom, frozenset({"key"}), "w"))


# ----------------------------------------------------------------------
# 3. Library grammars, literals, mixed-type constants, lists
# ----------------------------------------------------------------------

_LIBRARY = {
    "bookstore": library.bookstore_description,
    "car_guide": library.car_guide_description,
    "bank": library.bank_description,
    "flights": library.flights_description,
    "classifieds": library.classifieds_description,
}


@pytest.fixture(scope="module")
def library_twins():
    catalog = library.standard_catalog(seed=1999)
    return {name: Twins(catalog[name].relation, describe, name)
            for name, describe in _LIBRARY.items()}


@pytest.mark.parametrize("source_name,attrs,text", CORPUS)
def test_golden_corpus_matches_the_reference(
        library_twins, source_name, attrs, text):
    twins = library_twins[source_name]
    condition = parse_condition(text)
    query = TargetQuery(condition, frozenset(attrs), source_name)
    assert assert_matches_reference(GenCompact(), twins, query).feasible
    assert_matches_reference(GenModular(max_rewrites=40), twins, query)
    # Asking for what no rule exports is infeasible on every source;
    # only the recursive ``car_guide`` grammar cannot say so up front.
    schema = twins.compiled.schema.attribute_names
    unexported = [a for a in schema
                  if a not in twins.compiled.description.all_attributes()]
    if unexported:
        got = assert_matches_reference(
            GenCompact(), twins,
            TargetQuery(condition, frozenset(unexported[:1]), source_name))
        assert not got.feasible
        assert got.stats.certified_infeasible == (source_name != "car_guide")


def test_recursive_grammars_never_certify(library_twins):
    twins = library_twins["car_guide"]
    assert twins.compiled.compiled
    assert twins.compiled.closed_description.signatures is None
    rng = random.Random(9)
    makes = ["BMW", "Ford", "Honda", "Toyota"]
    for _ in range(12):
        leaves = [
            Leaf(Atom("make", Op.EQ, rng.choice(makes))),
            Leaf(Atom("price", Op.LE, rng.randrange(8000, 30000, 1000))),
            Leaf(Atom("mileage", Op.LE, 50000)),   # no rule takes it
            Leaf(Atom("size", Op.EQ, "compact")),
        ]
        rng.shuffle(leaves)
        condition = And([leaves[0], Or(leaves[1:3])]) if rng.random() < .5 \
            else Or([leaves[0], And(leaves[1:3])])
        got = assert_matches_reference(
            GenCompact(), twins,
            TargetQuery(condition, frozenset({"id", "model"}), "car_guide"))
        assert (got.stats.certified_infeasible, got.stats.rewrite_skipped) \
            == (0, 0)


_MIXED_VALUES = {
    "style": ["sedan", "coupe"], "price": [3.5, 7, 8, 20],
    "flag": [True, False], "size": ["compact", "midsize"],
    "code": [7, "x", 8], "rank": [1, 2], "name": ["art", "x", "sedan"],
    "zip": ["x", "coupe"],
}


@pytest.fixture(scope="module")
def mixed_twins():
    rng = random.Random(4)
    schema = Schema.of("mixed", list(_MIXED_VALUES))
    rows = [{name: rng.choice(values)
             for name, values in _MIXED_VALUES.items()} for _ in range(60)]
    return Twins(Relation(schema, rows, validate=False),
                 lambda: parse_ssdl(_MIXED_SSDL, name="mixed"), "mixed")


@given(_MIXED_CONDITIONS, st.sampled_from([
    ("code",), ("style", "price"), ("flag", "size"), ("code", "name"),
    ("style",), ("zip",)]))
@settings(max_examples=150, deadline=None)
def test_literal_or_and_mixed_type_templates(mixed_twins, condition, attrs):
    """``style = 'sedan'`` literals, an ``or`` rule, a download rule and
    the near-miss constants of the PR 15 bug class (7 / 7.0 / True / 1)."""
    assert_matches_reference(
        GenCompact(), mixed_twins,
        TargetQuery(condition, frozenset(attrs), "mixed"))


def test_typed_constants_are_certified_apart():
    """``id = true`` is not ``id = 1``: ``$num`` admits no bool, and the
    atoms are different propositions to the certificate, in either
    order and with or without a plan cache."""
    for first, second in (("true", "1"), ("1", "true")):
        for cache in (None, 64):
            mediator = Mediator(plan_cache_entries=cache)
            for source in library.standard_catalog().values():
                mediator.add_source(source)
            for constant in (first, second):
                sql = f"SELECT model FROM car_guide WHERE id = {constant}"
                if constant == "1":
                    assert mediator.ask(sql).planning.feasible
                else:
                    with pytest.raises(InfeasiblePlanError):
                        mediator.ask(sql)
    description = parse_ssdl(
        "s -> s1\ns1 -> id = $num\nattributes s1 : id, model", name="ids")
    description.compile()
    mixed = Or([Leaf(Atom("id", Op.EQ, True)), Leaf(Atom("id", Op.EQ, 1))])
    certificate = certify(
        TargetQuery(mixed, frozenset({"model"}), "ids"), description)
    assert certificate.witness == Leaf(Atom("id", Op.EQ, True))
    assert certify(
        TargetQuery(Leaf(Atom("id", Op.EQ, 1)), frozenset({"model"}), "ids"),
        description).witness is None


def test_or_lists_certify_only_when_they_are_finite():
    schema = Schema.of("sizes", ["id", "size", "make"])
    rows = [{"id": i, "size": s, "make": m} for i, (s, m) in enumerate(
        [("compact", "BMW"), ("midsize", "Ford"), ("fullsize", "BMW")] * 5)]
    relation = Relation(schema, rows, validate=False)
    finite = ("s -> s1\ns1 -> size = $str | size = $str or size = $str | "
              "size = $str or size = $str or size = $str\n"
              "attributes s1 : id, size")
    recursive = ("s -> s1\ns1 -> size = $str | list\n"
                 "list -> size = $str or size = $str | size = $str or list\n"
                 "attributes s1 : id, size")
    single = "s -> s1\ns1 -> size = $str\nattributes s1 : id, size"
    sizes = [Leaf(Atom("size", Op.EQ, s))
             for s in ("compact", "midsize", "fullsize", "van")]
    bmw = Leaf(Atom("make", Op.EQ, "BMW"))
    queries = [
        TargetQuery(Or(sizes[:3]), frozenset({"id"}), "sizes"),
        TargetQuery(Or(sizes), frozenset({"id"}), "sizes"),
        TargetQuery(Or([sizes[0], bmw]), frozenset({"id"}), "sizes"),
        TargetQuery(And([Or(sizes[:2]), bmw]), frozenset({"id"}), "sizes"),
        TargetQuery(Or(sizes[:2]), frozenset({"id", "make"}), "sizes"),
    ]
    certified, by_atom = {}, {}
    for label, text in (("finite", finite), ("recursive", recursive),
                        ("single", single)):
        twins = Twins(relation, lambda: parse_ssdl(text, name=label), "sizes")
        results = [assert_matches_reference(GenCompact(), twins, query)
                   for query in queries]
        certified[label] = [r.stats.certified_infeasible for r in results]
        by_atom[label] = [str(r.witness_atom) for r in results
                          if r.witness_atom is not None]
        assert [r.feasible for r in results] == [True, True, False, False,
                                                 False]
    # The fourth: each of its terms holds a ``size`` atom the form
    # takes, so the up-front certificate misses it; ``make`` can be
    # neither asked nor exported for filtering, which the per-atom
    # witness proves -- but only without the ``or`` rules, a query of
    # which can hold without ``make``.
    assert certified == {"finite": [0, 0, 1, 0, 1],
                         "recursive": [0, 0, 0, 0, 0],
                         "single": [0, 0, 1, 1, 1]}
    assert by_atom == {"finite": [], "recursive": [],
                       "single": ["make = 'BMW'"]}


# ----------------------------------------------------------------------
# 4. Budgets and edges
# ----------------------------------------------------------------------

def _wide_query(config: WorldConfig, clauses: int) -> TargetQuery:
    """An AND of ``clauses`` two-way ORs: 2**clauses DNF terms."""
    rng = random.Random(clauses)
    leaves = [Leaf(Atom(f"a{1 + 2 * (i % 2)}", Op.LE, 10 * i + rng.randrange(9)))
              for i in range(2 * clauses)]
    return TargetQuery(
        And([Or(leaves[2 * i:2 * i + 2]) for i in range(clauses)]),
        frozenset({"key", "a0"}), "w")


def test_dnf_budget_overflow_takes_the_search():
    """Over ``MAX_TERMS`` DNF terms there is no certificate at all --
    neither cut -- and the result is the reference's."""
    config = WorldConfig(n_attributes=4, n_rows=60, richness=0.3,
                         download_prob=0.0, seed=77)
    twins = Twins(make_table(config), lambda: make_description(config))
    description = twins.compiled.closed_description
    assert 2 ** 8 == MAX_TERMS
    within, beyond = _wide_query(config, 8), _wide_query(config, 9)
    assert certify(within, description) is not None
    assert certify(beyond, description) is None
    planner = GenCompact(max_rewrites=3)
    started = time.perf_counter()
    got = assert_matches_reference(planner, twins, beyond)
    assert (got.stats.certified_infeasible, got.stats.rewrite_skipped,
            got.stats.rewrite_stopped, got.witness_atom) == (0, 0, 0, None)
    assert_matches_reference(planner, twins, within)
    # Past MAX_COVER_TERMS minimal terms the floor is the cheapest
    # hitter of the costliest term (here of ``a3 <= $num``, which the
    # form takes); planning against it still matches.
    sixteen = TargetQuery(And([
        Or([Leaf(Atom("a3", Op.LE, 100 * i + 10 * j)) for j in (1, 2)])
        for i in range(4)]), frozenset({"key"}), "w")
    certificate, floor = _cover_floor(sixteen, twins)
    assert len(certificate._minimal_terms()) == 16 > MAX_COVER_TERMS
    assert floor is not None
    assert assert_matches_reference(GenCompact(), twins, sixteen).feasible
    assert time.perf_counter() - started < 60


def test_binding_budget_overflow_takes_todays_search(monkeypatch):
    """Over ``MAX_BINDINGS`` there is no term-cover floor: the first plan
    is held to the least-selectivity floor alone and, missing it, the
    closure is planned to its end, as before."""
    monkeypatch.setattr(certificate_module, "MAX_BINDINGS", 0)
    started = time.perf_counter()
    total, by_atom = _seeded_battery(GenCompact(), range(100, 104), 20)
    assert total.rewrite_stopped == 0 and total.rewrite_skipped > 0
    # The per-atom witness enumerates no binding and keeps working.
    assert by_atom > 0
    config, twins = _world(100)
    rng = random.Random(5)
    floors = [_cover_floor(_world_query(config, rng), twins)[1]
              for _ in range(20)]
    assert floors == [None] * 20
    assert time.perf_counter() - started < 60


def test_a_certified_query_no_longer_reaches_the_fanout_guard():
    """The one behaviour edge: IPG refuses connectors wider than
    ``MAX_FANOUT`` with a ``ReproError``; a query the signatures prove
    infeasible is answered before IPG ever sees its fanout."""
    config = WorldConfig(n_attributes=6, n_rows=60, richness=0.5,
                         download_prob=0.0, seed=42)
    twins = Twins(make_table(config), lambda: make_description(config))
    unmatched = Leaf(Atom("a9", Op.EQ, "nowhere"))
    wide = Or([unmatched] + [
        Leaf(Atom("a1", Op.LE, 10 * i)) for i in range(MAX_FANOUT)])
    query = TargetQuery(wide, frozenset({"key"}), "w")
    with pytest.raises(ReproError, match="fanout"):
        GenCompact().plan(query, twins.reference, twins.cost_model)
    result = GenCompact().plan(query, twins.compiled, twins.cost_model)
    assert not result.feasible and result.witness == unmatched


def test_true_is_feasible_exactly_when_the_source_allows_download():
    for download, seed in ((1.0, 601), (0.0, 602)):
        config = WorldConfig(n_attributes=4, n_rows=40, richness=0.5,
                             download_prob=download, seed=seed)
        twins = Twins(make_table(config), lambda: make_description(config))
        got = assert_matches_reference(
            GenCompact(), twins, TargetQuery(TRUE, frozenset({"key"}), "w"))
        assert got.feasible == bool(download)
        if not download:
            assert got.witness is TRUE


# ----------------------------------------------------------------------
# 5. Verdicts do not depend on the hash seed
# ----------------------------------------------------------------------

def verdict_digest() -> str:
    """SHA-256 over every verdict of a fixed battery: whether the run was
    certified (and its witness and atom), whether the floor cut or
    stopped it, and after how many CTs."""
    digest = hashlib.sha256()
    for seed in range(700, 706):
        config, twins = _world(seed)
        rng = random.Random(seed)
        for _ in range(25):
            query = _world_query(config, rng)
            result = GenCompact().plan(query, twins.compiled,
                                       twins.cost_model)
            stats = result.stats
            digest.update(repr((
                str(query), stats.certified_infeasible,
                stats.rewrite_skipped, stats.rewrite_stopped,
                stats.cts_processed, str(result.witness),
                str(result.witness_atom),
            )).encode())
    return digest.hexdigest()


def test_verdicts_are_identical_under_hash_seeds_0_and_1():
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
        done = subprocess.run(
            [sys.executable, "-c",
             "from tests.test_certificates import verdict_digest; "
             "print(verdict_digest())"],
            cwd=ROOT, env=env, text=True, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1


# ----------------------------------------------------------------------
# 6. An infeasible ask says why
# ----------------------------------------------------------------------

class TestAnInfeasibleAskSaysWhy:
    SQL = ("SELECT title, author FROM bookstore "
           "WHERE title contains 'dreams' "
           "or (price <= 400 and id >= 7)")
    WHY = ("no query the source's form accepts can return rows matching "
           "`price <= 400 and id >= 7` with {author, title}")

    @pytest.fixture
    def mediator(self):
        mediator = Mediator()
        for source in library.standard_catalog().values():
            mediator.add_source(source)
        return mediator

    def test_error_message_witness_and_explain(self, mediator):
        with pytest.raises(InfeasiblePlanError) as raised:
            mediator.ask(self.SQL)
        assert raised.value.witness == parse_condition(
            "price <= 400 and id >= 7")
        assert str(raised.value).endswith(": " + self.WHY)
        planning = mediator.plan(self.SQL)
        assert planning.witness == raised.value.witness
        assert planning.why_infeasible() == self.WHY
        assert mediator.explain(self.SQL) == (
            "[GenCompact] INFEASIBLE: ∅ -- " + self.WHY)

    def test_an_uncertified_infeasible_ask_keeps_the_old_message(self):
        source = library.bookstore()
        # An exhausted budget leaves the source on Earley: no certificate.
        source.compile_capabilities(max_sequences=1)
        mediator = Mediator()
        mediator.add_source(source)
        with pytest.raises(InfeasiblePlanError) as raised:
            mediator.ask(self.SQL)
        assert raised.value.witness is None
        assert str(raised.value).endswith("of source 'bookstore'")
        assert mediator.explain(self.SQL) == "[GenCompact] INFEASIBLE: ∅"

    def test_span_attributes_and_registry_counters(self, mediator):
        feasible = ("SELECT title FROM bookstore WHERE author = 'Carl Jung' "
                    "and title contains 'dreams'")
        registry = MetricsRegistry()
        with use_metrics(registry), use_tracer(Tracer()) as tracer:
            infeasible = mediator.plan(self.SQL)
            cut = mediator.plan(feasible)
        assert (infeasible.stats.certified_infeasible,
                infeasible.stats.rewrite_skipped) == (1, 0)
        assert (cut.stats.certified_infeasible,
                cut.stats.rewrite_skipped, cut.stats.cts_processed) \
            == (0, 1, 1)
        assert registry.counter("planner.certified_infeasible").value == 1
        assert registry.counter("planner.rewrite_skipped").value == 1
        first, second = [s for s in tracer.finished_spans()
                         if s.name == "planner.plan"]
        assert (first.attributes["certified_infeasible"],
                first.attributes["rewrite_skipped"],
                first.attributes["feasible"],
                first.attributes["check_calls"]) == (1, 0, False, 0)
        assert (second.attributes["certified_infeasible"],
                second.attributes["rewrite_skipped"],
                second.attributes["feasible"]) == (0, 1, True)
        (skipped,) = [s for s in tracer.finished_spans()
                      if s.name == "planner.rewrite"]
        # The floor a cut plan met is its own cost (a floor is sound).
        assert skipped.attributes == {
            "trees": 1, "budget_spent": 0, "truncated": False,
            "cut": "skipped", "floor": pytest.approx(cut.cost, rel=1e-9)}
        # Certificates issue no Check: the description-side identity of
        # compiled descriptions keeps holding.
        description = mediator.source("bookstore").closed_description
        assert description.check_calls == (
            description.check_compiled + description.check_fallbacks
            + description.check_prefiltered)

    def test_a_per_atom_witness_names_the_atom(self, mediator):
        """Section 4's bank: a balance needs the PIN form.  Every term of
        the query holds ``branch``, which a form takes, so the up-front
        certificate passes it; once the original tree has no plan, the
        per-atom witness names the balance bound, which no form takes
        and the branch form does not export for filtering."""
        sql = ("SELECT owner FROM bank "
               "WHERE branch = 'downtown' and balance >= 5000")
        why = ("no query the source's form accepts can return rows matching "
               "`branch = 'downtown' and balance >= 5000` with {owner}: "
               "`balance >= 5000` can be neither pushed to the source nor "
               "filtered at the mediator")
        with pytest.raises(InfeasiblePlanError) as raised:
            mediator.ask(sql)
        assert str(raised.value).endswith(": " + why)
        assert raised.value.witness == parse_condition(
            "branch = 'downtown' and balance >= 5000")
        with use_tracer(Tracer()) as tracer:
            planning = mediator.plan(sql)
        assert planning.witness_atom == parse_condition("balance >= 5000")
        assert (planning.stats.certified_infeasible,
                planning.stats.cts_processed) == (1, 1)
        (rewrite,) = [s for s in tracer.finished_spans()
                      if s.name == "planner.rewrite"]
        assert rewrite.attributes["cut"] == "witness"
        assert mediator.explain(sql) == "[GenCompact] INFEASIBLE: ∅ -- " + why

    def test_a_floor_stop_is_on_the_rewrite_span(self):
        for seed in range(120, 140):
            config, twins = _world(seed)
            rng = random.Random(seed * 31 + 7)
            for _ in range(30):
                query = _world_query(config, rng)
                with use_tracer(Tracer()) as tracer:
                    got = GenCompact().plan(query, twins.compiled,
                                            twins.cost_model)
                if not got.stats.rewrite_stopped:
                    continue
                spans = tracer.finished_spans()
                (rewrite,) = [s for s in spans if s.name == "planner.rewrite"]
                (plan,) = [s for s in spans if s.name == "planner.plan"]
                assert rewrite.attributes["cut"] == "stopped"
                assert rewrite.attributes["floor"] == pytest.approx(
                    got.cost, rel=1e-9)
                assert plan.attributes["rewrite_stopped"] == 1
                return
        pytest.fail("no run stopped at the floor")

    def test_stats_merge_sums_the_new_counters(self):
        total = PlannerStats()
        total.merge(PlannerStats(certified_infeasible=1))
        total.merge(PlannerStats(rewrite_skipped=1, rewrite_stopped=1))
        total.merge(PlannerStats(certified_infeasible=1, rewrite_skipped=1))
        assert (total.certified_infeasible, total.rewrite_skipped,
                total.rewrite_stopped) == (2, 2, 1)
