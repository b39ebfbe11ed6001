"""One plan per commutation class: the order-free flag, the skip, the
early exit (DESIGN.md, "Planner hot path").

Four batteries:

1. **The flag is sound** -- on a description ``commutation_closure``
   calls order-free, ``Check`` answers the same for every ordering of a
   condition's children: over generated grammars, the adversarial SSDL
   corpus and the library's descriptions.
2. **The flag is needed** -- an interleaving grammar, an unbalanced
   one and ``car_guide`` are not order-free (the first two provably
   order-sensitive), and then GenCompact plans every CT it visits.
3. **The skip changes no plan** -- GenCompact against a test-side loop
   that plans every CT of the closure: identical plan text and cost on
   the golden corpus and on generated worlds.
4. **The early exit changes no tree** -- ``RewriteEngine.explore``
   against the seed engine of ``tests/reference_rewrite.py`` on
   generated trees, under budgets that truncate both ways.
"""

from __future__ import annotations

import random
from math import inf

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions.atoms import Atom, Op
from repro.conditions.canonical import canonicalize, commutation_key
from repro.conditions.parser import parse_condition
from repro.conditions.rewrite import (
    GENCOMPACT_RULES,
    GENMODULAR_RULES,
    RewriteEngine,
    enumerate_orderings,
)
from repro.conditions.tree import And, Condition, Leaf, Or
from repro.planners.base import CheckCounter, PlannerStats
from repro.planners.gencompact import GenCompact
from repro.planners.ipg import IPG
from repro.plans.cost import CostModel
from repro.plans.printer import to_paper_notation
from repro.query import TargetQuery
from repro.source.library import cars, standard_catalog
from repro.source.source import CapabilitySource
from repro.ssdl.builder import DescriptionBuilder
from repro.ssdl.commute import commutation_closure
from repro.ssdl.description import SourceDescription
from repro.ssdl.symbols import (
    AND_SYM,
    LPAREN_SYM,
    NT,
    OR_SYM,
    RPAREN_SYM,
    ConstClass,
    Template,
)
from repro.workloads.adversarial import AdversarialGrammar
from repro.workloads.scenarios import car_scenario
from repro.workloads.synthetic import WorldConfig, make_table
from tests.test_golden_battery import CORPUS
from tests.test_planner_hot_path import _assert_same_exploration
from tests.test_properties_conditions import conditions
from tests.test_properties_planning import _MODELS, _WORLDS, _query_for


def _assert_order_blind(description: SourceDescription,
                        condition: Condition) -> None:
    """Every ordering of ``condition`` gets ``condition``'s Check."""
    want = description.check(condition)
    for ordering in enumerate_orderings(condition, 720):
        assert description.check(ordering) == want, (condition, ordering)


# ----------------------------------------------------------------------
# 1. The flag is sound
# ----------------------------------------------------------------------

_TEMPLATES = [Template(f"a{i}", Op.EQ, ConstClass.NUM) for i in range(4)]
_NTS = ["S0", "S1", "H0", "H1"]


def random_grammar(rng: random.Random) -> SourceDescription:
    """A small grammar mixing the shapes the flag accepts (segments,
    pure sequences over templates, nonterminals and parenthesised
    nonterminals) with shapes it rejects: in one grammar of four an
    unpermuted nested sequence or mixed connectors, and now and then a
    bare nonterminal segment that can derive its own sequence's kind.
    ``H0`` is an and-list and ``H1`` an or-list; a bare segment of an
    X-sequence mostly names the helper of the other kind."""
    hostile = rng.random() < 0.25
    helper = {AND_SYM: "H1", OR_SYM: "H0"}

    def segment(connector) -> list:
        kind = rng.choice(("t", "t", "t", "nt", "paren"))
        if kind == "t":
            return [rng.choice(_TEMPLATES)]
        if kind == "paren":
            return [LPAREN_SYM, NT(rng.choice(_NTS)), RPAREN_SYM]
        if connector is None or rng.random() < 0.3:
            return [NT(rng.choice(_NTS))]
        return [NT(helper[connector])]

    def alternative(head: str) -> tuple:
        shapes = ["seg", "seg", "and", "or"]
        if hostile:
            shapes += ["nested", "mixed"]
        shape = rng.choice(shapes)
        if shape == "seg":
            return tuple(segment(None))
        if shape == "nested":  # a sequence the closure does not permute
            return (LPAREN_SYM, _TEMPLATES[0], rng.choice((AND_SYM, OR_SYM)),
                    _TEMPLATES[1], RPAREN_SYM)
        if shape == "mixed":
            return (_TEMPLATES[0], AND_SYM, _TEMPLATES[1], OR_SYM,
                    _TEMPLATES[2])
        connector = AND_SYM if shape == "and" else OR_SYM
        if head in ("H0", "H1"):
            connector = AND_SYM if head == "H0" else OR_SYM
        out: list = []
        for index in range(rng.randint(2, 3)):
            if index:
                out.append(connector)
            out.extend(segment(connector))
        return tuple(out)

    productions = {
        nt: [alternative(nt) for _ in range(rng.randint(1, 3))] for nt in _NTS
    }
    return SourceDescription(
        ["S0", "S1"], productions,
        {"S0": ["a0", "a1"], "S1": ["a2"]}, name="generated")


def _derive(productions, symbols, rng: random.Random, depth: int):
    """A tree one derivation of ``symbols`` serialises to (None when the
    derivation is too deep or is no tree): ``(tree, bare)``, ``bare``
    when the tree's own connector sits at the derivation's top level."""
    if depth > 5:
        return None
    if AND_SYM not in symbols and OR_SYM not in symbols:
        if len(symbols) == 1 and isinstance(symbols[0], Template):
            template = symbols[0]
            return Leaf(Atom(template.attribute, template.op,
                             rng.choice((1, 2)))), False
        if len(symbols) == 1 and isinstance(symbols[0], NT):
            return _derive(productions,
                           rng.choice(productions[symbols[0].name]), rng,
                           depth + 1)
        if len(symbols) == 3 and isinstance(symbols[1], NT):
            found = _derive(productions, (symbols[1],), rng, depth)
            return None if found is None else (found[0], False)
        return None
    connector = AND_SYM if AND_SYM in symbols else OR_SYM
    kind = And if connector is AND_SYM else Or
    children: list[Condition] = []
    part: list = []
    nesting = 0
    for symbol in symbols + (connector,):
        nesting += (symbol == LPAREN_SYM) - (symbol == RPAREN_SYM)
        if symbol != connector or nesting:
            part.append(symbol)
            continue
        found = _derive(productions, tuple(part), rng, depth + 1)
        if found is None:
            return None
        child, bare = found
        # A bare same-kind sequence splices into this one's tokens.
        children.extend(child.children if bare and type(child) is kind
                        else (child,))
        part = []
    return kind(children), True


def _random_tree(rng: random.Random, leaves: list[Condition],
                 depth: int = 0) -> Condition:
    if depth >= 2 or rng.random() < 0.3:
        return rng.choice(leaves)
    kind = rng.choice((And, Or))
    return kind([_random_tree(rng, leaves, depth + 1)
                 for _ in range(rng.randint(2, 3))])


def _probe_conditions(description: SourceDescription,
                      rng: random.Random) -> list[Condition]:
    """Trees the grammar derives (so acceptance is not always ∅) and
    random trees over atoms its templates match."""
    out = []
    for alternatives in description.productions.values():
        for alternative in alternatives:
            for __ in range(3):
                found = _derive(description.productions, alternative, rng, 0)
                if found is not None and found[0].size() <= 9:
                    out.append(found[0])
    leaves = [Leaf(Atom(t.attribute, t.op, value))
              for t in _TEMPLATES for value in (1, 2)]
    out.extend(_random_tree(rng, leaves) for __ in range(6))
    return out


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_order_free_grammars_are_blind_to_order(seed):
    rng = random.Random(seed)
    closed = commutation_closure(random_grammar(rng))
    if closed.order_free:
        for condition in _probe_conditions(closed, rng):
            _assert_order_blind(closed, condition)


def test_the_generated_grammars_exercise_both_verdicts():
    """The property above is not vacuous: most generated grammars are
    order-free, some are not, and the order-free ones accept trees."""
    verdicts = []
    accepted = 0
    for seed in range(200):
        rng = random.Random(seed)
        closed = commutation_closure(random_grammar(rng))
        verdicts.append(closed.order_free)
        if closed.order_free:
            accepted += sum(bool(closed.check(condition)) for condition
                            in _probe_conditions(closed, rng))
    assert 60 <= sum(verdicts) <= 190
    assert accepted > 200


@pytest.mark.parametrize("seed", [3, 7, 11, 42])
def test_the_adversarial_corpus(seed):
    """The adversarial grammars' ``orlist`` (``x | x or orlist``) is an
    or-sequence whose segment derives an or-sequence, so they are not
    order-free.  Without that one rule they are -- ambiguity, the helper
    chain and the wide order-sensitive rules included -- and the pool's
    conditions get one Check whatever their order."""
    grammar = AdversarialGrammar(seed=seed, segments=4)
    native = grammar.build()
    assert not commutation_closure(native).order_free
    kept = [nt for nt in native.condition_nonterminals if nt != "disj"]
    trimmed = SourceDescription(
        kept,
        {head: alternatives for head, alternatives
         in native.productions.items() if head not in ("disj", "orlist")},
        {nt: native.attributes[nt] for nt in kept}, name="trimmed")
    closed = commutation_closure(trimmed)
    assert closed.order_free
    probes = [c for c in grammar.conditions(seed, 60) if c.size() <= 7]
    assert sum(bool(closed.check(probe)) for probe in probes) > 10
    for probe in probes:
        _assert_order_blind(closed, probe)


_LIBRARY = dict(standard_catalog(seed=1999), cars=cars(200))
_ORDER_FREE = {"bookstore": True, "car_guide": False, "bank": True,
               "flights": True, "classifieds": True, "cars": True}


def _template_leaves(description: SourceDescription) -> list[Condition]:
    """One or two atoms per template of the grammar."""
    leaves = []
    for template in sorted(description.templates(), key=str):
        constant = template.constant
        if constant is ConstClass.NUM:
            values = (5, 9)
        elif isinstance(constant, ConstClass):
            values = ("x", "y")
        else:
            values = (constant,)
        leaves.extend(Leaf(Atom(template.attribute, template.op, value))
                      for value in values)
    return leaves


@pytest.mark.parametrize("name", sorted(_LIBRARY))
def test_the_library_descriptions(name):
    closed = _LIBRARY[name].closed_description
    assert closed.order_free == _ORDER_FREE[name]
    if not closed.order_free:
        return
    probes = [parse_condition(text) for source, __, text in CORPUS
              if source == name]
    rng = random.Random(name)
    leaves = _template_leaves(closed)
    probes += [_random_tree(rng, leaves) for __ in range(40)]
    assert any(closed.check(probe) for probe in probes)
    for probe in probes:
        _assert_order_blind(closed, probe)


# ----------------------------------------------------------------------
# 2. The flag is needed
# ----------------------------------------------------------------------

def _interleaving_source() -> CapabilitySource:
    """``A -> a1 and B; B -> a2 and a3``: the closure permutes each rule,
    but not ``B``'s conjuncts into ``A``'s."""
    description = (
        DescriptionBuilder("interleaving")
        .helper("pair", "a2 = $str and a3 = $num")
        .rule("triple", "a1 = $num and pair", attributes=["key", "a1"])
        .rule("single", "a1 = $num", attributes=["key", "a1"])
        .rule("one", "a2 = $str", attributes=["key", "a1"])
        .build()
    )
    config = WorldConfig(n_attributes=4, n_rows=200, seed=5)
    return CapabilitySource("interleaving", make_table(config), description)


def _unbalanced_description() -> SourceDescription:
    """``S -> ( A; A -> a1 and B; B -> a2 )``: every rule with a
    connector is a pure sequence, but ``B``'s unbalanced parenthesis
    means the permuted ``A`` derives ``( a2 ) and a1``, not ``( a2 and
    a1 )``."""
    a1, a2 = (Template(name, Op.EQ, ConstClass.NUM) for name in ("a1", "a2"))
    return SourceDescription(
        ["S"],
        {"S": [(LPAREN_SYM, NT("A"))], "A": [(a1, AND_SYM, NT("B"))],
         "B": [(a2, RPAREN_SYM)]},
        {"S": ["key"]}, name="unbalanced")


@pytest.mark.parametrize("make, accepted, rejected", [
    (lambda: _interleaving_source().description,
     "a1 = 5 and a2 = 'v2_1' and a3 = 7", "a2 = 'v2_1' and a1 = 5 and a3 = 7"),
    (_unbalanced_description, "a1 = 5 and a2 = 7", "a2 = 7 and a1 = 5"),
], ids=["interleaving", "unbalanced"])
def test_rejected_grammars_are_order_sensitive(make, accepted, rejected):
    closed = commutation_closure(make())
    assert not closed.order_free
    assert closed.check(parse_condition(accepted))
    assert not closed.check(parse_condition(rejected))


def _closure(condition: Condition) -> list[Condition]:
    planner = GenCompact()
    return RewriteEngine(
        rules=GENCOMPACT_RULES, max_trees=planner.max_rewrites,
        max_steps=planner.max_rewrite_steps,
        max_size_factor=planner.max_size_factor,
        canonical=True).explore(condition).trees


@pytest.mark.parametrize("make", [
    lambda: (_interleaving_source(), TargetQuery(parse_condition(
        "(a1 = 5 or a1 = 6) and a2 = 'v2_1' and a3 = 7"),
        frozenset({"key"}), "interleaving")),
    lambda: (lambda s: (s.source, s.query))(car_scenario(300)),
], ids=["interleaving", "car_guide"])
def test_nothing_is_skipped_without_the_flag(make):
    source, query = make()
    trees = _closure(query.condition)
    keys: dict = {}
    # The closure does hold commuted CTs; none of them is skipped.
    assert len({commutation_key(tree, keys) for tree in trees}) < len(trees)
    result = GenCompact().plan(query, source,
                               CostModel({source.name: source.stats}))
    assert result.stats.cts_commuted == 0
    assert result.stats.cts_processed == len(trees)


# ----------------------------------------------------------------------
# 3. The skip changes no plan
# ----------------------------------------------------------------------

def _plan_every_ct(query: TargetQuery, source, cost_model):
    """GenCompact's loop without the skip (or any certificate cut): the
    best plan over every CT of the closure, ties to the earlier."""
    ipg = IPG(source.name, CheckCounter(source.closed_description),
              cost_model, PlannerStats())
    best, best_cost = None, inf
    for ct in _closure(query.condition):
        candidate = ipg.best_plan(ct, query.attributes)
        if candidate is not None:
            cost = cost_model.cost(candidate)
            if cost < best_cost:
                best, best_cost = candidate, cost
    return best, best_cost


def _assert_same_plan(query: TargetQuery, source, cost_model) -> int:
    got = GenCompact().plan(query, source, cost_model)
    plan, cost = _plan_every_ct(query, source, cost_model)
    assert got.feasible == (plan is not None), query
    assert to_paper_notation(got.plan) == to_paper_notation(plan), query
    if plan is not None:
        assert repr(got.cost) == repr(cost), query
    return got.stats.cts_commuted


@pytest.mark.parametrize("compiled", [False, True])
def test_the_golden_corpus_plans_are_unchanged(compiled):
    catalog = standard_catalog(seed=1999)
    if compiled:
        for source in catalog.values():
            source.compile_capabilities()
    cost_model = CostModel({name: s.stats for name, s in catalog.items()})
    commuted = 0
    for name, attrs, text in CORPUS:
        query = TargetQuery(parse_condition(text), frozenset(attrs), name)
        commuted += _assert_same_plan(query, catalog[name], cost_model)
    assert commuted > 0 or compiled


@given(
    st.integers(0, len(_WORLDS) - 1),
    st.integers(0, 10**6),
    st.integers(2, 6),
)
@settings(max_examples=60, deadline=None)
def test_generated_world_plans_are_unchanged(world_index, seed, n_atoms):
    __, source = _WORLDS[world_index]
    assert source.closed_description.order_free
    _assert_same_plan(_query_for(world_index, seed, n_atoms), source,
                      _MODELS[world_index])


def test_commutation_key_is_a_multiset_key():
    keys: dict = {}

    def key(text: str):
        return commutation_key(canonicalize(parse_condition(text)), keys)

    assert key("a = 1 and (b = 2 or c = 3)") == key("(c = 3 or b = 2) and a = 1")
    # Duplicates count: ``a or a`` is not ``a`` to IPG.
    assert key("a = 1 or a = 1 or b = 2") != key("a = 1 or b = 2")
    assert key("a = 1 or b = 2") != key("a = 1 and b = 2")
    # Typed atom identity: 1, 1.0 and True are different constants.
    assert key("a = 1 or b = 2") != key("a = 1.0 or b = 2")


# ----------------------------------------------------------------------
# 4. The early exit changes no tree
# ----------------------------------------------------------------------

@given(conditions)
@settings(max_examples=60, deadline=None)
def test_explore_matches_the_seed_engine_on_generated_trees(tree):
    for budget in ({"max_trees": 40, "max_steps": 4000},
                   {"max_trees": 500, "max_steps": 25},
                   {"max_trees": 3, "max_steps": 4000}):
        _assert_same_exploration(tree, GENCOMPACT_RULES, canonical=True,
                                 **budget)
    _assert_same_exploration(tree, GENMODULAR_RULES, max_trees=30,
                             max_steps=600)
