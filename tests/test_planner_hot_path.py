"""The planner hot path: what is cached, what is pruned, and why it is safe.

Five batteries (DESIGN.md, "Planner hot path"):

1. **Structural facts** -- the three scalars a condition node caches
   equal what a fresh walk computes, however the node was built.
2. **Dead-atom soundness** -- an atom no template matches is rejected
   by the raw Earley recognizer in every context, so answering ∅ ahead
   of the recognizers (and enumerating live children only) loses nothing.
3. **Table/prune parity** -- GenCompact with the prune switched off, and
   with the per-node tables not shared across CTs, finds the same plan.
4. **Rewrite byte-identity** -- the memoizing engine returns the trees
   of ``tests/reference_rewrite.py`` in the same order (spending no
   more steps).
5. **Search-space pins** -- exact Check / sub-plan / MCSC counts for the
   paper's examples and four fixed trees: a search-space regression
   shows as a count, not as a timing.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions.atoms import Atom, Op
from repro.conditions.canonical import canonicalize, is_canonical
from repro.conditions.parser import parse_condition
from repro.conditions.rewrite import (
    GENCOMPACT_RULES,
    GENMODULAR_RULES,
    RewriteEngine,
    commutative_rule,
)
from repro.conditions.tree import (
    TRUE,
    And,
    Condition,
    Leaf,
    Or,
    conjunction,
    disjunction,
)
from repro.errors import ConditionError
from repro.planners.base import CheckCounter
from repro.planners.gencompact import GenCompact
from repro.planners.ipg import IPG
from repro.plans.cost import CostModel
from repro.plans.printer import to_paper_notation
from repro.query import TargetQuery
from repro.source.library import standard_catalog
from repro.ssdl.commute import commutation_closure
from repro.ssdl.description import SourceDescription
from repro.ssdl.earley import EarleyRecognizer
from repro.ssdl.symbols import AtomToken, Keyword, tokenize_condition
from repro.ssdl.text import parse_ssdl
from repro.workloads.scenarios import bookstore_scenario, car_scenario
from repro.workloads.synthetic import (
    WorldConfig,
    make_description,
    make_source,
    random_condition,
)
from tests import reference_rewrite
from tests.test_golden_battery import CORPUS
from tests.test_properties_conditions import conditions
from tests.test_properties_planning import _MODELS, _WORLDS, _query_for


# ----------------------------------------------------------------------
# 1. Structural facts
# ----------------------------------------------------------------------

def _rebuilt(node: Condition) -> Condition:
    """A structurally equal tree built through the public constructors."""
    if node.is_leaf:
        atom = node.atom
        return Leaf(Atom(atom.attribute, atom.op, atom.value))
    return type(node)([_rebuilt(child) for child in node.children])


def _walked_canonical(node: Condition) -> bool:
    return all(
        type(child) is not type(parent)
        for parent in node.nodes() for child in parent.children
    )


def _assert_scalars(node: Condition) -> None:
    fresh = _rebuilt(node)
    assert node == fresh and fresh == node
    assert hash(node) == hash(fresh) == hash(node._key())
    assert node.size() == fresh.size() == sum(1 for _ in node.nodes())
    assert is_canonical(node) == is_canonical(fresh) == _walked_canonical(node)


@given(conditions)
@settings(max_examples=150, deadline=None)
def test_cached_scalars_match_a_fresh_build(tree):
    """Whichever builder made a node -- a public constructor, the
    combination helpers, canonicalization or a rewrite rule -- its cached
    size, hash and canonical flag are those of a fresh public build."""
    built = [tree, canonicalize(tree), conjunction([tree, tree]),
             disjunction([tree, TRUE, tree])]
    for rule in GENMODULAR_RULES:
        built.extend(rule(tree))
    if tree.children:
        built.append(tree.with_children(tree.children[::-1]))
    for node in built:
        for sub in node.nodes():
            _assert_scalars(sub)


@given(conditions)
@settings(max_examples=150, deadline=None)
def test_canonicalize_returns_canonical_trees_as_they_are(tree):
    flat = canonicalize(tree)
    assert canonicalize(flat) is flat
    if _walked_canonical(tree):
        assert flat is tree


@given(conditions, conditions)
@settings(max_examples=150, deadline=None)
def test_equality_is_structural(left, right):
    assert (left == right) == (left._key() == right._key())
    if left == right:
        assert hash(left) == hash(right)
    assert left != TRUE and left != "not a condition"


class TestConstructorsStillValidate:
    a, b = Leaf(Atom("a", Op.EQ, 1)), Leaf(Atom("b", Op.EQ, 2))

    @pytest.mark.parametrize("cls", [And, Or])
    def test_connectors_reject_bad_children(self, cls):
        with pytest.raises(ConditionError):
            cls([self.a])
        with pytest.raises(ConditionError):
            cls([self.a, TRUE])
        with pytest.raises(ConditionError):
            cls([self.a, "b = 2"])

    def test_leaf_rejects_a_non_atom(self):
        with pytest.raises(ConditionError):
            Leaf("a = 1")

    @pytest.mark.parametrize(
        "node", [a, And([a, b]), Or([a, b]), conjunction([a, b]), TRUE])
    def test_nodes_are_immutable(self, node):
        for cls in type(node).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                with pytest.raises(AttributeError):
                    setattr(node, slot, None)
        with pytest.raises(AttributeError):
            node.anything_else = 1


def test_nodes_cache_scalars_only():
    """The RSS guard: a node keeps its structure (``atom`` or
    ``_children``) and int/bool scalars -- never an ``atoms()`` or
    ``attributes()`` result.  The Check LRU alone keeps thousands of
    trees alive; a container per node cost +9 % peak RSS when tried."""
    assert Condition.__slots__ == ("_hash", "_size", "_canonical")
    tree = canonicalize(parse_condition(
        "a = 1 and (b = 2 or (c = 3 and d = 4)) and (e = 5 and f = 6)"))
    tree.atoms(), tree.attributes(), hash(tree)
    for node in tree.nodes():
        for cls in type(node).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if slot not in ("atom", "_children"):
                    assert type(getattr(node, slot)) in (int, bool), slot


# ----------------------------------------------------------------------
# 2. Dead-atom soundness
# ----------------------------------------------------------------------

#: Literal and class templates over mixed constant types, with the
#: near-misses Python equality makes interesting (7 == 7.0, True == 1).
_MIXED_SSDL = """
s  -> s1 | s2 | s3 | s4
s1 -> style = 'sedan' and price < $num
s2 -> flag = $bool or size in $list
s3 -> code = 7 | code = 'x' | rank = 1 | true
s4 -> ( code = 7 or name contains $str ) and s3
attributes s1 : style, price
attributes s2 : flag, size
attributes s3 : code
attributes s4 : code, name
"""


def _atom_or_none(attribute, op, value):
    try:
        return Atom(attribute, op, value)
    except ConditionError:  # e.g. ``contains`` with a number
        return None


_MIXED_LEAVES = st.one_of(
    st.builds(
        _atom_or_none,
        st.sampled_from(
            ["style", "price", "flag", "code", "rank", "name", "zip"]),
        st.sampled_from([Op.EQ, Op.LT, Op.CONTAINS]),
        st.sampled_from(
            ["sedan", "coupe", "x", 7, 7.0, 8, 1, True, False, 3.5]),
    ).filter(lambda atom: atom is not None),
    st.builds(
        Atom, st.just("size"), st.just(Op.IN),
        st.sampled_from([("compact",), ("compact", "midsize")])),
).map(Leaf)

_MIXED_CONDITIONS = st.recursive(
    _MIXED_LEAVES,
    lambda children: st.one_of(
        st.builds(And, st.lists(children, min_size=2, max_size=3)),
        st.builds(Or, st.lists(children, min_size=2, max_size=3))),
    max_leaves=5,
)

_WORLD_CONFIGS = [
    WorldConfig(n_attributes=4, n_rows=10, richness=0.3, download_prob=1.0,
                seed=611),
    WorldConfig(n_attributes=6, n_rows=10, richness=0.6, download_prob=0.0,
                seed=612),
    WorldConfig(n_attributes=8, n_rows=10, richness=0.9, download_prob=0.5,
                seed=613),
]


def _assert_dead_atoms_are_rejected(
    description: SourceDescription, condition: Condition,
) -> None:
    templates = description.templates()
    for atom in condition.atoms():
        assert description.atom_matchable(atom) == any(
            template.matches(AtomToken(atom)) for template in templates)
    if all(map(description.atom_matchable, condition.atoms())):
        return
    recognizer = EarleyRecognizer(description.productions)
    tokens = tokenize_condition(condition)
    wrapped = (Keyword.LPAREN,) + tokens + (Keyword.RPAREN,)
    for nt in description.condition_nonterminals:
        assert not recognizer.accepts(tokens, nt)
        assert not recognizer.accepts(wrapped, nt)
    before = description.check_prefiltered
    assert not description.check(condition)
    assert description.check_prefiltered == before + 1


@given(_MIXED_CONDITIONS, st.booleans())
@settings(max_examples=200, deadline=None)
def test_unmatchable_atoms_are_rejected_literal_and_class_templates(
        condition, closed):
    description = parse_ssdl(_MIXED_SSDL, name="mixed")
    if closed:
        description = commutation_closure(description)
    _assert_dead_atoms_are_rejected(description, condition)


@given(
    st.integers(0, len(_WORLD_CONFIGS) - 1),
    st.integers(0, 10**6),
    st.integers(1, 6),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_unmatchable_atoms_are_rejected_random_grammars(
        world_index, seed, n_atoms, closed):
    config = _WORLD_CONFIGS[world_index]
    description = make_description(config)
    if closed:
        description = commutation_closure(description)
    # Conditions drawn over two more attributes than the grammar knows.
    wider = WorldConfig(n_attributes=config.n_attributes + 2, seed=config.seed)
    condition = random_condition(wider, n_atoms, random.Random(seed))
    _assert_dead_atoms_are_rejected(description, condition)


@pytest.mark.parametrize("attribute,op,value,matchable", [
    ("style", Op.EQ, "sedan", True),
    ("style", Op.EQ, "coupe", False),    # literal template, other constant
    ("style", Op.LT, "sedan", False),    # no template for the operator
    ("zip", Op.EQ, "sedan", False),      # no template for the attribute
    ("price", Op.LT, 3.5, True),
    ("price", Op.LT, "cheap", False),    # $num admits no string
    ("code", Op.EQ, 7.0, True),          # 7 == 7.0, as Template.matches
    ("code", Op.EQ, "x", True),
    ("code", Op.EQ, 8, False),
    ("rank", Op.EQ, True, True),         # True == 1, as Template.matches
    ("flag", Op.EQ, False, True),
    ("flag", Op.EQ, 1, False),           # $bool admits no number
    ("size", Op.IN, ("compact",), True),
    ("name", Op.CONTAINS, "art", True),
])
def test_atom_matchable_is_template_matches(attribute, op, value, matchable):
    description = parse_ssdl(_MIXED_SSDL, name="mixed")
    atom = Atom(attribute, op, value)
    assert description.atom_matchable(atom) is matchable
    _assert_dead_atoms_are_rejected(description, Leaf(atom))
    _assert_dead_atoms_are_rejected(
        description,
        And([Leaf(Atom("style", Op.EQ, "sedan")), Leaf(atom)]))


def test_true_has_no_atoms_and_is_never_prefiltered():
    for text in (_MIXED_SSDL, "s -> s1\ns1 -> a = $str\nattributes s1 : a"):
        description = parse_ssdl(text, name="d")
        recognizer = EarleyRecognizer(description.productions)
        accepted = any(recognizer.accepts((Keyword.TRUE,), nt)
                       for nt in description.condition_nonterminals)
        assert bool(description.check(TRUE)) == accepted
        assert description.check_prefiltered == 0
        assert description.check_calls == 1


def _normalized_index(description: SourceDescription) -> dict:
    return {
        key: (frozenset(classes), frozenset(literals))
        for key, (classes, literals) in description._template_index.items()
    }


def test_commutation_closure_keeps_the_template_index():
    natives = [source.description for source in standard_catalog(7).values()]
    natives += [make_description(config) for config in _WORLD_CONFIGS]
    natives.append(parse_ssdl(_MIXED_SSDL, name="mixed"))
    for native in natives:
        closed = commutation_closure(native)
        assert closed.rule_count() >= native.rule_count()
        assert _normalized_index(closed) == _normalized_index(native)


# ----------------------------------------------------------------------
# 3. Table / prune parity
# ----------------------------------------------------------------------

def _fresh_ipg_per_ct(query: TargetQuery, source, cost_model):
    """GenCompact's loop with nothing shared between CTs: every
    rewritten tree gets an IPG (memo and node tables) of its own."""
    planner = GenCompact()
    engine = RewriteEngine(
        rules=GENCOMPACT_RULES, max_trees=planner.max_rewrites,
        max_steps=planner.max_rewrite_steps,
        max_size_factor=planner.max_size_factor, canonical=True)
    best, best_cost = None, float("inf")
    for ct in engine.explore(query.condition).trees:
        ipg = IPG(source.name, CheckCounter(source.closed_description),
                  cost_model)
        candidate = ipg.best_plan(ct, query.attributes)
        if candidate is not None and cost_model.cost(candidate) < best_cost:
            best, best_cost = candidate, cost_model.cost(candidate)
    return best, best_cost


@given(
    st.integers(0, len(_WORLDS) - 1),
    st.integers(0, 10**6),
    st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_prune_and_tables_change_nothing(world_index, seed, n_atoms):
    __, source = _WORLDS[world_index]
    cost_model = _MODELS[world_index]
    query = _query_for(world_index, seed, n_atoms)
    shipped = GenCompact().plan(query, source, cost_model)
    with pytest.MonkeyPatch.context() as patch:
        # Pruning off, tables on: every atom counts as matchable, so
        # Check never prefilters and IPG enumerates every child subset.
        patch.setattr(SourceDescription, "atom_matchable",
                      lambda self, atom: True)
        unpruned = GenCompact().plan(query, source, cost_model)
        assert unpruned.stats.check_prefiltered == 0
    assert unpruned.plan == shipped.plan
    assert unpruned.cost == shipped.cost
    assert (unpruned.stats.subplans_considered
            == shipped.stats.subplans_considered)
    assert unpruned.stats.mcsc_problems == shipped.stats.mcsc_problems
    assert unpruned.stats.check_calls >= shipped.stats.check_calls
    plan, cost = _fresh_ipg_per_ct(query, source, cost_model)
    assert plan == shipped.plan
    if plan is not None:
        assert cost == shipped.cost


@pytest.mark.parametrize("pr1", [True, False])
def test_ipg_carried_cost_is_the_cost_models(pr1):
    """The cost IPG carries beside each plan is ``cost_model.cost`` of
    that plan, to the bit, for every memoized sub-result."""
    costed = 0
    for world_index, (__, source) in enumerate(_WORLDS):
        cost_model = _MODELS[world_index]
        for seed in range(12):
            query = _query_for(world_index, seed, 5)
            ipg = IPG(source.name, CheckCounter(source.closed_description),
                      cost_model, pr1=pr1)
            ipg.best_plan(canonicalize(query.condition), query.attributes)
            for entry in ipg._memo.values():
                if entry is not None:
                    plan, cost = entry
                    assert cost == cost_model.cost(plan)
                    costed += 1
    assert costed > 100


# ----------------------------------------------------------------------
# 4. Rewrite byte-identity
# ----------------------------------------------------------------------

_X3_QUERY = car_scenario(50).query.condition
_X3_BUDGETS = (10, 30, 60, 120)

_REWRITE_SEEDS = [parse_condition(text) for __, __, text in CORPUS]
_REWRITE_SEEDS.append(_X3_QUERY)
# A non-canonical spelling: nested same-kind connectors.
_REWRITE_SEEDS.append(parse_condition(
    "a = 1 and (b = 2 and (c = 3 or (d = 4 or e = 5))) and (c = 3 or a = 1)"))

_REFERENCE_RULE = {
    rule: getattr(reference_rewrite, rule.__name__)
    for rule in GENMODULAR_RULES
}


def _assert_same_exploration(seed: Condition, rules, **budget) -> None:
    engine = RewriteEngine(rules=rules, **budget)
    state = dict(vars(engine))
    got = engine.explore(seed)
    want = reference_rewrite.RewriteEngine(
        rules=[_REFERENCE_RULE[rule] for rule in rules], **budget
    ).explore(seed)
    assert (got.trees, got.truncated) == (want.trees, want.truncated)
    # The engine stops at the first new tree past a full budget, where
    # the reference drains its frontier: only the steps it spent shrink.
    if got.truncated:
        assert got.steps <= want.steps
    else:
        assert got.steps == want.steps
    # The memo lived in the call: nothing is left on the engine or rules.
    assert vars(engine) == state
    for rule in rules:
        assert set(vars(rule)) == {"local", "__name__", "__doc__"}


@pytest.mark.parametrize("seed", _REWRITE_SEEDS, ids=str)
def test_explore_matches_the_reference_on_the_corpus(seed):
    planner = GenCompact()
    _assert_same_exploration(
        seed, GENCOMPACT_RULES, max_trees=planner.max_rewrites,
        max_steps=planner.max_rewrite_steps,
        max_size_factor=planner.max_size_factor, canonical=True)
    # Tight budgets: both truncation paths (steps, then trees).
    _assert_same_exploration(
        seed, GENCOMPACT_RULES, max_trees=500, max_steps=25, canonical=True)
    _assert_same_exploration(
        seed, GENCOMPACT_RULES, max_trees=3, max_steps=4000, canonical=True)
    # GenModular's five rules go through the same engine.
    _assert_same_exploration(
        seed, GENMODULAR_RULES, max_trees=80, max_steps=3000)


@pytest.mark.parametrize("budget", _X3_BUDGETS)
def test_explore_matches_the_reference_on_the_x3_budget_sweep(budget):
    rules = tuple(r for r in GENMODULAR_RULES if r is not commutative_rule)
    _assert_same_exploration(
        _X3_QUERY, rules, max_trees=budget, max_steps=budget * 200)


def test_rules_keep_their_names():
    assert [rule.__name__ for rule in GENMODULAR_RULES] == [
        "commutative_rule", "associative_rule", "distributive_rule",
        "factoring_rule", "copy_rule"]
    assert repr(commutative_rule) == "<rewrite rule commutative_rule>"
    assert "Swap any two children" in commutative_rule.__doc__


@given(conditions)
@settings(max_examples=60, deadline=None)
def test_rules_match_the_reference_rules(tree):
    for rule, reference in _REFERENCE_RULE.items():
        assert list(rule(tree)) == list(reference(tree))


# ----------------------------------------------------------------------
# 5. Search-space pins
# ----------------------------------------------------------------------

_PIN_WORLD = WorldConfig(n_attributes=6, n_rows=300, richness=0.7,
                         download_prob=0.0, seed=42)
_PIN_ATTRS = frozenset({"key", "a1"})

#: name -> (scenario factory or condition text, check_calls, check_prefiltered,
#: subplans_considered, mcsc_problems, chosen plan).  The synthetic trees'
#: rewrite closures fit the budget, so none of this depends on the order
#: a hash-ordered set is walked in.  Every description here but
#: ``car_guide``'s is order-free, so CTs commuting a planned one are
#: skipped.
_PINS = {
    "example_1_1": (
        lambda: bookstore_scenario(500), 14, 0, 9, 3,
        "SP(author = 'Sigmund Freud' or author = 'Carl Jung', "
        "{author, id, price, title}, SP(title contains 'dreams', "
        "{author, id, price, title}, bookstore))"),
    "example_1_2": (
        lambda: car_scenario(500), 828, 0, 2142, 125,
        "SP((make = 'Toyota' and price <= 20000) or (make = 'BMW' and "
        "price <= 40000), {id, make, model, price}, SP(style = 'sedan' and "
        "(size = 'compact' or size = 'midsize'), {id, make, model, price}, "
        "car_guide))"),
    "feasible_and": (
        "a5 <= 863 and (a4 = 'v4_1' or a2 = 'v2_4' or a3 = 541)",
        30, 5, 18, 7,
        "(SP(a3 = 541, {a1, key}, SP(a5 <= 863, {a1, a3, key}, world42)) ∪ "
        "(SP(a2 = 'v2_4', {a1, key}, world42) ∩ "
        "SP(a5 <= 863, {a1, key}, world42)) ∪ "
        "SP(a5 <= 863, {a1, key}, SP(a4 = 'v4_1', {a1, a5, key}, world42)))"),
    "feasible_or": (
        "(a2 = 'v2_12' and a1 <= 441) or "
        "(a1 = 102 and a4 = 'v4_1' and a1 = 300)",
        102, 14, 196, 45,
        "(SP(a1 = 300, {a1, key}, SP(a1 = 102 and a4 = 'v4_1', {a1, key}, "
        "world42)) ∪ SP(a1 <= 441, {a1, key}, SP(a2 = 'v2_12', {a1, key}, "
        "world42)))"),
    "infeasible_and": (
        "a3 <= 506 and (a1 >= 918 or a3 <= 91 or a3 >= 239) and a0 = 'v0_2'",
        53, 19, 56, 27, None),
    "infeasible_or": (
        "a3 >= 890 or (a3 = 632 and a1 <= 631 and a1 <= 480 and a1 = 226)",
        29, 9, 18, 11, None),
}


#: What the same pins read once the source is compiled, where that
#: differs, and which certificate cut the run:
#:
#: * ``infeasible_and`` -- the signatures certify it before any Check.
#: * ``infeasible_or`` -- that certificate misses it (every term holds
#:   an atom some form takes); once its original tree has no plan, the
#:   per-atom witness proves it: ``a3 = 632`` matches no template, and
#:   no query true under its term exports ``a3`` with ``{a1, key}``.
#: * ``example_1_1`` and ``feasible_or`` -- the term-cover floor proves
#:   the first plan optimal, so the closure is never built (one CT,
#:   ``rewrite_skipped``).  In ``example_1_1`` one query hitting both
#:   minimal terms (Freud and 'dreams', Jung and 'dreams') can hold
#:   only ``title contains 'dreams'`` -- the plan's one query -- and two
#:   queries cost a second k1.  ``feasible_or``'s two terms share no
#:   atom, so every plan needs a query inside each, and the plan's two
#:   are the cheapest the signatures allow.
_COMPILED_PINS = {
    "example_1_1": ((10, 0, 7, 2), "skipped"),
    "feasible_or": ((21, 3, 26, 3), "skipped"),
    "infeasible_and": ((0, 0, 0, 0), "certified"),
    "infeasible_or": ((12, 5, 8, 2), "witness"),
}


@pytest.mark.parametrize("name", _PINS)
def test_search_space_is_pinned(name):
    what, *pinned, plan_text = _PINS[name]
    for compiled in (False, True):
        if isinstance(what, str):
            source = make_source(_PIN_WORLD)
            query = TargetQuery(parse_condition(what), _PIN_ATTRS, source.name)
        else:
            scenario = what()
            source, query = scenario.source, scenario.query
        want, cut = tuple(pinned), None
        if compiled:
            source.compile_capabilities()
            want, cut = _COMPILED_PINS.get(name, (want, None))
        result = GenCompact().plan(
            query, source, CostModel({source.name: source.stats}))
        stats = result.stats
        assert (stats.check_calls, stats.check_prefiltered,
                stats.subplans_considered, stats.mcsc_problems) == want
        assert (to_paper_notation(result.plan) if result.feasible else None) \
            == plan_text
        assert stats.certified_infeasible == (cut in ("certified", "witness"))
        assert (result.witness is not None) == stats.certified_infeasible
        assert (result.witness_atom is not None) == (cut == "witness")
        assert stats.rewrite_skipped == (cut == "skipped")
        if cut in ("skipped", "witness"):
            assert stats.cts_processed == 1
        # Every cache-missing Check is accounted for (a certificate
        # issues none).
        assert stats.check_prefiltered <= stats.check_calls
        if compiled:
            description = source.closed_description
            assert description.check_calls == (
                description.check_compiled + description.check_fallbacks
                + description.check_prefiltered)
