"""The one-pass query fingerprint against the functions it replaced.

``tests/reference_keys.py`` keeps ``canonical_key`` / ``_node_key`` /
``Skeleton.of`` / ``atom_substitution`` / ``substitute_plan`` as they
stood; hypothesis trees assert the shipped values equal them (key
*values* are behaviour: plan fingerprints and golden renderings hash
them), that the exact key is idempotent and invariant under commutation,
reassociation and duplicated siblings, and that rebinding through a
template's compiled plan is the old substitution, refusals included.
A negative battery pins what must never collide: constants of different
types.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions.atoms import Atom, Op
from repro.conditions.canonical import canonicalize
from repro.conditions.fingerprint import Fingerprint, canonical_key
from repro.conditions.parser import parse_condition
from repro.conditions.skeleton import Skeleton
from repro.conditions.tree import TRUE, And, Leaf, Or
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.planners.base import PlanningResult
from repro.plans.coalesce import flight_key
from repro.plans.cost import CostModel
from repro.plans.nodes import Postprocess, SourceQuery, UnionPlan
from repro.query import TargetQuery
from repro.serving.plan_cache import (
    PlanTemplates,
    plan_cache_key,
    template_cache_key,
)
from repro.observability.slo import plan_fingerprint, query_fingerprint

from tests import reference_keys as reference
from tests.conftest import make_example41_source

# ----------------------------------------------------------------------
# Strategies: small alphabets so duplicates and near-misses are common,
# constants of every class (and of classes that compare equal in Python).
# ----------------------------------------------------------------------

_SCALARS = [0, 1, 2, 1.0, 2.5, -0.0, True, False, "1", "x", "y", ""]

scalar_atoms = st.builds(
    Atom,
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([Op.EQ, Op.NE]),
    st.sampled_from(_SCALARS),
)
ordered_atoms = st.builds(
    Atom,
    st.sampled_from(["a", "b"]),
    st.sampled_from([Op.LT, Op.GE]),
    st.sampled_from([1, 1.0, 7, "x"]),
)
list_atoms = st.builds(
    Atom,
    st.sampled_from(["a", "c"]),
    st.just(Op.IN),
    st.lists(st.sampled_from([1, 1.0, True, "1", 2]), min_size=1,
             max_size=3).map(tuple),
)
atoms = st.one_of(scalar_atoms, ordered_atoms, list_atoms)
leaves = st.builds(Leaf, atoms)


def _connector(children):
    return st.one_of(
        st.builds(And, st.lists(children, min_size=2, max_size=3)),
        st.builds(Or, st.lists(children, min_size=2, max_size=3)),
    )


conditions = st.one_of(
    st.just(TRUE), st.recursive(leaves, _connector, max_leaves=8))


def _rebound(tree, draw_value):
    """``tree`` with every constant replaced by ``draw_value(old)``."""
    if tree.is_true:
        return tree
    if tree.is_leaf:
        atom = tree.atom
        return Leaf(Atom(atom.attribute, atom.op, draw_value(atom.value)))
    return type(tree)([_rebound(child, draw_value) for child in tree.children])


def _same_class_value(rng):
    pools = {bool: [True, False], str: ["p", "q", "x"], int: [0, 3, 4, 1.5],
             float: [0, 3, 4, 1.5]}

    def draw(old):
        if isinstance(old, tuple):
            return tuple(rng.choice([1, "z", 2.0]) for _ in old)
        return rng.choice(pools[type(old)])

    return draw


# ----------------------------------------------------------------------
# The one pass equals the reference, value for value
# ----------------------------------------------------------------------

@given(conditions)
@settings(max_examples=300, deadline=None)
def test_exact_key_equals_the_reference(tree):
    key = canonical_key(tree)
    expected = reference.canonical_key(tree)
    assert key == expected
    # Same elements in the same order: what plan_fingerprint hashes.
    assert repr(key) == repr(expected)


@given(conditions)
@settings(max_examples=300, deadline=None)
def test_skeleton_equals_the_reference(tree):
    expected = reference.Skeleton.of(tree)
    fingerprint = Fingerprint(tree)
    assert fingerprint.skeleton == expected.template
    assert fingerprint.atoms == tree.atoms()
    shipped = Skeleton.of(tree)
    assert (shipped.template, shipped.values) == (
        expected.template, expected.values)
    assert shipped.bind(shipped.values) == tree


@given(conditions, st.sampled_from(["cars", "world"]),
       st.frozensets(st.sampled_from(["a", "b", "c"]), min_size=1))
@settings(max_examples=100, deadline=None)
def test_query_keys_are_views_over_the_fingerprint(tree, source, attributes):
    query = TargetQuery(tree, attributes, source)
    exact = reference.canonical_key(tree)
    assert plan_cache_key(query) == (source, exact, attributes)
    assert plan_fingerprint(plan_cache_key(query)) == plan_fingerprint(
        (source, exact, attributes)) == query_fingerprint(query)
    skeleton = reference.Skeleton.of(tree).template
    assert template_cache_key(tree, attributes, source, "s") == (
        source, skeleton, attributes, "s")
    assert PlanTemplates().key(query, "s") == (
        source, skeleton, attributes, "s")
    assert query.condition_attributes == tree.attributes()
    assert str(query) == query.text == query.to_text()
    # Memoised for the query object's life: the same objects again.
    assert query.fingerprint is query.fingerprint


# ----------------------------------------------------------------------
# Properties of the exact key
# ----------------------------------------------------------------------

def _shuffled(tree, rng):
    if not tree.children:
        return tree
    children = [_shuffled(child, rng) for child in tree.children]
    rng.shuffle(children)
    return type(tree)(children)


def _regrouped(tree, rng):
    """Nest a run of a connector's children under the same connector."""
    if not tree.children:
        return tree
    children = [_regrouped(child, rng) for child in tree.children]
    if len(children) > 2:
        cut = rng.randrange(1, len(children) - 1)
        children = children[:cut] + [type(tree)(children[cut:])]
    return type(tree)(children)


def _duplicated(tree, rng):
    if not tree.children:
        return tree
    children = [_duplicated(child, rng) for child in tree.children]
    children.insert(rng.randrange(len(children) + 1), rng.choice(children))
    return type(tree)(children)


@given(conditions)
@settings(max_examples=150, deadline=None)
def test_exact_key_is_idempotent(tree):
    flat = canonicalize(tree)
    assert canonical_key(flat) == canonical_key(tree)
    assert canonical_key(canonicalize(flat)) == canonical_key(flat)


@given(conditions, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_exact_key_ignores_order_grouping_and_duplicates(tree, rng):
    key = canonical_key(tree)
    assert canonical_key(_shuffled(tree, rng)) == key
    assert canonical_key(_regrouped(tree, rng)) == key
    assert canonical_key(_duplicated(tree, rng)) == key
    # The single-flight key is order-sensitive by design (it only
    # flattens): regrouping shares a flight, the fingerprint's skeleton
    # still tells the shapes apart.
    attrs = frozenset({"a"})
    assert flight_key("s", _regrouped(tree, rng), attrs) == flight_key(
        "s", tree, attrs)


# ----------------------------------------------------------------------
# Rebinding through the stored atom vector
# ----------------------------------------------------------------------

def _plan_over(tree) -> UnionPlan:
    """A plan whose conditions are ``tree``, its subtrees and a derived
    conjunction -- what planners build source queries from."""
    attrs = frozenset({"a", "b", "c"})
    pieces = list(tree.children) or [tree]
    return UnionPlan([
        SourceQuery(tree, attrs, "cars"),
        Postprocess(pieces[0], attrs, SourceQuery(pieces[-1], attrs, "cars")),
    ])


class _AcceptingSource:
    """Stands in for a source whose grammar takes every query."""

    name = "cars"

    def __init__(self, refuse=None):
        self.refuse = refuse
        self.asked = []

    def supports(self, condition, attributes) -> bool:
        self.asked.append(condition)
        return condition != self.refuse


class _FlatCost:
    def cost(self, plan) -> float:
        return 1.0


@given(conditions.filter(lambda tree: not tree.is_true),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_rebinding_equals_the_reference_substitution(old, rng):
    new = _rebound(old, _same_class_value(rng))
    expected = reference.atom_substitution(old, new)
    attrs = frozenset({"a", "b", "c"})
    templates = PlanTemplates()
    stored = PlanningResult("p", TargetQuery(old, attrs, "cars"),
                            _plan_over(old), 1.0)
    query = TargetQuery(new, attrs, "cars")
    key = templates.key(query)
    assert key == templates.key(stored.query)
    with use_metrics(MetricsRegistry()):
        templates.store(key, old, stored)
        rebound = templates.instantiate(key, query, _AcceptingSource(),
                                        _FlatCost())
    if expected is None:
        # One old atom would have to become two different new ones.
        assert rebound is None
        assert (templates.hits, templates.rejected) == (0, 1)
    else:
        assert rebound.plan == reference.substitute_plan(stored.plan, expected)
        assert rebound.query is query
        assert (templates.hits, templates.rejected) == (1, 0)


@given(conditions, conditions)
@settings(max_examples=200, deadline=None)
def test_substitution_refuses_what_the_reference_refuses(old, new):
    expected = reference.atom_substitution(old, new)
    if Fingerprint(old).skeleton != Fingerprint(new).skeleton:
        assert expected is None
    # A template stored for ``old`` serves ``new`` exactly when the
    # reference maps one onto the other.
    attrs = frozenset({"a", "b", "c"})
    templates = PlanTemplates()
    stored = PlanningResult("p", TargetQuery(old, attrs, "cars"),
                            _plan_over(old), 1.0)
    key = templates.key(stored.query)
    with use_metrics(MetricsRegistry()):
        templates.store(key, old, stored)
        rebound = templates.instantiate(key, TargetQuery(new, attrs, "cars"),
                                        _AcceptingSource(), _FlatCost())
    assert (rebound is None) == (expected is None)


class TestTemplateRefusals:
    ATTRS = frozenset({"make", "model"})

    @pytest.fixture(autouse=True)
    def _private_registry(self):
        with use_metrics(MetricsRegistry()):
            yield

    def _stored(self, templates, text):
        source = make_example41_source()
        from repro.planners.gencompact import GenCompact

        first = GenCompact().plan(
            TargetQuery(parse_condition(text), self.ATTRS, "cars"), source,
            CostModel({source.name: source.stats}))
        key = templates.key(first.query)
        templates.store(key, first.query.condition, first)
        return source, key

    def test_a_key_from_another_shape_is_refused(self):
        """``instantiate`` takes the key from its caller: a query whose
        skeleton is not the entry's is rejected, never rebound."""
        templates = PlanTemplates()
        source, key = self._stored(templates, "make = 'BMW' and price < 40000")
        other = TargetQuery(parse_condition("make = 'BMW' or price < 40000"),
                            self.ATTRS, "cars")
        cost_model = CostModel({source.name: source.stats})
        assert templates.instantiate(key, other, source, cost_model) is None
        assert (templates.hits, templates.rejected) == (0, 1)

    def test_ambiguous_duplicate_is_refused(self):
        templates = PlanTemplates()
        old = parse_condition("make = 'BMW' or make = 'BMW'")
        stored = PlanningResult(
            "p", TargetQuery(old, self.ATTRS, "cars"),
            SourceQuery(old, self.ATTRS, "cars"), 1.0)
        key = templates.key(stored.query)
        templates.store(key, old, stored)
        query = TargetQuery(parse_condition("make = 'Audi' or make = 'Kia'"),
                            self.ATTRS, "cars")
        assert templates.key(query) == key
        source = _AcceptingSource()
        assert templates.instantiate(key, query, source, _FlatCost()) is None
        assert (templates.hits, templates.rejected) == (0, 1)
        assert source.asked == []
        consistent = TargetQuery(
            parse_condition("make = 'Kia' or make = 'Kia'"), self.ATTRS,
            "cars")
        rebound = templates.instantiate(key, consistent, source, _FlatCost())
        assert rebound.plan == SourceQuery(
            consistent.condition, self.ATTRS, "cars")

    def test_a_rebound_query_the_grammar_rejects_is_refused(self):
        """Literal templates make support value-dependent: the stored
        vector rebinds, the unchanged validation refuses."""
        templates = PlanTemplates()
        old = parse_condition("style = 'sedan'")
        attrs = frozenset({"model"})
        stored = PlanningResult(
            "p", TargetQuery(old, attrs, "cars"),
            SourceQuery(old, attrs, "cars"), 1.0)
        key = templates.key(stored.query)
        templates.store(key, old, stored)
        new = parse_condition("style = 'coupe'")
        query = TargetQuery(new, attrs, "cars")
        source = _AcceptingSource(refuse=new)
        assert templates.instantiate(key, query, source, _FlatCost()) is None
        assert source.asked == [new]
        assert (templates.hits, templates.rejected) == (0, 1)
        accepted = TargetQuery(parse_condition("style = 'wagon'"), attrs,
                               "cars")
        assert templates.instantiate(
            key, accepted, source, _FlatCost()) is not None
        assert (templates.hits, templates.rejected) == (1, 1)


# ----------------------------------------------------------------------
# What must never collide
# ----------------------------------------------------------------------

_TYPED = [1, 1.0, True, "1", "true", 0, False, 0.0, "", "0"]


class TestTypedConstants:
    def test_atoms_of_different_constant_class_are_unequal(self):
        for i, a in enumerate(_TYPED):
            for b in _TYPED[i + 1:]:
                assert Atom("id", Op.EQ, a) != Atom("id", Op.EQ, b), (a, b)
                assert Leaf(Atom("id", Op.EQ, a)) != Leaf(Atom("id", Op.EQ, b))
        assert Atom("id", Op.EQ, 1) == Atom("id", Op.EQ, 1)
        assert Atom("id", Op.EQ, 1.0) == Atom("id", Op.EQ, 1.0)
        assert Atom("id", Op.EQ, 1) != "id = 1"

    def test_in_lists_compare_element_wise(self):
        assert Atom("id", Op.IN, (1, 2)) == Atom("id", Op.IN, (1, 2))
        assert Atom("id", Op.IN, (1, 2)) != Atom("id", Op.IN, (1.0, 2))
        assert Atom("id", Op.IN, (1, 2)) != Atom("id", Op.IN, (True, 2))
        assert Atom("id", Op.IN, (1, 2)) != Atom("id", Op.IN, (1, 2, 3))

    def test_hash_is_the_dataclass_hash(self):
        """Set orders, tie-breaks and the golden plan digests hang on
        the hash value: it is what the generated ``__hash__`` returned."""
        for value in _TYPED + [(1, "x"), 40000, "BMW"]:
            op = Op.IN if isinstance(value, tuple) else Op.NE
            assert hash(Atom("make", op, value)) == hash(("make", op, value))

    def test_typed_constants_never_share_a_key(self):
        attrs = frozenset({"model"})
        seen = {}
        for value in _TYPED:
            tree = Leaf(Atom("id", Op.EQ, value))
            query = TargetQuery(tree, attrs, "car_guide")
            keys = (
                canonical_key(tree),
                plan_cache_key(query),
                flight_key("car_guide", tree, attrs),
                plan_fingerprint(plan_cache_key(query)),
            )
            for kind, key in enumerate(keys):
                assert (kind, key) not in seen, (value, seen[(kind, key)])
                seen[(kind, key)] = value

    def test_typed_constants_never_share_a_check_entry(self):
        from repro.source.library import car_guide_description

        description = car_guide_description()
        results = [
            bool(description.check(Leaf(Atom("id", Op.EQ, value))))
            for value in (True, 1, 1.0, "1", True, 1)
        ]
        # ``id = $num`` excludes bool and str, in either order of asking.
        assert results == [False, True, True, False, False, True]
        assert description.check_cache_size() == 4

    @given(st.lists(conditions, min_size=2, max_size=6, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_distinct_conditions_share_keys_only_when_equivalent(self, trees):
        """Keys collide exactly where the reference's do -- and the
        reference collides only on commuted/regrouped/duplicated
        spellings of one condition, so equal keys mean equal answers."""
        from repro.conditions.semantics import logically_equivalent

        for i, a in enumerate(trees):
            for b in trees[i + 1:]:
                same = canonical_key(a) == canonical_key(b)
                assert same == (
                    reference.canonical_key(a) == reference.canonical_key(b))
                if same:
                    assert logically_equivalent(a, b)
                assert (flight_key("s", a, frozenset()) ==
                        flight_key("s", b, frozenset())) == (
                    canonicalize(a) == canonicalize(b))


def test_marker_leaves_are_interned_and_bounded():
    from repro.conditions.fingerprint import _leaf_parts

    a = Fingerprint(parse_condition("make = 'BMW' and price < 1"))
    b = Fingerprint(parse_condition("make = 'Kia' and price < 2.5"))
    assert a.skeleton == b.skeleton
    assert a.skeleton.children[0] is b.skeleton.children[0]
    assert _leaf_parts.cache_info().maxsize == 4096


def test_constants_of_subclassed_types_strip_like_the_reference():
    """The class table is keyed by exact type; instances of subclasses
    (and anything that is not a str/bool/tuple) fall back to
    ``isinstance``, as the reference always did."""
    import decimal

    class Label(str):
        pass

    class Count(int):
        pass

    for value in (Label("BMW"), Count(3), decimal.Decimal("1.5")):
        tree = And([Leaf(Atom("a", Op.EQ, value)), Leaf(Atom("b", Op.EQ, 1))])
        assert Fingerprint(tree).skeleton == reference.Skeleton.of(tree).template
        assert canonical_key(tree) == reference.canonical_key(tree)


def test_non_canonical_trees_keep_their_own_skeleton():
    nested = parse_condition("a = 1 and (b = 2 and c = 3)")
    flat = parse_condition("a = 1 and b = 2 and c = 3")
    assert canonical_key(nested) == canonical_key(flat)
    assert Fingerprint(nested).skeleton != Fingerprint(flat).skeleton
    assert Fingerprint(nested).atoms == Fingerprint(flat).atoms


@pytest.mark.parametrize("seed", range(3))
def test_sort_text_is_the_repr_of_the_key(seed):
    """The pass carries ``repr(key)`` bottom-up instead of re-rendering
    it per sort; the two must be the same string for every node."""
    from repro.conditions.fingerprint import _walk

    rng = random.Random(seed)
    for _ in range(200):
        tree = _random_tree(rng)
        for node in tree.nodes():
            key, text, _ = _walk(canonicalize(node), [])
            assert text == repr(key)


def _random_tree(rng, depth=0):
    if depth > 2 or rng.random() < 0.3:
        value = rng.choice(_TYPED + [(1, "a"), (2.0,)])
        op = Op.IN if isinstance(value, tuple) else rng.choice([Op.EQ, Op.NE])
        return Leaf(Atom(rng.choice("ab"), op, value))
    cls = rng.choice([And, Or])
    return cls([_random_tree(rng, depth + 1)
                for _ in range(rng.randint(2, 4))])
