"""The tuple-backed data plane against its dict-row references.

* ``compile_predicate`` is a specialisation of ``Condition.evaluate``:
  a property test holds the two equal over every operator, nested
  connectors and the awkward values (``None``, missing attributes,
  bool-vs-int, str-vs-number, mixed-type columns).
* ``Relation``'s operators return the rows, **in the order**, that the
  row-at-a-time dict implementation they replaced returns; that
  implementation lives on here as the reference.
* Constants and attribute names are data: nothing a query carries can
  reach the generated source text.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions import predicate as predicate_module
from repro.conditions.atoms import Atom, Op
from repro.conditions.predicate import MAX_COMPILED_SHAPES, compile_predicate
from repro.conditions.tree import TRUE, And, Leaf, Or
from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema
from repro.errors import SchemaError

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_NAMES = ("a", "b", "c", "d")
#: ``e`` is an attribute no schema here has.
_CONDITION_ATTRS = _NAMES + ("e",)

_strings = st.sampled_from(["", "x", "X", "Dreams", "dreams of", "ab", "AB"])
_numbers = st.one_of(
    st.integers(-2, 3), st.sampled_from([0.0, 1.0, 1.5, -2.0, float("nan")])
)
_scalars = st.one_of(_strings, _numbers, st.booleans())
_values = st.one_of(st.none(), _scalars)


def _atoms():
    attrs = st.sampled_from(_CONDITION_ATTRS)
    ordered = st.sampled_from([Op.LT, Op.LE, Op.GT, Op.GE])
    return st.one_of(
        st.builds(Atom, attrs, st.sampled_from([Op.EQ, Op.NE]), _values),
        st.builds(Atom, attrs, ordered, st.one_of(_strings, _numbers)),
        st.builds(Atom, attrs, st.just(Op.CONTAINS), _strings),
        st.builds(Atom, attrs, st.just(Op.IN),
                  st.lists(_values, min_size=1, max_size=3).map(tuple)),
    )


def _connector(children):
    return st.one_of(
        st.builds(And, st.lists(children, min_size=2, max_size=3)),
        st.builds(Or, st.lists(children, min_size=2, max_size=3)),
    )


conditions = st.one_of(
    st.just(TRUE),
    st.recursive(st.builds(Leaf, _atoms()), _connector, max_leaves=8),
)

#: Rows that may lack attributes (what ``validate=False`` admits).
partial_rows = st.dictionaries(st.sampled_from(_NAMES), _values)

_UNTYPED = Schema.of("t", list(_NAMES))


def _as_tuple(row: dict, names=_NAMES) -> tuple:
    schema = Schema.of("t", list(names))
    return Relation(schema, [row], validate=False).tuples[0]


# ----------------------------------------------------------------------
# (a) compiled predicate == Condition.evaluate
# ----------------------------------------------------------------------

@given(conditions, partial_rows)
@settings(max_examples=600, deadline=None)
def test_compiled_predicate_equals_evaluate(condition, row):
    compiled = compile_predicate(condition, _NAMES)
    assert bool(compiled(_as_tuple(row))) == condition.evaluate(row)


@given(conditions, partial_rows, st.permutations(_NAMES))
@settings(max_examples=200, deadline=None)
def test_compiled_predicate_follows_the_attribute_order(condition, row, names):
    compiled = compile_predicate(condition, names)
    assert bool(compiled(_as_tuple(row, names))) == condition.evaluate(row)


@given(conditions, st.lists(partial_rows, max_size=6))
@settings(max_examples=200, deadline=None)
def test_select_equals_filtering_with_evaluate(condition, rows):
    relation = Relation(_UNTYPED, rows, validate=False)
    kept = [row for row in relation if condition.evaluate(row)]
    assert relation.select(condition).rows == kept


class TestAtomSemanticsTable:
    """The rows of the semantics table in ``predicate.py``, by hand."""

    @pytest.mark.parametrize("text_op", ["=", "!=", "<", "<=", ">", ">=",
                                         "contains", "in"])
    def test_none_and_missing_are_false(self, text_op):
        op = Op(text_op)
        value = {"contains": "x", "in": (1, None)}.get(text_op, 1)
        atom = Leaf(Atom("a", op, value))
        assert not compile_predicate(atom, ("a",))((None,))
        assert not compile_predicate(atom, ("b",))((1,))

    def test_string_against_number_under_an_ordered_operator(self):
        assert not compile_predicate(Leaf(Atom("a", Op.LT, 5)), ("a",))(("3",))
        assert not compile_predicate(Leaf(Atom("a", Op.GT, "3")), ("a",))((5,))

    def test_bool_and_float_compare_as_numbers(self):
        less = compile_predicate(Leaf(Atom("a", Op.LT, 2)), ("a",))
        assert less((True,)) and less((1.5,)) and not less((2.0,))
        assert compile_predicate(Leaf(Atom("a", Op.EQ, 1)), ("a",))((True,))

    def test_unorderable_row_value_is_false_not_an_error(self):
        assert not compile_predicate(
            Leaf(Atom("a", Op.LT, 5)), ("a",))(((1, 2),))

    def test_contains_ignores_case(self):
        contains = compile_predicate(
            Leaf(Atom("a", Op.CONTAINS, "DrEaMs")), ("a",))
        assert contains(("The Interpretation of dREAMS",))
        assert not contains((7,))

    def test_constant_subclass_takes_the_reference_path(self):
        class Celsius(int):
            pass

        atom = Atom("a", Op.LE, Celsius(3))
        compiled = compile_predicate(Leaf(atom), ("a",))
        for value in (2, 3, 4, "3", None):
            assert compiled((value,)) == atom.matches({"a": value})


class TestCompileCache:
    def setup_method(self):
        predicate_module._binder.cache_clear()

    def test_two_attribute_orders_never_share_a_predicate(self):
        condition = Leaf(Atom("a", Op.EQ, 1))
        first = compile_predicate(condition, ("a", "b"))
        second = compile_predicate(condition, ("b", "a"))
        assert first((1, 2)) and not second((1, 2))
        assert second((2, 1)) and not first((2, 1))
        assert predicate_module._binder.cache_info().currsize == 2

    def test_fresh_constants_rebind_without_recompiling(self):
        for constant in range(50):
            compiled = compile_predicate(
                Leaf(Atom("a", Op.EQ, constant)), ("a",))
            assert compiled((constant,)) and not compiled((constant + 1,))
        info = predicate_module._binder.cache_info()
        assert (info.misses, info.hits) == (1, 49)

    def test_the_cache_is_bounded(self):
        names = tuple(f"a{i}" for i in range(MAX_COMPILED_SHAPES + 40))
        for name in names:
            compile_predicate(Leaf(Atom(name, Op.EQ, 1)), names)
        info = predicate_module._binder.cache_info()
        assert info.maxsize == MAX_COMPILED_SHAPES
        assert info.currsize == MAX_COMPILED_SHAPES

    def test_nesting_deeper_than_the_compiler_takes_is_interpreted(self):
        condition = Leaf(Atom("a", Op.EQ, 1))
        for depth in range(260):
            connector = And if depth % 2 else Or
            condition = connector([condition, Leaf(Atom("b", Op.GE, depth))])
        compiled = compile_predicate(condition, ("a", "b"))
        for row in ({"a": 1, "b": 0}, {"a": 0, "b": 300}, {"a": 0, "b": -1}):
            assert compiled((row["a"], row["b"])) == condition.evaluate(row)


# ----------------------------------------------------------------------
# (b) operator parity with the dict-row implementation
# ----------------------------------------------------------------------

def _dedupe(rows: list[dict], order) -> list[dict]:
    seen: set = set()
    out: list[dict] = []
    for row in rows:
        key = tuple(row[a] for a in order)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


class DictRelation:
    """``Relation`` as it was: a list of dict rows, a loop per operator."""

    def __init__(self, schema: Schema, rows):
        self.schema = schema
        self.rows = [dict(row) for row in rows]

    def select(self, condition):
        return DictRelation(
            self.schema, [r for r in self.rows if condition.evaluate(r)])

    def project(self, attributes):
        attrs = self.schema.validate_attributes(attributes)
        ordered = [a for a in self.schema.attribute_names if a in attrs]
        sub_schema = Schema(
            self.schema.name,
            tuple(a for a in self.schema.attrs if a.name in attrs),
            self.schema.key if self.schema.key in attrs else None,
        )
        projected = [{a: row[a] for a in ordered} for row in self.rows]
        return DictRelation(sub_schema, _dedupe(projected, ordered))

    def _order(self, other):
        mine = self.schema.attribute_names
        if set(mine) != set(other.schema.attribute_names):
            raise SchemaError("set operation over different attribute sets")
        return mine

    def union(self, other):
        order = self._order(other)
        aligned = [{a: r[a] for a in order} for r in other.rows]
        return DictRelation(self.schema, _dedupe(self.rows + aligned, order))

    def intersect(self, other):
        order = self._order(other)
        theirs = {tuple(r[a] for a in order) for r in other.rows}
        kept = [r for r in self.rows
                if tuple(r[a] for a in order) in theirs]
        return DictRelation(self.schema, _dedupe(kept, order))

    def distinct(self):
        return DictRelation(
            self.schema, _dedupe(self.rows, self.schema.attribute_names))


_TYPED = Schema.of(
    "t",
    [("k", AttrType.INT), ("s", AttrType.STRING), ("n", AttrType.FLOAT),
     ("f", AttrType.BOOL)],
    key="k",
)
#: The same attributes listed in another order.
_REORDERED = Schema.of(
    "t",
    [("n", AttrType.FLOAT), ("f", AttrType.BOOL), ("k", AttrType.INT),
     ("s", AttrType.STRING)],
    key="k",
)

# Small domains: duplicate-heavy projections, overlapping operands.
_typed_rows = st.lists(
    st.fixed_dictionaries({
        "k": st.integers(0, 4),
        "s": st.one_of(st.none(), st.sampled_from(["x", "Y", "dreams"])),
        "n": st.sampled_from([0, 1, 1.0, 2.5]),
        "f": st.booleans(),
    }),
    max_size=12,
)
_typed_conditions = st.recursive(
    st.one_of(
        st.builds(lambda v: Leaf(Atom("k", Op.LE, v)), st.integers(0, 4)),
        st.builds(lambda v: Leaf(Atom("s", Op.CONTAINS, v)),
                  st.sampled_from(["X", "y", "dream"])),
        st.builds(lambda v: Leaf(Atom("n", Op.NE, v)),
                  st.sampled_from([1, 2.5])),
        st.builds(lambda v: Leaf(Atom("f", Op.EQ, v)), st.booleans()),
        st.builds(lambda v: Leaf(Atom("k", Op.IN, v)),
                  st.lists(st.integers(0, 4), min_size=1, max_size=3)
                  .map(tuple)),
    ),
    _connector,
    max_leaves=5,
)
_attribute_sets = st.sets(
    st.sampled_from(_TYPED.attribute_names), min_size=1)


def _same(actual: Relation, expected: DictRelation) -> None:
    assert actual.schema == expected.schema
    names = expected.schema.attribute_names

    def exact(rows):  # 1 is not 1.0 is not True
        return [[(a, type(row[a]), row[a]) for a in names] for row in rows]

    assert all(tuple(row) == names for row in actual)
    assert exact(actual.rows) == exact(expected.rows)  # same rows, same order


@given(_typed_rows, _typed_conditions, _attribute_sets)
@settings(max_examples=300, deadline=None)
def test_select_project_distinct_match_the_dict_reference(
        rows, condition, attrs):
    actual, reference = Relation(_TYPED, rows), DictRelation(_TYPED, rows)
    _same(actual.select(condition), reference.select(condition))
    _same(actual.project(attrs), reference.project(attrs))  # key-less too
    _same(actual.sp(condition, attrs),
          reference.select(condition).project(attrs))
    _same(actual.distinct(), reference.distinct())


@given(_typed_rows, _typed_rows, _attribute_sets)
@settings(max_examples=300, deadline=None)
def test_union_intersect_match_the_dict_reference(left, right, attrs):
    mine, ref_mine = Relation(_TYPED, left), DictRelation(_TYPED, left)
    for schema in (_TYPED, _REORDERED):
        theirs, ref_theirs = Relation(schema, right), DictRelation(schema, right)
        _same(mine.union(theirs), ref_mine.union(ref_theirs))
        _same(theirs.union(mine), ref_theirs.union(ref_mine))
        _same(mine.intersect(theirs), ref_mine.intersect(ref_theirs))
        _same(theirs.intersect(mine), ref_theirs.intersect(ref_mine))
        _same(mine.project(attrs).union(theirs.project(attrs)),
              ref_mine.project(attrs).union(ref_theirs.project(attrs)))
        _same(mine.project(attrs).intersect(theirs.project(attrs)),
              ref_mine.project(attrs).intersect(ref_theirs.project(attrs)))


def test_set_operations_reject_different_attribute_sets():
    left = Relation(_TYPED, []).project({"k", "s"})
    right = Relation(_TYPED, []).project({"k", "n"})
    with pytest.raises(SchemaError):
        left.union(right)
    with pytest.raises(SchemaError):
        left.intersect(right)


def test_nothing_handed_out_reaches_the_stored_rows():
    import random

    relation = Relation(_TYPED, [
        {"k": i, "s": "x", "n": 1.0, "f": True} for i in range(4)
    ])
    before = relation.as_row_set()
    for row in relation:
        row["s"] = "MUTATED"
    relation.rows[0]["s"] = "MUTATED"
    for row in relation.sample(2, random.Random(0)) + \
            relation.sample(9, random.Random(0)):
        row.clear()
    assert relation.select(TRUE) is relation  # shared, hence the above
    assert relation.as_row_set() == before
    assert all(row["s"] == "x" for row in relation)


# ----------------------------------------------------------------------
# (c) constants and attribute names are data
# ----------------------------------------------------------------------

_HOSTILE = [
    "'", '"', "\\", "a'b\"c", "line\nbreak", "\\'); import os; ('",
    "__import__('os').system('true')", "t[0]", "c0", "' or True or '",
    "{0}", "%s", "\x00",
]
_TOKEN = re.compile(
    r"t\[\d+\]|c\d+|m\(|isinstance\(|\.lower\(\)|\.__class__|"
    r"\b(?:and|or|not|is|in|if|else|None|True|False|S|N)\b|"
    r"==|!=|<=|>=|<|>|[(), ]"
)


def _generated_source(condition, names) -> str:
    return predicate_module._source(
        condition, {name: i for i, name in enumerate(names)}, [])


@pytest.mark.parametrize("hostile", _HOSTILE)
def test_hostile_strings_compile_and_evaluate_as_data(hostile):
    names = (hostile, "other")
    condition = Or([
        And([Leaf(Atom(hostile, Op.EQ, hostile)),
             Leaf(Atom(hostile, Op.CONTAINS, hostile))]),
        Leaf(Atom("other", Op.IN, (hostile, 1))),
        Leaf(Atom("other", Op.GE, hostile)),
    ])
    compiled = compile_predicate(condition, names)
    for row in ({hostile: hostile, "other": 0},
                {hostile: "plain", "other": hostile},
                {hostile: None, "other": None}):
        assert compiled((row[hostile], row["other"])) == \
            condition.evaluate(row)
    source = _generated_source(condition, names)
    assert _TOKEN.sub("", source) == "", source
    relation = Relation(
        Schema.of("t", list(names)), [{hostile: hostile, "other": "0"}])
    assert len(relation.select(condition)) == 1


def test_generated_code_sees_no_builtins():
    assert predicate_module._NAMESPACE["__builtins__"] == {}
    for name in ("__import__", "open", "eval", "exec", "getattr"):
        with pytest.raises(NameError):
            eval(name, predicate_module._NAMESPACE)
