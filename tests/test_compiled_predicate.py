"""The tuple-backed data plane against its dict-row references.

* The compiled σπ kernel is a specialisation of ``Condition.evaluate``:
  a property test holds the two equal over every operator, nested
  connectors and the awkward values (``None``, missing attributes,
  bool-vs-int, str-vs-number, mixed-type columns), under any
  projection.
* The compiled code is keyed by the condition's shape: equal shapes are
  equal texts, and constants that ``==`` conflates (``1``, ``1.0``,
  ``True``, ``'1'``, subclasses) still bind as ``evaluate`` reads them.
* ``Relation``'s operators return the rows, **in the order**, that the
  row-at-a-time dict implementation they replaced returns; that
  implementation lives on here as the reference -- also when a proven
  unique key lets π, ``SP``, ∩ and ``distinct`` skip deduplication, and
  when the projection comes from the schema's memo.
* The column proofs are sound: a kernel compiled under a relation's
  proofs (which drops the per-row ``None`` and class guards) still
  equals ``evaluate`` on columns mixing numbers, NaN, bools, strings,
  ``None``, subclasses and tuples, and no operator chain carries a proof
  its result's rows do not bear out.
* Constants and attribute names are data: nothing a query carries can
  reach the generated source text.
"""

import re
from itertools import count
from operator import itemgetter
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions import predicate as predicate_module
from repro.conditions.atoms import Atom, Op
from repro.conditions.predicate import (
    KEEP_ALL,
    MAX_COMPILED_SHAPES,
    NUMBERS,
    STRINGS,
    compile_kernel,
)
from repro.conditions.tree import TRUE, And, Leaf, Or
from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema
from repro.errors import ConditionError, SchemaError, UnknownAttributeError

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


def _kernel_equals_evaluate(condition, rows, names, positions) -> None:
    """The kernel keeps exactly the rows ``evaluate`` accepts, in order,
    each mapped by the projection it is handed."""
    tuples = [_as_tuple(row, names) for row in rows]
    kernel = compile_kernel(condition, names)
    g = itemgetter(*positions) if positions else KEEP_ALL
    assert kernel(tuples, g) == [
        g(t) for t, row in zip(tuples, rows) if condition.evaluate(row)]


# ----------------------------------------------------------------------
# (a) compiled kernel == Condition.evaluate
# ----------------------------------------------------------------------

_positions = st.lists(st.integers(0, len(_NAMES) - 1), max_size=3)


@given(conditions, st.lists(partial_rows, max_size=4), _positions)
@settings(max_examples=600, deadline=None)
def test_compiled_predicate_equals_evaluate(condition, rows, positions):
    _kernel_equals_evaluate(condition, rows, _NAMES, positions)


@given(conditions, st.lists(partial_rows, max_size=4),
       st.permutations(_NAMES), _positions)
@settings(max_examples=200, deadline=None)
def test_compiled_predicate_follows_the_attribute_order(
        condition, rows, names, positions):
    _kernel_equals_evaluate(condition, rows, names, positions)


@given(conditions, st.lists(partial_rows, max_size=6))
@settings(max_examples=200, deadline=None)
def test_select_equals_filtering_with_evaluate(condition, rows):
    relation = Relation(_UNTYPED, rows, validate=False)
    kept = [row for row in relation if condition.evaluate(row)]
    assert relation.select(condition).rows == kept


def compile_predicate(condition, names):
    """The kernel on one row tuple: whether it keeps the row."""
    kernel = compile_kernel(condition, names)
    return lambda t: bool(kernel([t], KEEP_ALL))


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


def _shape(condition, names) -> tuple:
    return predicate_module._shape(
        condition, predicate_module._columns(tuple(names), None, None), [])


def _constants(condition, names) -> list:
    constants: list = []
    predicate_module._shape(
        condition, predicate_module._columns(tuple(names), None, None), constants)
    return constants


class TestCompileCache:
    """One cache, keyed by the condition's shape: the text is rendered
    from the shape on a miss and never on a hit."""

    def setup_method(self):
        predicate_module._binder.cache_clear()

    def test_fresh_constants_rebind_without_recompiling(self):
        rows = [(c,) for c in range(51)]
        shapes = set()
        with mock.patch.object(predicate_module, "_source",
                               wraps=predicate_module._source) as render:
            for constant in range(50):
                condition = Leaf(Atom("a", Op.EQ, constant))
                kernel = compile_kernel(condition, ("a",))
                assert kernel(rows, KEEP_ALL) == [(constant,)]
                assert _constants(condition, ("a",)) == [constant]
                shapes.add(_shape(condition, ("a",)))
        assert shapes == {(0, "=")}
        assert render.call_count == 1  # the one miss renders, hits do not
        info = predicate_module._binder.cache_info()
        assert (info.misses, info.hits) == (1, 49)

    def test_two_attribute_orders_never_share_a_predicate(self):
        condition = Leaf(Atom("a", Op.EQ, 1))
        assert _shape(condition, ("a", "b")) != _shape(condition, ("b", "a"))
        first = compile_predicate(condition, ("a", "b"))
        second = compile_predicate(condition, ("b", "a"))
        assert first((1, 2)) and not second((1, 2))
        assert second((2, 1)) and not first((2, 1))
        assert predicate_module._binder.cache_info().currsize == 2

    def test_the_projection_is_an_argument_not_a_shape(self):
        schema = Schema.of("t", ["a", "b", "c"], key="a")
        relation = Relation(schema, [{"a": str(i), "b": "ab"[i % 2], "c": "x"}
                                     for i in range(6)])
        condition = Leaf(Atom("b", Op.EQ, "b"))
        for attrs in ({"a"}, {"b"}, {"a", "c"}, {"a", "b", "c"}):
            relation.sp(condition, attrs)
        relation.select(condition)
        info = predicate_module._binder.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_the_cache_is_bounded(self):
        names = tuple(f"a{i}" for i in range(MAX_COMPILED_SHAPES + 40))
        for name in names:
            compile_kernel(Leaf(Atom(name, Op.EQ, 1)), names)
        info = predicate_module._binder.cache_info()
        assert info.maxsize == MAX_COMPILED_SHAPES
        assert info.currsize == MAX_COMPILED_SHAPES

    def test_nesting_deeper_than_the_compiler_takes_is_interpreted(self):
        condition = Leaf(Atom("a", Op.EQ, 1))
        for depth in range(260):
            connector = And if depth % 2 else Or
            condition = connector([condition, Leaf(Atom("b", Op.GE, depth))])
        rows = [{"a": 1, "b": 0}, {"a": 0, "b": 300}, {"a": 0, "b": -1}]
        for positions in ((), (1,), (1, 0)):
            _kernel_equals_evaluate(condition, rows, ("a", "b"), positions)
        assert predicate_module._binder.cache_info().currsize == 0


# ----------------------------------------------------------------------
# (a') one shape, one text; any constants bind as ``evaluate`` reads them
# ----------------------------------------------------------------------

class _Int(int):
    pass


class _Str(str):
    pass


#: Constants ``==`` and ``hash`` take for one another while the atom
#: semantics do not (``1``, ``1.0``, ``True``, ``'1'`` and subclasses).
_mixed = st.sampled_from(
    [1, 1.0, True, "1", 0, 0.0, False, "", "A", _Int(1), _Str("1"), _Str("a")])
_mixed_cells = st.one_of(st.none(), _mixed)
_orderable = _mixed.filter(lambda v: not isinstance(v, bool))


def _mixed_constant(op: Op):
    if op is Op.IN:
        return st.lists(_mixed_cells, min_size=1, max_size=3).map(tuple)
    if op is Op.CONTAINS:
        return _mixed.filter(lambda v: isinstance(v, str))
    if op in (Op.EQ, Op.NE):
        return _mixed_cells
    return _orderable


_mixed_atoms = st.sampled_from(list(Op)).flatmap(
    lambda op: st.builds(Atom, st.sampled_from(_CONDITION_ATTRS), st.just(op),
                         _mixed_constant(op)))
mixed_conditions = st.recursive(
    st.builds(Leaf, _mixed_atoms), _connector, max_leaves=6)


def _rebound(condition, draw, keep_ops: bool = True):
    """``condition`` with every constant drawn afresh -- and every
    operator too unless ``keep_ops`` -- over the same attributes."""
    if condition.is_leaf:
        atom = condition.atom
        op = atom.op if keep_ops else draw(st.sampled_from(list(Op)))
        return Leaf(Atom(atom.attribute, op, draw(_mixed_constant(op))))
    return type(condition)([_rebound(child, draw, keep_ops)
                            for child in condition.children])


@given(mixed_conditions, st.data(),
       st.lists(st.dictionaries(st.sampled_from(_NAMES), _mixed_cells),
                max_size=5),
       st.permutations(_NAMES))
@settings(max_examples=400, deadline=None)
def test_equal_shapes_render_equal_text_and_bind_as_evaluate(
        condition, data, rows, names):
    twin = _rebound(condition, data.draw)
    other = _rebound(condition, data.draw, keep_ops=False)
    for left, right in ((condition, twin), (condition, other)):
        assert (_shape(left, names) == _shape(right, names)) == (
            _generated_source(left, names) == _generated_source(right, names))
    # A later compile of an equal shape binds into the first one's code.
    for tree in (condition, twin, other):
        _kernel_equals_evaluate(tree, rows, names, (0,))


# ----------------------------------------------------------------------
# (a'') the projection memo: one entry per attribute set, its key proof
# ANDed per relation
# ----------------------------------------------------------------------

class TestProjectionMemo:
    ROWS = [{"k": i, "s": "x", "n": 1.0, "f": True} for i in range(3)]

    def _schema(self) -> Schema:
        """``_TYPED`` with an empty memo of its own."""
        return Schema("t", _TYPED.attrs, key="k")

    def test_a_hit_that_drops_the_key_loses_the_proof(self):
        relation = Relation(self._schema(), self.ROWS)
        assert relation.key_unique
        condition = Leaf(Atom("n", Op.GE, 0))
        for _ in range(2):  # a miss, then a hit
            assert not relation.project({"s", "n"}).key_unique
            assert not relation.sp(condition, {"s", "n"}).key_unique
            assert relation.sp(condition, {"k", "s"}).key_unique
        assert relation.schema.projection({"s", "n"})[2] is False

    def test_an_unproven_relation_never_gains_the_proof(self):
        schema = self._schema()
        proven = Relation(schema, self.ROWS)
        unproven = Relation(schema, self.ROWS + self.ROWS[:1])
        assert proven.key_unique and not unproven.key_unique
        condition = Leaf(Atom("n", Op.GE, 0))
        assert proven.sp(condition, {"k", "s"}).key_unique
        assert proven.project({"k", "s"}).key_unique
        # Both fill no new entry: they read the proven relation's.
        entries = len(schema._projections)
        assert not unproven.sp(condition, {"k", "s"}).key_unique
        assert not unproven.project({"k", "s"}).key_unique
        assert len(schema._projections) == entries

    def test_a_list_or_set_meets_the_frozenset_entry(self):
        schema = self._schema()
        entry = schema.projection(frozenset({"k", "s"}))
        assert schema.projection(["s", "k"]) is entry
        assert schema.projection({"k", "s"}) is entry
        assert schema.project(("s", "k", "s")) is entry[0]
        relation = Relation(schema, self.ROWS)
        assert relation.project(["s", "k"]).schema is entry[0]
        everything = schema.projection(list(schema.attribute_names))
        assert everything == (schema, KEEP_ALL, True)

    def test_an_unknown_attribute_still_raises(self):
        schema = self._schema()
        relation = Relation(schema, self.ROWS)
        relation.project({"k", "s"})
        for attrs in ({"k", "ghost"}, ["ghost"], frozenset({"s", "ghost"})):
            with pytest.raises(UnknownAttributeError):
                relation.project(attrs)
            with pytest.raises(UnknownAttributeError):
                relation.sp(Leaf(Atom("k", Op.EQ, 1)), attrs)
        assert set(schema._projections) == {frozenset({"k", "s"})}


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


def _rows_keyed_by(keys, **unique):
    """Up to 12 rows whose key ``k`` is drawn from ``keys``."""
    return st.lists(
        st.fixed_dictionaries({
            "k": keys,
            "s": st.one_of(st.none(), st.sampled_from(["x", "Y", "dreams"])),
            "n": st.sampled_from([0, 1, 1.0, 2.5]),
            "f": st.booleans(),
        }),
        max_size=12, **unique,
    )


# Small domains: duplicate-heavy projections, overlapping operands.
_typed_rows = _rows_keyed_by(st.integers(0, 4))
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


# ----------------------------------------------------------------------
# (b') the key proof: skipping deduplication changes no row and no order
# ----------------------------------------------------------------------

#: Key columns the proof must tell apart: unique, repeating, holding
#: ``None``, holding unhashable values.
_unique_rows = _rows_keyed_by(st.integers(0, 12), unique_by=lambda row: row["k"])
_key_columns = st.one_of(
    _unique_rows,
    _typed_rows,
    _rows_keyed_by(st.one_of(st.none(), st.integers(0, 12))),
    _rows_keyed_by(st.one_of(st.integers(0, 12),
                             st.lists(st.integers(0, 2), max_size=1))),
)
_schemas = st.sampled_from([_TYPED, _REORDERED])


def _proof_holds(relation: Relation, exact: bool = False) -> None:
    """A claimed proof is true; with ``exact``, a true one is claimed."""
    key = relation.schema.key
    keys = [row[key] for row in relation] if key is not None else None
    try:
        unique = (keys is not None and None not in keys
                  and len(set(keys)) == len(keys))
    except TypeError:
        unique = False
    if exact:
        assert relation.key_unique == unique
    else:
        assert unique or not relation.key_unique


def _step(pair, op, other=(None, None)):
    """``op`` on the relation and on its reference: the same rows in the
    same order, or the same ``TypeError`` (an unhashable value meeting
    deduplication, as it always has); ``None`` once the chain stops."""
    if pair is None or other is None:
        return None
    actual, expected = pair
    try:
        want = op(expected, other[1])
    except TypeError:
        with pytest.raises(TypeError):
            op(actual, other[0])
        return None
    got = op(actual, other[0])
    _same(got, want)
    _proof_holds(got)
    return got, want


def _sp(condition, attrs):
    """``SP`` as a step: one fused pass, σ then π on the reference."""
    return lambda r, _: (r.sp(condition, attrs) if isinstance(r, Relation)
                         else r.select(condition).project(attrs))


def _built(rows, schema=_TYPED):
    relation = Relation(schema, rows, validate=False)
    _proof_holds(relation, exact=True)
    return relation, DictRelation(schema, rows)


class TestKeyProof:
    @given(_key_columns, _key_columns, _schemas, _typed_conditions,
           _typed_conditions, _attribute_sets)
    @settings(max_examples=300, deadline=None)
    def test_chains_match_the_dict_reference(
            self, left, right, schema, condition, other_condition, attrs):
        mine = _built(left)
        theirs = _step(_built(right, schema), _sp(other_condition, attrs))
        selected = _step(mine, lambda r, _: r.select(condition))
        projected = _step(selected, lambda r, _: r.project(attrs))
        _step(mine, _sp(condition, attrs))
        both = _step(projected, lambda r, o: r.intersect(o), theirs)
        final = _step(both, lambda r, _: r.distinct())
        if final is not None and mine[0].key_unique and "k" in attrs:
            # σ, a key-keeping π, ∩ and distinct all keep the proof.
            assert final[0].key_unique

    @given(_key_columns, _key_columns, _schemas, _typed_conditions,
           _typed_conditions, _attribute_sets)
    @settings(max_examples=300, deadline=None)
    def test_union_of_keyed_operands_matches_the_dict_reference(
            self, left, right, schema, condition, other_condition, attrs):
        mine, theirs = _built(left), _built(right, schema)
        for a, b in ((mine, theirs), (mine, mine), (theirs, mine)):
            union = _step(_step(a, _sp(condition, attrs)),
                          lambda r, o: r.union(o),
                          _step(b, _sp(other_condition, attrs)))
            if union is not None:
                assert not union[0].key_unique  # ∪ loses the proof
            _step(union, lambda r, _: r.project(attrs))
            _step(union, lambda r, _: r.distinct())

    @given(_unique_rows, _schemas, st.data())
    @settings(max_examples=100, deadline=None)
    def test_intersect_takes_the_proof_of_its_left_operand_only(
            self, rows, schema, data):
        repeated = _built(data.draw(st.lists(st.sampled_from(rows), max_size=12))
                          if rows else [])
        keyed = _built(rows, schema)
        for left, right in ((repeated, keyed), (keyed, repeated)):
            _step(left, lambda r, o: r.intersect(o), right)

    def test_an_unhashable_key_builds_unkeyed_as_before(self):
        rows = [{"k": [1], "s": "x", "n": 1.0, "f": True},
                {"k": [1], "s": "y", "n": 2.5, "f": False}]
        with pytest.raises(SchemaError):
            Relation(_TYPED, rows)
        relation = Relation(_TYPED, rows, validate=False)
        assert not relation.key_unique
        assert relation.tuples == (([1], "x", 1.0, True),
                                   ([1], "y", 2.5, False))
        assert relation.select(Leaf(Atom("f", Op.EQ, False))).tuples == \
            relation.tuples[1:]
        assert relation.project({"s"}).tuples == (("x",), ("y",))
        with pytest.raises(TypeError):
            relation.distinct()
        with pytest.raises(TypeError):
            relation.project({"k", "s"})

    def test_a_key_of_none_or_a_repeated_key_proves_nothing(self):
        row = {"s": "x", "n": 1.0, "f": True}
        assert Relation(_TYPED, [{**row, "k": i} for i in range(3)]).key_unique
        assert Relation(_TYPED, []).key_unique
        assert not Relation(_TYPED, [{**row, "k": None}]).key_unique
        assert not Relation(_TYPED, [{**row, "k": 1}, {**row, "k": 1}]).key_unique
        assert not Relation(_UNTYPED, [{"a": "x"}], validate=False).key_unique


# ----------------------------------------------------------------------
# (b'') column proofs: a proven kernel equals evaluate, and no chain
# carries a proof its rows do not bear out
# ----------------------------------------------------------------------

_NAN = float("nan")
#: Values a column may mix: numbers (NaN included), bools, strings,
#: ``None``, int and str subclasses, tuples.
_CELL_POOLS = {
    "numbers": [0, 1, 2, -3, 1.5, 0.0, _NAN, True, False],
    "strings": ["", "x", "X", "ab", "Dreams", "dreams of"],
    "numbers+none": [1, 2.5, None, False],
    "strings+none": ["x", "ab", None],
    "ints+subclass": [1, 2, _Int(1), _Int(3)],
    "strings+subclass": ["x", "ab", _Str("x"), _Str("AB")],
    "tuples": [(1,), (1, "x"), ()],
    "anything": [1, 1.5, _NAN, True, "x", None, _Int(2), _Str("ab"), (1,)],
}
_KEYED = Schema.of("t", ["k"] + list(_NAMES), key="k")
#: The same attributes in another order, for ∪ and ∩ operands.
_KEYED_REORDERED = Schema.of("t", list(reversed(_NAMES)) + ["k"], key="k")


@st.composite
def _mixed_relation_rows(draw, max_size=8):
    """Rows whose every column draws from one pool (often homogeneous,
    so proofs are made), keyed uniquely, repeatedly or with ``None``."""
    pools = {name: draw(st.sampled_from(sorted(_CELL_POOLS)))
             for name in _NAMES}
    size = draw(st.integers(0, max_size))
    keys = draw(st.sampled_from(["unique", "repeating", "none"]))
    rows = []
    for index in range(size):
        row = {name: draw(st.sampled_from(_CELL_POOLS[pools[name]]))
               for name in _NAMES}
        row["k"] = {"unique": index, "repeating": index % 3,
                    "none": None if index == 1 else index}[keys]
        rows.append(row)
    return rows


def _true_classes(relation: Relation) -> tuple:
    """The proof recomputed from the rows: per column, every class the
    rows show."""
    columns = zip(*relation.tuples) if len(relation) else [
        () for _ in relation.schema.attribute_names]
    return tuple({type(v) for v in column} for column in columns)


def _classes_hold(relation: Relation) -> None:
    """Every carried proof is borne out by the result's own rows."""
    claims = relation.column_classes
    assert len(claims) == len(relation.schema.attribute_names)
    for claim, classes in zip(claims, _true_classes(relation)):
        if claim == NUMBERS:
            assert classes <= {int, float, bool}, classes
        elif claim == STRINGS:
            assert classes <= {str}, classes
        else:
            assert claim is None


#: A constant of every class an atom may carry.
_CONSTANTS = [0, 2, -1, 1.5, _NAN, True, False, "", "x", "AB", "dreams",
              _Int(1), _Str("x"), None, (1, "x")]


def _every_atom(attribute: str):
    """One atom per operator × constant class the constructor admits
    (``in`` takes each constant alone and beside a string and ``None``)."""
    for op in Op:
        for constant in _CONSTANTS:
            value = (constant, "x", None) if op is Op.IN else constant
            try:
                yield Atom(attribute, op, value)
            except ConditionError:
                continue


class TestColumnProofs:
    @given(_mixed_relation_rows())
    @settings(max_examples=120, deadline=None)
    def test_the_built_proof_is_exact(self, rows):
        relation = Relation(_KEYED, rows, validate=False)
        for claim, classes in zip(relation.column_classes,
                                  _true_classes(relation)):
            expected = None
            if classes and classes <= {int, float, bool}:
                expected = NUMBERS
            elif classes == {str}:
                expected = STRINGS
            assert claim == expected

    @given(_mixed_relation_rows())
    @settings(max_examples=80, deadline=None)
    def test_every_operator_and_constant_class_equals_evaluate(self, rows):
        relation = Relation(_KEYED, rows, validate=False)
        names = _KEYED.attribute_names
        tuples = relation.tuples
        for name in names:
            for atom in _every_atom(name):
                condition = Leaf(atom)
                kernel = compile_kernel(condition, names,
                                        relation.column_classes)
                expected = [t for t, row in zip(tuples, rows)
                            if condition.evaluate(row)]
                assert kernel(tuples, KEEP_ALL) == expected, atom
                assert relation.select(condition).tuples == tuple(expected)

    @given(_mixed_relation_rows(), conditions)
    @settings(max_examples=200, deadline=None)
    def test_proven_trees_equal_evaluate(self, rows, condition):
        relation = Relation(_KEYED, rows, validate=False)
        kept = [row for row in relation if condition.evaluate(row)]
        assert relation.select(condition).rows == kept

    @given(_mixed_relation_rows(), _mixed_relation_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_chain_claims_more_than_its_rows(self, left, right, data):
        current = Relation(_KEYED, left, validate=False)
        other = Relation(
            data.draw(st.sampled_from([_KEYED, _KEYED_REORDERED])), right,
            validate=False)
        _classes_hold(current)
        _classes_hold(other)
        steps = data.draw(st.lists(st.sampled_from(
            ["select", "project", "sp", "union", "intersect", "distinct"]),
            max_size=5))
        for step in steps:
            attrs = current.schema.attribute_names
            try:
                if step == "select":
                    current = current.select(data.draw(conditions))
                elif step == "project":
                    current = current.project(data.draw(
                        st.sets(st.sampled_from(attrs), min_size=1)))
                elif step == "sp":
                    current = current.sp(data.draw(conditions), data.draw(
                        st.sets(st.sampled_from(attrs), min_size=1)))
                elif step == "distinct":
                    current = current.distinct()
                else:
                    operand = other.project(attrs)
                    current = getattr(current, step)(operand)
            except TypeError:  # an unhashable row met deduplication
                return
            _classes_hold(current)

    def test_proofs_propagate_by_the_stated_rules(self):
        numbers = {"k": 1, "a": 1, "b": "x", "c": None, "d": 2.5}
        strings = {"k": 2, "a": "y", "b": "z", "c": None, "d": True}
        relation = Relation(_KEYED, [numbers], validate=False)
        n, s = NUMBERS, STRINGS
        assert relation.column_classes == (n, n, s, None, n)
        assert relation.select(Leaf(Atom("a", Op.EQ, 0))).column_classes \
            == relation.column_classes  # σ keeps it, even with no rows left
        assert relation.project({"d", "b"}).column_classes == (s, n)
        assert relation.sp(Leaf(Atom("a", Op.GE, 0)), {"a"}).column_classes \
            == (n,)
        assert relation.distinct().column_classes == relation.column_classes
        other = Relation(_KEYED_REORDERED, [strings], validate=False)
        assert relation.union(other).column_classes == (n, None, s, None, n)
        assert relation.intersect(other).column_classes == \
            relation.column_classes
        assert Relation(_KEYED, []).column_classes == (None,) * 5
        subclassed = Relation(_KEYED, [{**numbers, "a": _Int(1),
                                         "b": _Str("x")}], validate=False)
        assert subclassed.column_classes == (n, None, None, None, n)

    def test_a_proven_column_compiles_without_guards(self):
        relation = Relation(_KEYED, [{"k": 1, "a": 2, "b": "x", "c": None,
                                      "d": 1.5}], validate=False)
        names = relation.schema.attribute_names
        classes = relation.column_classes

        def text(atom):
            shape = predicate_module._shape(
                Leaf(atom), predicate_module._columns(names, classes, None), [])
            return predicate_module._source(shape, count())

        assert text(Atom("a", Op.LT, 3)) == "t[1] < c0"
        assert text(Atom("b", Op.GE, "w")) == "t[2] >= c0"
        assert text(Atom("a", Op.NE, 3)) == "t[1] != c0"
        assert text(Atom("b", Op.IN, ("x", "y"))) == "t[2] in c0"
        assert text(Atom("b", Op.CONTAINS, "X")) == "c0 in t[2].lower()"
        # An unproven column, or a constant of the other class, keeps
        # its guard.
        assert "is not None" in text(Atom("c", Op.NE, 3))
        assert "isinstance" in text(Atom("a", Op.CONTAINS, "x"))
        assert "m(" in text(Atom("a", Op.LT, "x"))
        assert "m(" in text(Atom("b", Op.LT, 3))


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
    return predicate_module._source(_shape(condition, names), count())


@pytest.mark.parametrize("hostile", _HOSTILE)
def test_hostile_strings_compile_and_evaluate_as_data(hostile):
    names = (hostile, "other")
    condition = Or([
        And([Leaf(Atom(hostile, Op.EQ, hostile)),
             Leaf(Atom(hostile, Op.CONTAINS, hostile))]),
        Leaf(Atom("other", Op.IN, (hostile, 1))),
        Leaf(Atom("other", Op.GE, hostile)),
    ])
    _kernel_equals_evaluate(condition, [
        {hostile: hostile, "other": 0},
        {hostile: "plain", "other": hostile},
        {hostile: None, "other": None},
    ], names, (1,))
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
