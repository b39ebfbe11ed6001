"""A π that keeps a proven-unique key is a view, and a view is
indistinguishable from the eager projection it stands for.

* Everything a caller can read -- rows, order, ``len``, ``key_unique``,
  ``column_classes``, ``tuples``, ``as_row_set``, iteration, ``sample``
  -- equals the projection built as new tuples, and so does every
  σ/π/SP/∪/∩/``distinct`` chained on it, on either side of ∪ and ∩.
* σ, π and ``SP`` over a view run on its base's rows: the view builds
  no tuples of its own for them, and a π of a view is a view of the
  base (views never nest).
* A condition on an attribute the view dropped reads as missing, as it
  does on the eager projection, although the base still has it.
* A π that drops the key deduplicates and is not a view.
* The first read of a view's tuples from many threads at once builds
  equal tuples in every thread.
"""

import random
import threading

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.conditions.atoms import Atom, Op
from repro.conditions.tree import TRUE, Leaf
from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema
from tests.test_compiled_predicate import (
    _KEYED,
    _KEYED_REORDERED,
    _mixed_relation_rows,
    conditions,
)

_NAMES = _KEYED.attribute_names
#: Attribute sets that keep the key ``k`` (a view) or may drop it.
_keeping = st.sets(st.sampled_from(_NAMES[1:])).map(lambda s: s | {"k"})
_KAB = Schema.of("t", [("k", AttrType.INT), ("a", AttrType.INT),
                       ("b", AttrType.STRING)], key="k")


def _eager(relation: Relation, attributes) -> Relation:
    """π_attributes built as new tuples, from the relation's dict rows."""
    sub_schema = relation.schema.project(attributes)
    names = sub_schema.attribute_names
    return Relation(sub_schema, [{a: row[a] for a in names}
                                 for row in relation], validate=False)


def _is_view(relation: Relation) -> bool:
    return relation._tuples is None


def _identical(actual: Relation, expected: Relation) -> None:
    """Equal in everything a caller can read, rows compared by class too
    (``1``, ``1.0`` and ``True`` are different rows to a caller)."""
    def exact(tuples):
        return [tuple((type(v), v) for v in t) for t in tuples]

    assert actual.schema == expected.schema
    assert len(actual) == len(expected)
    assert actual.key_unique == expected.key_unique
    assert actual.column_classes == expected.column_classes
    assert exact(actual.tuples) == exact(expected.tuples)
    assert list(actual) == list(expected)
    assert actual.rows == expected.rows
    assert actual.as_row_set() == expected.as_row_set()
    for k in (0, 2, len(expected) + 1):
        assert actual.sample(k, random.Random(k)) == \
            expected.sample(k, random.Random(k))


def _both(step, view, eager):
    """``step`` on the view and on the eager projection: equal results,
    or the same ``TypeError`` (an unhashable row meeting deduplication)."""
    try:
        expected = step(eager)
    except TypeError:
        try:
            step(view)
        except TypeError:
            return None
        raise AssertionError("the view deduplicated what the eager π could not")
    got = step(view)
    _identical(got, expected)
    return got, expected


def _unique_rows():
    return _mixed_relation_rows().filter(
        lambda rows: len({row["k"] for row in rows}) == len(rows)
        and all(row["k"] is not None for row in rows))


@given(_unique_rows(), _keeping)
@settings(max_examples=200, deadline=None)
def test_a_key_keeping_projection_is_a_view_equal_to_the_eager_one(
        rows, attrs):
    base = Relation(_KEYED, rows, validate=False)
    assert base.key_unique
    view = base.project(attrs)
    assert _is_view(view) == (len(attrs) < len(_NAMES))
    assert len(view) == len(base)  # read without building its rows
    assert _is_view(view) == (len(attrs) < len(_NAMES))
    _identical(view, _eager(base, attrs))


@given(_unique_rows(), _mixed_relation_rows(), _keeping, st.data())
@settings(max_examples=300, deadline=None)
def test_every_operator_on_a_view_equals_it_on_the_eager_projection(
        rows, other_rows, attrs, data):
    base = Relation(_KEYED, rows, validate=False)
    other = Relation(data.draw(st.sampled_from([_KEYED, _KEYED_REORDERED])),
                     other_rows, validate=False)
    view_attrs = sorted(attrs)
    pair = (base.project(attrs), _eager(base, attrs))
    operand = other.project(attrs)  # a view too, when ``other`` is keyed
    steps = data.draw(st.lists(st.sampled_from(
        ["select", "project", "sp", "union", "union'", "intersect",
         "intersect'", "distinct"]), min_size=1, max_size=4))
    for step in steps:
        if step == "select":
            condition = data.draw(conditions)
            result = _both(lambda r: r.select(condition), *pair)
        elif step in ("project", "sp"):
            sub = data.draw(st.sets(st.sampled_from(view_attrs), min_size=1))
            condition = data.draw(conditions) if step == "sp" else TRUE
            result = _both(lambda r: r.sp(condition, sub), *pair)
            if result is not None:
                view_attrs = sorted(sub)
                operand = other.project(sub)
        elif step == "distinct":
            result = _both(lambda r: r.distinct(), *pair)
        elif step.endswith("'"):  # the view as the right operand
            op = step[:-1]
            result = _both(lambda r: getattr(operand, op)(r), *pair)
        else:
            result = _both(lambda r: getattr(r, step)(operand), *pair)
        if result is None:
            return
        pair = result


@given(_unique_rows(), _keeping, conditions, st.data())
@settings(max_examples=200, deadline=None)
def test_operators_on_a_view_run_on_its_base_rows(rows, attrs, condition, data):
    base = Relation(_KEYED, rows, validate=False)
    view = base.project(attrs)
    sub = data.draw(st.sets(st.sampled_from(sorted(attrs)), min_size=1))
    view.select(condition)
    view.sp(condition, sub)
    again = view.project(sub)
    assert _is_view(view) == (len(attrs) < len(_NAMES))
    if _is_view(again):
        assert again._view[0] is base  # a view of the base, not of a view


def test_a_condition_on_an_attribute_the_view_dropped_reads_as_missing():
    schema = _KAB
    base = Relation(schema, [{"k": i, "a": i % 2, "b": "x"} for i in range(4)])
    view = base.project({"k", "a"})
    assert _is_view(view)
    on_b = Leaf(Atom("b", Op.EQ, "x"))
    assert len(base.select(on_b)) == 4
    for result in (view.select(on_b), view.sp(on_b, {"k"}),
                   view.sp(on_b, {"k", "a"})):
        assert len(result) == 0
    not_b = Leaf(Atom("b", Op.NE, "y"))  # ``!=`` on a missing one too
    assert len(view.select(not_b)) == 0
    assert len(view.select(Leaf(Atom("a", Op.EQ, 1)))) == 2
    assert _is_view(view)


def test_a_projection_that_drops_the_key_deduplicates_and_is_no_view():
    schema = _KAB
    base = Relation(schema, [{"k": i, "a": i % 2, "b": "x"} for i in range(4)])
    for source in (base, base.project({"k", "a"})):
        dropped = source.project({"a"})
        assert not _is_view(dropped)
        assert not dropped.key_unique
        assert dropped.tuples == ((0,), (1,))
        assert len(dropped) == 2


def test_an_unproven_key_projects_eagerly():
    schema = _KAB
    base = Relation(schema, [{"k": 1, "a": 1, "b": "x"},
                             {"k": 1, "a": 1, "b": "y"}])
    assert not base.key_unique
    projected = base.project({"k", "a"})
    assert not _is_view(projected)
    assert projected.tuples == ((1, 1),)


def test_a_first_read_from_many_threads_sees_equal_tuples():
    schema = _KAB
    base = Relation(schema, [{"k": i, "a": i * 2, "b": str(i)}
                             for i in range(2000)])
    expected = tuple((i, str(i)) for i in range(2000))
    threads_n = 8
    for _ in range(5):
        view = base.project({"k", "b"})
        assert _is_view(view)
        barrier = threading.Barrier(threads_n)
        seen: list = [None] * threads_n

        def read(index: int) -> None:
            barrier.wait()
            seen[index] = view.tuples

        threads = [threading.Thread(target=read, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(tuples == expected for tuples in seen)
        assert view.tuples == expected and len(view) == 2000
