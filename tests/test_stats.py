"""Unit tests for statistics and result-size estimation."""

import operator

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions.atoms import Atom, Op
from repro.conditions.parser import parse_condition
from repro.conditions.tree import TRUE
from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema
from repro.data.stats import (
    MIN_SELECTIVITY,
    UNSEEN_EQ_SELECTIVITY,
    TableStats,
)
from repro.errors import ConditionError


@pytest.fixture
def stats():
    schema = Schema.of(
        "t", [("id", AttrType.INT), ("color", AttrType.STRING),
              ("price", AttrType.INT), ("title", AttrType.STRING)], key="id"
    )
    rows = []
    colors = ["red"] * 50 + ["black"] * 30 + ["blue"] * 20
    for i in range(100):
        rows.append(
            {
                "id": i,
                "color": colors[i],
                "price": i * 10,  # 0..990
                "title": "about dreams" if i < 10 else "about memory",
            }
        )
    return TableStats.from_relation(Relation(schema, rows))


class TestAtomSelectivity:
    def test_equality_from_counts(self, stats):
        assert stats.selectivity(parse_condition("color = 'red'")) == 0.5
        assert stats.selectivity(parse_condition("color = 'blue'")) == 0.2

    def test_equality_unseen_value(self, stats):
        sel = stats.selectivity(parse_condition("color = 'pink'"))
        assert 0 < sel < 0.01

    def test_inequality(self, stats):
        assert stats.selectivity(parse_condition("color != 'red'")) == 0.5

    def test_range(self, stats):
        assert stats.selectivity(parse_condition("price < 500")) == 0.5
        assert stats.selectivity(parse_condition("price <= 0")) == 0.01
        assert stats.selectivity(parse_condition("price >= 0")) == 1.0
        assert stats.selectivity(parse_condition("price > 990")) == MIN_SELECTIVITY

    def test_contains(self, stats):
        assert stats.selectivity(parse_condition("title contains 'dreams'")) == 0.1
        assert stats.selectivity(parse_condition("title contains 'about'")) == 1.0

    def test_in(self, stats):
        sel = stats.selectivity(parse_condition("color in ('red', 'blue')"))
        assert sel == pytest.approx(0.7)

    def test_unknown_attribute_small_but_positive(self, stats):
        sel = stats.selectivity(parse_condition("ghost = 'x'"))
        assert 0 < sel < 0.01

    def test_cross_type_range_is_floor(self, stats):
        sel = stats.selectivity(parse_condition("color < 5"))
        assert sel == MIN_SELECTIVITY


def _scanned(column: list, atom: Atom) -> float:
    """An atom's selectivity by scanning the column row by row."""
    present = [value for value in column if value is not None]
    if not column:
        return MIN_SELECTIVITY
    if atom.op is Op.EQ:
        hits = sum(value == atom.value for value in present)
        sel = hits / len(column) if hits else UNSEEN_EQ_SELECTIVITY
    elif atom.op is Op.CONTAINS:
        sel = sum(isinstance(value, str) and atom.value in value.lower()
                  for value in present) / len(column)
    else:
        compare = {Op.LT: operator.lt, Op.LE: operator.le,
                   Op.GT: operator.gt, Op.GE: operator.ge}[atom.op]
        try:
            sorted(present)
            sel = sum(compare(value, atom.value)
                      for value in present) / len(column)
        except TypeError:  # an unorderable column, or a cross-type bound
            sel = 0.0
    return max(MIN_SELECTIVITY, min(1.0, sel))


_VALUES = st.one_of(st.integers(-3, 3), st.sampled_from([1.0, 2.5, True]),
                    st.sampled_from(["ab", "b", "ba"]), st.none())


@given(st.one_of(st.lists(st.integers(-3, 3)), st.lists(st.text("ab")),
                 st.lists(_VALUES)),
       st.sampled_from([Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE, Op.CONTAINS]),
       _VALUES.filter(lambda value: value is not None))
@settings(max_examples=300, deadline=None)
def test_compact_columns_estimate_what_a_scan_counts(column, op, value):
    """Sorted distinct values and running counts answer every estimate
    a row scan does: mixed types, ``None`` rows, ``True == 1``."""
    try:
        atom = Atom("v", op, value)
    except ConditionError:  # ``contains`` a number, ``< True``
        return
    schema = Schema.of("t", [("v", AttrType.STRING)])
    relation = Relation(schema, [{"v": v} for v in column], validate=False)
    assert TableStats.from_relation(relation).atom_selectivity(atom) \
        == _scanned(column, atom)


class TestCombinators:
    def test_true(self, stats):
        assert stats.selectivity(TRUE) == 1.0
        assert stats.estimated_rows(TRUE) == 100

    def test_and_independence(self, stats):
        sel = stats.selectivity(
            parse_condition("color = 'red' and price < 500")
        )
        assert sel == pytest.approx(0.25)

    def test_or_inclusion_exclusion(self, stats):
        sel = stats.selectivity(
            parse_condition("color = 'red' or color = 'black'")
        )
        assert sel == pytest.approx(1 - 0.5 * 0.7)

    def test_and_monotone_in_conjuncts(self, stats):
        whole = stats.selectivity(
            parse_condition("color = 'red' and price < 500 and title contains 'dreams'")
        )
        part = stats.selectivity(parse_condition("color = 'red' and price < 500"))
        assert whole <= part

    def test_or_monotone_in_disjuncts(self, stats):
        part = stats.selectivity(parse_condition("color = 'red'"))
        whole = stats.selectivity(
            parse_condition("color = 'red' or price < 100")
        )
        assert whole >= part

    def test_estimated_rows_scales(self, stats):
        assert stats.estimated_rows(parse_condition("color = 'red'")) == 50

    def test_selectivity_cached(self, stats):
        condition = parse_condition("color = 'red' and price < 500")
        first = stats.selectivity(condition)
        assert stats.selectivity(condition) == first
        assert condition in stats._selectivity_cache


class TestSampledStats:
    def make_relation(self, n=2000):
        schema = Schema.of(
            "t", [("id", AttrType.INT), ("color", AttrType.STRING)], key="id"
        )
        rows = [
            {"id": i, "color": "red" if i % 4 == 0 else "blue"}
            for i in range(n)
        ]
        return Relation(schema, rows)

    def test_sampled_selectivity_close_to_exact(self):
        relation = self.make_relation()
        exact = TableStats.from_relation(relation)
        sampled = TableStats.from_relation(relation, sample_size=400, seed=1)
        condition = parse_condition("color = 'red'")
        assert sampled.selectivity(condition) == pytest.approx(
            exact.selectivity(condition), abs=0.08
        )

    def test_cardinality_stays_exact(self):
        relation = self.make_relation()
        sampled = TableStats.from_relation(relation, sample_size=100, seed=1)
        assert sampled.n_rows == len(relation)
        from repro.conditions.tree import TRUE

        assert sampled.estimated_rows(TRUE) == len(relation)

    def test_oversized_sample_is_full_scan(self):
        relation = self.make_relation(50)
        sampled = TableStats.from_relation(relation, sample_size=500)
        exact = TableStats.from_relation(relation)
        condition = parse_condition("color = 'red'")
        assert sampled.selectivity(condition) == exact.selectivity(condition)

    def test_sampling_deterministic_by_seed(self):
        relation = self.make_relation()
        a = TableStats.from_relation(relation, sample_size=200, seed=9)
        b = TableStats.from_relation(relation, sample_size=200, seed=9)
        condition = parse_condition("color = 'red'")
        assert a.selectivity(condition) == b.selectivity(condition)
