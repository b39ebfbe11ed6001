"""Unit + property tests for value-level simplification."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions.atoms import Atom, Op
from repro.conditions.canonical import is_canonical
from repro.conditions.parser import parse_condition
from repro.conditions.simplify import (
    contradicts,
    implies,
    is_definitely_unsatisfiable,
    simplify,
)


def atom(text: str) -> Atom:
    return parse_condition(text).atom


class TestImplies:
    @pytest.mark.parametrize(
        "premise,conclusion",
        [
            ("p < 10", "p < 20"),
            ("p < 10", "p <= 10"),
            ("p <= 10", "p < 11"),
            ("p > 20", "p > 10"),
            ("p > 20", "p >= 20"),
            ("p >= 20", "p > 19"),
            ("p = 5", "p < 10"),
            ("p = 5", "p >= 5"),
            ("p = 5", "p != 6"),
            ("m = 'a'", "m != 'b'"),
            ("m in ('a', 'b')", "m != 'c'"),
            ("p in (1, 2)", "p < 5"),
            ("t contains 'red dreams'", "t contains 'dreams'"),
            ("p < 10", "p != 10"),
            ("p < 10", "p != 12"),
        ],
    )
    def test_positive_cases(self, premise, conclusion):
        assert implies(atom(premise), atom(conclusion))

    @pytest.mark.parametrize(
        "premise,conclusion",
        [
            ("p < 20", "p < 10"),
            ("p <= 10", "p < 10"),
            ("p < 10", "p != 5"),
            ("p = 5", "p = 6"),
            ("q < 10", "p < 20"),      # different attributes
            ("m = 'a'", "m = 'b'"),
            ("p in (1, 20)", "p < 5"),
            ("t contains 'dreams'", "t contains 'red dreams'"),
            ("p < 10", "m = 'a'"),
            ("p != 5", "p != 6"),
            ("m < 'b'", "m < 5"),       # incomparable constants
        ],
    )
    def test_negative_cases(self, premise, conclusion):
        assert not implies(atom(premise), atom(conclusion))

    def test_reflexive(self):
        assert implies(atom("p < 10"), atom("p < 10"))


class TestContradicts:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("m = 'a'", "m = 'b'"),
            ("p = 5", "p > 10"),
            ("p < 10", "p > 20"),
            ("p < 10", "p >= 10"),
            ("p <= 10", "p > 10"),
            ("m = 'a'", "m != 'a'"),
            ("p in (1, 2)", "p > 10"),
        ],
    )
    def test_positive_cases(self, left, right):
        assert contradicts(atom(left), atom(right))
        assert contradicts(atom(right), atom(left))

    @pytest.mark.parametrize(
        "left,right",
        [
            ("p < 10", "p > 5"),
            ("p <= 10", "p >= 10"),
            ("m = 'a'", "m = 'a'"),
            ("q = 1", "p = 2"),
            ("p < 10", "p < 20"),
            ("p in (1, 20)", "p > 10"),
        ],
    )
    def test_negative_cases(self, left, right):
        assert not contradicts(atom(left), atom(right))


class TestSimplify:
    def test_drops_implied_conjunct(self):
        out = simplify(parse_condition("p < 10 and p < 20"))
        assert out == parse_condition("p < 10")

    def test_drops_implying_disjunct(self):
        out = simplify(parse_condition("p < 10 or p < 20"))
        assert out == parse_condition("p < 20")

    def test_deduplicates(self):
        out = simplify(parse_condition("m = 'a' and (m = 'a')"))
        assert out == parse_condition("m = 'a'")

    def test_absorption_or(self):
        out = simplify(parse_condition("m = 'a' or (m = 'a' and p < 5)"))
        assert out == parse_condition("m = 'a'")

    def test_absorption_and(self):
        out = simplify(parse_condition("m = 'a' and (m = 'a' or p < 5)"))
        assert out == parse_condition("m = 'a'")

    def test_untouched_when_nothing_applies(self):
        text = "m = 'a' and p < 10 and (q = 1 or q = 2)"
        assert simplify(parse_condition(text)) == parse_condition(text)

    def test_result_is_canonical(self):
        out = simplify(parse_condition("(p < 10 and (p < 20 and m = 'a'))"))
        assert is_canonical(out)


class TestUnsatisfiability:
    def test_contradictory_conjunction(self):
        assert is_definitely_unsatisfiable(parse_condition("p < 10 and p > 20"))

    def test_contradiction_in_every_dnf_term(self):
        assert is_definitely_unsatisfiable(
            parse_condition("(m = 'a' or m = 'b') and m = 'c'")
        )

    def test_satisfiable_disjunct_defeats(self):
        assert not is_definitely_unsatisfiable(
            parse_condition("(p < 10 and p > 20) or m = 'a'")
        )

    def test_satisfiable_conjunction(self):
        assert not is_definitely_unsatisfiable(
            parse_condition("p > 10 and p < 20")
        )

    def test_true_is_satisfiable(self):
        from repro.conditions.tree import TRUE

        assert not is_definitely_unsatisfiable(TRUE)


class TestMediatorShortCircuit:
    def test_empty_answer_without_source_contact(self):
        from repro.mediator import Mediator
        from tests.conftest import make_example41_source

        mediator = Mediator()
        source = make_example41_source()
        mediator.add_source(source)
        answer = mediator.ask(
            "SELECT model FROM cars WHERE make = 'BMW' and make = 'Toyota'"
        )
        assert answer.rows == []
        assert answer.report.queries == 0
        assert source.meter.snapshot().queries == 0
        assert answer.planning.planner == "unsatisfiable-shortcut"

    def test_can_be_disabled(self):
        """What the shortcut saves: planned without it, this
        contradictory query has no feasible plan (no grammar rule
        matches two make-equalities)."""
        from repro.planners.gencompact import GenCompact
        from repro.plans.cost import CostModel
        from repro.query import parse_query
        from tests.conftest import make_example41_source

        source = make_example41_source()
        source.compile_capabilities()
        result = GenCompact().plan(
            parse_query(
                "SELECT model FROM cars WHERE make = 'BMW' and make = 'Toyota'"
            ),
            source,
            CostModel({source.name: source.stats}),
        )
        assert not result.feasible
        assert result.plan is None


# ----------------------------------------------------------------------
# Properties: soundness of implies/contradicts against brute-force
# evaluation over a small value universe, and equivalence of simplify.
# ----------------------------------------------------------------------

_VALUES = [0, 1, 5, 9, 10, 11, 20, "a", "b", "c", "red dreams", "dreams"]

_atoms = st.builds(
    Atom,
    st.just("x"),
    st.sampled_from([Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE]),
    st.sampled_from([0, 1, 5, 9, 10, 11, 20, "a", "b", "c"]),
)


@given(_atoms, _atoms)
@settings(max_examples=300, deadline=None)
def test_implies_is_sound(premise, conclusion):
    if implies(premise, conclusion):
        for value in _VALUES:
            row = {"x": value}
            if premise.matches(row):
                assert conclusion.matches(row), (premise, conclusion, value)


@given(_atoms, _atoms)
@settings(max_examples=300, deadline=None)
def test_contradicts_is_sound(left, right):
    if contradicts(left, right):
        for value in _VALUES:
            row = {"x": value}
            assert not (left.matches(row) and right.matches(row)), (
                left, right, value,
            )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_simplify_preserves_semantics(data):
    from repro.conditions.tree import And, Leaf, Or

    leaves = st.builds(Leaf, _atoms)
    trees = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(And, st.lists(children, min_size=2, max_size=3)),
            st.builds(Or, st.lists(children, min_size=2, max_size=3)),
        ),
        max_leaves=6,
    )
    tree = data.draw(trees)
    simplified = simplify(tree)
    for value in _VALUES:
        row = {"x": value}
        assert tree.evaluate(row) == simplified.evaluate(row)
