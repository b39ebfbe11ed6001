"""Unit tests for condition trees."""

import pytest

from repro.conditions.tree import (
    TRUE,
    And,
    Or,
    TrueCondition,
    conjunction,
    disjunction,
    leaf,
)
from repro.errors import ConditionError


def c(attr="a", op="=", value="v"):
    return leaf(attr, op, value)


class TestConstruction:
    def test_connectors_require_two_children(self):
        with pytest.raises(ConditionError):
            And([c()])
        with pytest.raises(ConditionError):
            Or([])

    def test_children_must_be_conditions(self):
        with pytest.raises(ConditionError):
            And([c(), "not a condition"])

    def test_true_cannot_nest_in_connectors(self):
        with pytest.raises(ConditionError):
            And([c(), TRUE])

    def test_true_is_a_singleton(self):
        assert TrueCondition() is TRUE

    def test_nodes_are_immutable(self):
        node = And([c("a"), c("b")])
        with pytest.raises(AttributeError):
            node.something = 1
        with pytest.raises(AttributeError):
            c().something = 1


class TestStructure:
    def test_kind_flags(self):
        assert c().is_leaf and not c().is_and
        assert And([c("a"), c("b")]).is_and
        assert Or([c("a"), c("b")]).is_or
        assert TRUE.is_true

    def test_atoms_in_left_to_right_order(self):
        tree = And([c("x"), Or([c("y"), c("z")])])
        assert [a.attribute for a in tree.atoms()] == ["x", "y", "z"]

    def test_attributes_is_attr_of_paper(self):
        tree = And([c("make"), Or([c("color"), c("make")])])
        assert tree.attributes() == {"make", "color"}

    def test_nodes_preorder(self):
        inner = Or([c("y"), c("z")])
        tree = And([c("x"), inner])
        nodes = list(tree.nodes())
        assert nodes[0] is tree
        assert inner in nodes
        assert len(nodes) == 5

    def test_size_and_depth(self):
        tree = And([c("x"), Or([c("y"), c("z")])])
        assert tree.size() == 5
        assert tree.depth() == 3
        assert c().depth() == 1

    def test_with_children_collapses_singletons(self):
        node = And([c("a"), c("b")])
        only = node.with_children([c("z")])
        assert only.is_leaf


class TestEquality:
    def test_structural_equality_and_hash(self):
        t1 = And([c("a"), c("b")])
        t2 = And([c("a"), c("b")])
        assert t1 == t2 and hash(t1) == hash(t2)

    def test_order_sensitive(self):
        assert And([c("a"), c("b")]) != And([c("b"), c("a")])

    def test_kind_sensitive(self):
        assert And([c("a"), c("b")]) != Or([c("a"), c("b")])

    def test_usable_as_dict_keys(self):
        d = {And([c("a"), c("b")]): 1}
        assert d[And([c("a"), c("b")])] == 1


class TestEvaluate:
    def test_and_or_semantics(self):
        tree = And([c("make", "=", "BMW"),
                    Or([c("color", "=", "red"), c("color", "=", "black")])])
        assert tree.evaluate({"make": "BMW", "color": "red"})
        assert tree.evaluate({"make": "BMW", "color": "black"})
        assert not tree.evaluate({"make": "BMW", "color": "blue"})
        assert not tree.evaluate({"make": "Audi", "color": "red"})

    def test_true_evaluates_true(self):
        assert TRUE.evaluate({})


class TestCombinators:
    def test_conjunction_flattens_and_nodes(self):
        combined = conjunction([And([c("a"), c("b")]), c("x")])
        assert combined.is_and
        assert len(combined.children) == 3

    def test_conjunction_of_empty_is_true(self):
        assert conjunction([]) is TRUE
        assert conjunction([TRUE]) is TRUE

    def test_conjunction_of_one_is_identity(self):
        one = c("a")
        assert conjunction([one]) is one

    def test_disjunction_flattens_or_nodes(self):
        combined = disjunction([Or([c("a"), c("b")]), c("x")])
        assert combined.is_or
        assert len(combined.children) == 3

    def test_true_is_dropped_from_combinations(self):
        combined = conjunction([TRUE, c("a"), c("b")])
        assert combined.is_and and len(combined.children) == 2


class TestText:
    def test_to_text_simple(self):
        tree = And([c("make", "=", "BMW"), c("price", "<", 40000)])
        assert tree.to_text() == "make = 'BMW' and price < 40000"

    def test_to_text_parenthesizes_nested_opposite(self):
        tree = And([c("a", "=", "1"),
                    Or([c("b", "=", "2"), c("c", "=", "3")])])
        assert tree.to_text() == "a = '1' and (b = '2' or c = '3')"

    def test_to_text_parenthesizes_nested_same_kind(self):
        tree = And([c("a", "=", "1"), And([c("b", "=", "2"), c("c", "=", "3")])])
        assert tree.to_text() == "a = '1' and (b = '2' and c = '3')"
