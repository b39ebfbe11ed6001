"""Unit tests for the condition text parser."""

import pytest

from repro.conditions.atoms import Op
from repro.conditions.parser import parse_condition
from repro.conditions.tree import TRUE
from repro.errors import ConditionParseError


class TestBasics:
    def test_single_atom(self):
        tree = parse_condition("make = 'BMW'")
        assert tree.is_leaf
        assert tree.atom.attribute == "make"
        assert tree.atom.op is Op.EQ
        assert tree.atom.value == "BMW"

    def test_numbers(self):
        assert parse_condition("price < 40000").atom.value == 40000
        assert parse_condition("rate <= 2.5").atom.value == 2.5
        assert parse_condition("delta >= -3").atom.value == -3

    def test_booleans(self):
        assert parse_condition("flag = true").atom.value is True
        assert parse_condition("flag != false").atom.value is False

    def test_true_condition(self):
        assert parse_condition("true") is TRUE

    def test_double_quoted_strings(self):
        assert parse_condition('make = "BMW"').atom.value == "BMW"

    def test_escaped_quote(self):
        assert parse_condition(r"note = 'it\'s'").atom.value == "it's"

    def test_contains(self):
        atom = parse_condition("title contains 'dreams'").atom
        assert atom.op is Op.CONTAINS and atom.value == "dreams"

    def test_in_list(self):
        atom = parse_condition("size in ('compact', 'midsize')").atom
        assert atom.op is Op.IN
        assert set(atom.value) == {"compact", "midsize"}


class TestPrecedence:
    def test_and_binds_tighter_than_or(self):
        tree = parse_condition("a = 1 or b = 2 and c = 3")
        assert tree.is_or
        assert tree.children[0].is_leaf
        assert tree.children[1].is_and

    def test_flat_chains(self):
        tree = parse_condition("a = 1 and b = 2 and c = 3")
        assert tree.is_and and len(tree.children) == 3
        tree = parse_condition("a = 1 or b = 2 or c = 3")
        assert tree.is_or and len(tree.children) == 3

    def test_parentheses_override(self):
        tree = parse_condition("(a = 1 or b = 2) and c = 3")
        assert tree.is_and
        assert tree.children[0].is_or

    def test_parentheses_preserve_structure(self):
        # (a and b) and c keeps the nested And node -- tree shape matters
        # to structure-sensitive grammars.
        tree = parse_condition("(a = 1 and b = 2) and c = 3")
        assert tree.is_and and len(tree.children) == 2
        assert tree.children[0].is_and

    def test_keywords_case_insensitive(self):
        tree = parse_condition("a = 1 AND b = 2 OR c = 3")
        assert tree.is_or


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "make = 'BMW'",
            "make = 'BMW' and price < 40000",
            "a = 1 and (b = 2 or c = 3)",
            "(a = 1 and b = 2) or (c = 3 and d = 4)",
            "title contains 'dreams' or size in ('compact', 'midsize')",
        ],
    )
    def test_to_text_round_trip(self, text):
        tree = parse_condition(text)
        assert parse_condition(tree.to_text()) == tree


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "make =",
            "= 'BMW'",
            "make = 'BMW' and",
            "make = 'BMW' or or price < 1",
            "(make = 'BMW'",
            "make = 'BMW')",
            "make like 'BMW'",
            "size in ()",
            "price < 'a' extra",
            "a = 1 ; drop",
        ],
    )
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(ConditionParseError):
            parse_condition(bad)

    def test_error_carries_position(self):
        with pytest.raises(ConditionParseError) as err:
            parse_condition("make = 'BMW' @@")
        assert err.value.position is not None

    @pytest.mark.parametrize("text, message, position", [
        # Messages and positions are behaviour (CLI users read them):
        # whitespace is skipped before the position, keywords are quoted
        # in lower case whatever their spelling, end of input has a name.
        ("", "expected a condition but found 'end of input' at position 0", 0),
        ("   ", "expected a condition but found 'end of input' at position 3", 3),
        ("make =", "expected a constant but found 'end of input' at position 6", 6),
        ("= 'BMW'", "expected a condition but found '=' at position 0", 0),
        ("make = 'BMW' AND",
         "expected a condition but found 'end of input' at position 16", 16),
        ("make = 'BMW' Or oR price < 1",
         "expected a condition but found 'or' at position 16", 16),
        ("(make = 'BMW'", "expected rparen but found 'end of input' at position 13", 13),
        ("make = 'BMW')", "trailing input ')' at position 12", 12),
        ("make like 'BMW'", "expected an operator after 'make' at position 5", 5),
        ("size IN ()", "expected a constant but found ')' at position 9", 9),
        ("a = 1 ; drop", "unexpected character ';' at position 6", 6),
        ("a = 1 TRUE", "trailing input 'true' at position 6", 6),
        ("a contains 5", "expected string but found '5' at position 11", 11),
        ("a = 1 and  $", "unexpected character '$' at position 11", 11),
        ("a in (1, 2", "expected rparen but found 'end of input' at position 10", 10),
    ])
    def test_messages_and_positions(self, text, message, position):
        with pytest.raises(ConditionParseError) as err:
            parse_condition(text)
        assert str(err.value) == message
        assert err.value.position == position

    def test_keywords_are_whole_words_in_any_case(self):
        tree = parse_condition("android = 1 AND  oracle = FALSE  Or inn In (TRUE, 2)")
        assert tree.to_text() == "(android = 1 and oracle = false) or inn in (true, 2)"
