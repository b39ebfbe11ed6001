"""Unit tests for the rewrite rules and the bounded rewrite engine."""


from repro.conditions.parser import parse_condition
from repro.conditions.rewrite import (
    GENCOMPACT_RULES,
    RewriteEngine,
    associative_rule,
    commutative_rule,
    copy_rule,
    distributive_rule,
    enumerate_orderings,
    factoring_rule,
)
from repro.conditions.semantics import logically_equivalent


def results_of(rule, text):
    tree = parse_condition(text)
    produced = list(rule(tree))
    for out in produced:
        assert logically_equivalent(tree, out), f"{rule.__name__} broke {out}"
    return tree, produced


class TestCommutative:
    def test_swaps_children(self):
        tree, produced = results_of(commutative_rule, "a = 1 and b = 2")
        assert parse_condition("b = 2 and a = 1") in produced

    def test_counts_pairs(self):
        __, produced = results_of(commutative_rule, "a = 1 and b = 2 and c = 3")
        assert len(produced) == 3  # 3 choose 2 swaps at the root

    def test_applies_at_nested_positions(self):
        __, produced = results_of(
            commutative_rule, "x = 0 or (a = 1 and b = 2)"
        )
        assert parse_condition("x = 0 or (b = 2 and a = 1)") in produced


class TestAssociative:
    def test_grouping(self):
        __, produced = results_of(associative_rule, "a = 1 and b = 2 and c = 3")
        assert parse_condition("(a = 1 and b = 2) and c = 3") in produced
        assert parse_condition("a = 1 and (b = 2 and c = 3)") in produced

    def test_flattening(self):
        __, produced = results_of(
            associative_rule, "(a = 1 and b = 2) and c = 3"
        )
        assert parse_condition("a = 1 and b = 2 and c = 3") in produced


class TestDistributive:
    def test_and_over_or(self):
        __, produced = results_of(distributive_rule, "a = 1 and (b = 2 or c = 3)")
        assert (
            parse_condition("(a = 1 and b = 2) or (a = 1 and c = 3)") in produced
        )

    def test_or_over_and(self):
        __, produced = results_of(distributive_rule, "a = 1 or (b = 2 and c = 3)")
        assert (
            parse_condition("(a = 1 or b = 2) and (a = 1 or c = 3)") in produced
        )

    def test_no_opposite_child_no_output(self):
        __, produced = results_of(distributive_rule, "a = 1 and b = 2")
        assert produced == []


class TestFactoring:
    def test_factors_common_conjunct(self):
        __, produced = results_of(
            factoring_rule, "(x = 0 and a = 1) or (x = 0 and b = 2)"
        )
        assert parse_condition("x = 0 and (a = 1 or b = 2)") in produced

    def test_partial_factoring_keeps_others(self):
        tree, produced = results_of(
            factoring_rule,
            "(x = 0 and a = 1) or (x = 0 and b = 2) or c = 3",
        )
        expected = parse_condition("c = 3 or (x = 0 and (a = 1 or b = 2))")
        assert expected in produced

    def test_skips_absorption_cases(self):
        # x or (x and a) must not "factor" into x and (true or a).
        __, produced = results_of(factoring_rule, "x = 0 or (x = 0 and a = 1)")
        assert produced == []


class TestCopy:
    def test_produces_both_copies(self):
        tree, produced = results_of(copy_rule, "a = 1")
        assert parse_condition("a = 1 and (a = 1)") in produced or any(
            out.is_and and len(out.children) == 2 for out in produced
        )
        assert any(out.is_or for out in produced)


class TestEngine:
    def test_includes_seed(self):
        engine = RewriteEngine(max_trees=10)
        seed = parse_condition("a = 1 and b = 2")
        result = engine.explore(seed)
        assert seed in result.trees

    def test_all_results_equivalent(self):
        engine = RewriteEngine(max_trees=40, max_steps=2000)
        seed = parse_condition("a = 1 and (b = 2 or c = 3)")
        result = engine.explore(seed)
        assert len(result.trees) > 5
        for tree in result.trees:
            assert logically_equivalent(seed, tree)

    def test_deduplicates(self):
        engine = RewriteEngine(max_trees=100, max_steps=3000)
        result = engine.explore(parse_condition("a = 1 and b = 2"))
        assert len(set(result.trees)) == len(result.trees)

    def test_budget_truncation_flagged(self):
        engine = RewriteEngine(max_trees=3, max_steps=50)
        result = engine.explore(
            parse_condition("a = 1 and b = 2 and c = 3 and d = 4")
        )
        assert result.truncated
        assert len(result.trees) <= 3

    def test_gencompact_rules_skip_commutativity(self):
        engine = RewriteEngine(
            rules=GENCOMPACT_RULES, max_trees=50, canonical=True
        )
        seed = parse_condition("a = 1 and b = 2")
        result = engine.explore(seed)
        # With no OR child there is nothing to distribute or factor.
        assert result.trees == [seed]

    def test_canonical_mode_emits_canonical_trees(self):
        from repro.conditions.canonical import is_canonical

        engine = RewriteEngine(
            rules=GENCOMPACT_RULES, max_trees=60, canonical=True
        )
        seed = parse_condition("(a = 1 or b = 2) and (c = 3 or d = 4)")
        result = engine.explore(seed)
        assert all(is_canonical(tree) for tree in result.trees)
        assert len(result.trees) >= 2  # the distributed form is reachable


class TestEnumerateOrderings:
    def test_all_orderings_of_flat_and(self):
        tree = parse_condition("a = 1 and b = 2 and c = 3")
        orderings = enumerate_orderings(tree)
        assert len(orderings) == 6
        assert len(set(orderings)) == 6
        for out in orderings:
            assert logically_equivalent(tree, out)

    def test_nested_orderings(self):
        tree = parse_condition("a = 1 and (b = 2 or c = 3)")
        orderings = enumerate_orderings(tree)
        # 2 root orders x 2 inner orders.
        assert len(orderings) == 4

    def test_limit_respected(self):
        tree = parse_condition(
            "a = 1 and b = 2 and c = 3 and d = 4 and e = 5"
        )
        assert len(enumerate_orderings(tree, limit=10)) == 10

    def test_leaf(self):
        tree = parse_condition("a = 1")
        assert enumerate_orderings(tree) == [tree]
