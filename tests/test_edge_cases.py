"""Edge cases across modules: the paths mainline tests don't reach."""

import pytest

from repro.conditions.canonical import canonicalize
from repro.conditions.parser import parse_condition
from repro.conditions.rewrite import (
    RewriteEngine,
    copy_rule,
    distributive_rule,
    factoring_rule,
)
from repro.conditions.tree import TRUE, And, Or, leaf
from repro.errors import (
    PlanExecutionError,
    SSDLParseError,
)
from repro.planners.base import CheckCounter
from repro.planners.epg import EPG
from repro.planners.ipg import IPG
from repro.plans.cost import CostModel
from repro.plans.execute import Executor
from repro.plans.nodes import (
    IntersectPlan,
    Postprocess,
    SourceQuery,
    UnionPlan,
    make_choice,
)
from repro.query import TargetQuery
from repro.ssdl.text import parse_ssdl


class TestSSDLTextEdges:
    def test_alternative_arrows(self):
        for arrow in ("->", "::=", ":="):
            desc = parse_ssdl(
                f"s {arrow} r\nr {arrow} a = $str\nattributes r : a"
            )
            assert desc.check(parse_condition("a = 'x'"))

    def test_comments_and_blank_lines(self):
        desc = parse_ssdl(
            """
            # leading comment

            s -> r     # trailing comment
            r -> a = $str
            attributes r : a   # another
            """
        )
        assert desc.check(parse_condition("a = 'x'"))

    def test_attributes_accumulate_across_lines(self):
        desc = parse_ssdl(
            "s -> r\nr -> a = $str\nattributes r : a\nattributes r : b"
        )
        assert desc.attributes["r"] == frozenset({"a", "b"})

    def test_paper_style_attribute_syntax(self):
        # "attributes :: s1 : ..." as printed in the paper.
        desc = parse_ssdl(
            "s -> r\nr -> a = $str\nattributes :: r : a"
        )
        assert desc.attributes["r"] == frozenset({"a"})

    def test_unbalanced_template_at_line_end(self):
        with pytest.raises(SSDLParseError):
            parse_ssdl("s -> r\nr -> a =\nattributes r : a")


class TestRewriteEdges:
    def test_factoring_dual_and_of_ors(self):
        tree = parse_condition("(x = 0 or a = 1) and (x = 0 or b = 2)")
        produced = list(factoring_rule(tree))
        assert parse_condition("x = 0 or (a = 1 and b = 2)") in produced

    def test_distributive_inside_nested_position(self):
        tree = parse_condition("z = 9 or (a = 1 and (b = 2 or c = 3))")
        produced = list(distributive_rule(tree))
        expected = parse_condition(
            "z = 9 or ((a = 1 and b = 2) or (a = 1 and c = 3))"
        )
        assert expected in produced

    def test_copy_rule_skips_true(self):
        assert list(copy_rule(TRUE)) == []

    def test_engine_size_guard_blocks_copy_blowup(self):
        engine = RewriteEngine(
            rules=(copy_rule,), max_trees=50, max_steps=500,
            max_size_factor=1.2,
        )
        seed = parse_condition("a = 1 and b = 2 and c = 3")
        result = engine.explore(seed)
        for tree in result.trees:
            assert tree.size() <= seed.size() * 1.2 + 2


class TestEPGEdges:
    def test_or_node_with_download_only(self):
        from repro.data.relation import Relation
        from repro.data.schema import AttrType, Schema
        from repro.source.source import CapabilitySource
        from repro.ssdl.builder import DescriptionBuilder

        schema = Schema.of("t", [("a", AttrType.STRING)])
        desc = DescriptionBuilder("d").rule("dl", "true", attributes=["a"]).build()
        source = CapabilitySource(
            "t", Relation(schema, [{"a": "x"}, {"a": "y"}]), desc
        )
        checker = CheckCounter(source.description)
        epg = EPG("t", checker)
        choice = epg.generate(
            parse_condition("a = 'x' or a = 'y'"), frozenset({"a"})
        )
        # Branch downloads and whole-node downloads both appear.
        assert choice is not None
        from repro.plans.cost import enumerate_concrete

        plans = list(enumerate_concrete(choice))
        assert all(
            q.condition.is_true for p in plans for q in p.source_queries()
        )

    def test_intersection_of_child_choices(self, example41):
        checker = CheckCounter(example41.closed_description)
        epg = EPG("cars", checker)
        choice = epg.generate(
            parse_condition(
                "(make = 'BMW' and price < 40000) and "
                "(make = 'BMW' and color = 'red')"
            ),
            frozenset({"model"}),
        )
        from repro.plans.cost import enumerate_concrete

        assert any(
            isinstance(p, IntersectPlan) for p in enumerate_concrete(choice)
        )


class TestIPGEdges:
    def test_true_condition_query(self, example41, example41_cost):
        checker = CheckCounter(example41.closed_description)
        ipg = IPG("cars", checker, example41_cost)
        # No download rule: SP(true, ...) is infeasible.
        assert ipg.best_plan(TRUE, frozenset({"model"})) is None

    def test_memo_hits_across_repeated_subtrees(self, example41, example41_cost):
        checker = CheckCounter(example41.closed_description)
        ipg = IPG("cars", checker, example41_cost)
        sub = "(make = 'BMW' and price < 40000)"
        condition = canonicalize(
            parse_condition(f"{sub} or {sub}")
        )
        # After canonicalization duplicates may collapse; use distinct
        # constants to keep two children but identical shape.
        condition = parse_condition(
            "(make = 'BMW' and price < 40000) or "
            "(make = 'BMW' and price < 40000)"
        )
        plan = ipg.best_plan(canonicalize(condition), frozenset({"model"}))
        assert plan is not None

    def test_multi_export_family_uses_best_set(self):
        from repro.data.relation import Relation
        from repro.data.schema import AttrType, Schema
        from repro.source.source import CapabilitySource
        from repro.ssdl.builder import DescriptionBuilder

        schema = Schema.of(
            "t", [("id", AttrType.INT), ("a", AttrType.STRING),
                  ("b", AttrType.STRING)], key="id"
        )
        # Same condition shape under two forms with different exports.
        desc = (
            DescriptionBuilder("d")
            .rule("narrow", "a = $str", attributes=["id"])
            .rule("wide", "a = $str", attributes=["id", "a", "b"])
            .build()
        )
        rows = [{"id": 0, "a": "x", "b": "p"}, {"id": 1, "a": "x", "b": "q"},
                {"id": 2, "a": "y", "b": "p"}]
        source = CapabilitySource("t", Relation(schema, rows), desc)
        model = CostModel({"t": source.stats})
        checker = CheckCounter(source.closed_description)
        ipg = IPG("t", checker, model)
        # Needs b exported + filtered locally: only the wide form works.
        plan = ipg.best_plan(
            canonicalize(parse_condition("a = 'x' and b = 'p'")),
            frozenset({"id"}),
        )
        assert plan is not None
        executor = Executor({"t": source})
        assert executor.execute(plan).as_row_set() == {(0,)}


class TestExecutorEdges:
    def test_nested_union_of_intersections(self, example41):
        executor = Executor({"cars": example41})
        A = frozenset({"model"})

        def sq(text):
            return SourceQuery(parse_condition(text), A, "cars")

        plan = UnionPlan([
            IntersectPlan([sq("make = 'BMW' and price < 40000"),
                           sq("make = 'BMW' and color = 'red'")]),
            sq("make = 'Honda' and color = 'white'"),
        ])
        assert executor.execute(plan).as_row_set() == {("328i",), ("Civic",)}

    def test_choice_nested_inside_composite_rejected(self, example41):
        executor = Executor({"cars": example41})
        A = frozenset({"model"})
        choice = make_choice([
            SourceQuery(parse_condition("make = 'BMW' and color = 'red'"), A,
                        "cars"),
            SourceQuery(parse_condition("make = 'BMW' and price < 40000"), A,
                        "cars"),
        ])
        wrapped = Postprocess(TRUE, A, choice)
        with pytest.raises(PlanExecutionError):
            executor.execute(wrapped)


class TestConditionEdges:
    def test_leaf_helper_accepts_op_objects(self):
        from repro.conditions.atoms import Op

        node = leaf("a", Op.LE, 5)
        assert node.atom.op is Op.LE

    def test_nested_empty_conjunction_via_true(self):
        from repro.conditions.tree import conjunction

        assert conjunction([TRUE, TRUE]) is TRUE

    def test_and_of_same_leaf_twice_is_legal(self):
        tree = And([leaf("a", "=", 1), leaf("a", "=", 1)])
        assert tree.size() == 3

    def test_or_inside_or_text_round_trip(self):
        tree = Or([leaf("a", "=", 1), Or([leaf("b", "=", 2), leaf("c", "=", 3)])])
        assert parse_condition(tree.to_text()) == tree


class TestTargetQueryEdges:
    def test_query_object_accepted_by_mediator(self, example41):
        from repro.mediator import Mediator

        mediator = Mediator()
        mediator.add_source(example41)
        query = TargetQuery(
            parse_condition("make = 'BMW' and price < 40000"),
            frozenset({"model"}),
            "cars",
        )
        answer = mediator.ask(query)
        assert len(answer.rows) == 2

    def test_true_condition_needs_download_rule(self, example41):
        from repro.errors import InfeasiblePlanError
        from repro.mediator import Mediator

        mediator = Mediator()
        mediator.add_source(example41)
        with pytest.raises(InfeasiblePlanError):
            mediator.ask("SELECT model FROM cars")
