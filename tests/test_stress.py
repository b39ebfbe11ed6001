"""Stress tests: the library must stay tractable at awkward sizes.

These are guardrails, not micro-benchmarks: each case has a generous
wall-clock budget and asserts completion + sane results, so a
complexity regression (e.g. an accidental exponential path on flat
inputs) fails loudly.
"""

import time


from repro.conditions.canonical import canonicalize
from repro.conditions.parser import parse_condition
from repro.conditions.tree import And, Or, leaf
from repro.planners.gencompact import GenCompact
from repro.plans.cost import CostModel
from repro.ssdl.commute import commutation_closure
from repro.ssdl.text import parse_ssdl
from repro.workloads.synthetic import WorldConfig, make_queries, make_source


def timed(budget_sec):
    """Context manager asserting the block finishes within the budget."""
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            elapsed = time.perf_counter() - self.start
            assert elapsed < budget_sec, (
                f"took {elapsed:.1f}s, budget {budget_sec}s"
            )
            return False

    return _Timer()


class TestConditionScale:
    def test_wide_flat_conjunction(self):
        atoms = [leaf(f"a{i}", "=", i) for i in range(200)]
        tree = And(atoms)
        with timed(2.0):
            assert canonicalize(tree) == tree
            assert tree.size() == 201
            assert len(tree.attributes()) == 200

    def test_deep_alternation(self):
        tree = leaf("a0", "=", 0)
        for i in range(1, 60):
            cls = And if i % 2 else Or
            tree = cls([tree, leaf(f"a{i}", "=", i)])
        with timed(2.0):
            flat = canonicalize(tree)
            assert flat.atoms() == tree.atoms()

    def test_parser_long_input(self):
        text = " and ".join(f"a{i} = {i}" for i in range(300))
        with timed(2.0):
            tree = parse_condition(text)
            assert len(tree.children) == 300


class TestGrammarScale:
    def test_many_alternatives(self):
        rules = " | ".join(f"f{i} = $num" for i in range(120))
        desc = parse_ssdl(
            f"s -> big\nbig -> {rules}\nattributes big : "
            + ", ".join(f"f{i}" for i in range(120))
        )
        with timed(3.0):
            for i in (0, 57, 119):
                assert desc.check(parse_condition(f"f{i} = 1"))
            assert not desc.check(parse_condition("g = 1"))

    def test_commutation_closure_of_wide_rule_is_guarded(self):
        wide = " and ".join(f"x{i} = $num" for i in range(10))
        desc = parse_ssdl(
            f"s -> r\nr -> {wide}\nattributes r : "
            + ", ".join(f"x{i}" for i in range(10))
        )
        with timed(3.0):
            closed = commutation_closure(desc, max_segments=5)
            # Guarded: the 10-segment rule is not permuted (10! rules
            # would be absurd), so the closure stays small.
            assert closed.rule_count() == desc.rule_count()

    def test_deep_disjunction_list_parse(self):
        desc = parse_ssdl(
            """
            s -> f
            f -> ( l )
            l -> v = $num or v = $num | v = $num or l
            attributes f : v
            """
        )
        many = " or ".join(f"v = {i}" for i in range(80))
        with timed(3.0):
            assert desc.check(parse_condition(many))


class TestPlanningScale:
    def test_batch_planning_budget(self):
        config = WorldConfig(n_attributes=6, n_rows=3000, richness=0.6,
                             seed=2001)
        source = make_source(config)
        model = CostModel({source.name: source.stats})
        queries = make_queries(config, source, 20, 6, seed=9)
        planner = GenCompact()
        with timed(30.0):
            results = [planner.plan(q, source, model) for q in queries]
        assert len(results) == 20

    def test_ipg_wide_conjunction_within_fanout(self):
        # 10 conjuncts = 1023 child subsets per node; must stay quick.
        config = WorldConfig(n_attributes=6, n_rows=1000, richness=0.8,
                             download_prob=1.0, seed=2002)
        source = make_source(config)
        model = CostModel({source.name: source.stats})
        queries = make_queries(config, source, 2, 10, seed=10, or_prob=0.0)
        planner = GenCompact(max_rewrites=5)
        with timed(30.0):
            for query in queries:
                result = planner.plan(query, source, model)
                assert result.feasible  # download rule guarantees a plan
