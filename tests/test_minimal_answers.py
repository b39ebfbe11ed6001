"""Minimal-answer mode: atom/condition implication, Union-branch
pruning, and the pruned == unpruned property battery."""

from __future__ import annotations

from repro.conditions.atoms import Atom, Op
from repro.conditions.simplify import implies
from repro.conditions.tree import TRUE, And, Leaf, Or
from repro.mediator import Mediator
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.plans.minimal import (
    branch_profile,
    branch_subsumes,
    condition_implies,
    prune_subsumed,
)
from repro.plans.nodes import Postprocess, SourceQuery, UnionPlan
from repro.workloads.minimal_answers import (
    MinimalAnswerWorkload,
    overlap_queries,
    overlap_source,
)


def atom(attr, op, value):
    return Atom(attr, op, value)


class TestAtomImplies:
    def test_equality_cases(self):
        assert implies(atom("a", Op.EQ, 5), atom("a", Op.LE, 5))
        assert implies(atom("a", Op.EQ, 5), atom("a", Op.LT, 6))
        assert implies(atom("a", Op.EQ, 5), atom("a", Op.NE, 6))
        assert implies(atom("a", Op.EQ, 5), atom("a", Op.IN, (4, 5)))
        assert not implies(atom("a", Op.EQ, 5), atom("a", Op.IN, (4,)))
        assert not implies(atom("a", Op.EQ, 5), atom("a", Op.NE, 5))
        assert implies(atom("a", Op.EQ, "Dreams of X"),
                       atom("a", Op.CONTAINS, "dreams"))

    def test_range_cases(self):
        assert implies(atom("p", Op.LT, 10), atom("p", Op.LT, 20))
        assert implies(atom("p", Op.LT, 10), atom("p", Op.LE, 10))
        assert implies(atom("p", Op.LE, 10), atom("p", Op.LT, 11))
        assert not implies(atom("p", Op.LE, 10), atom("p", Op.LT, 10))
        assert implies(atom("p", Op.GT, 10), atom("p", Op.GE, 10))
        assert implies(atom("p", Op.GE, 11), atom("p", Op.GT, 10))
        assert not implies(atom("p", Op.GE, 10), atom("p", Op.GT, 10))
        assert implies(atom("p", Op.LT, 10), atom("p", Op.NE, 10))
        assert implies(atom("p", Op.GT, 10), atom("p", Op.NE, 10))
        assert not implies(atom("p", Op.LT, 10), atom("p", Op.NE, 9))

    def test_in_decomposes(self):
        assert implies(atom("a", Op.IN, (1, 2)), atom("a", Op.LE, 5))
        assert not implies(atom("a", Op.IN, (1, 9)), atom("a", Op.LE, 5))

    def test_contains_substring(self):
        assert implies(atom("t", Op.CONTAINS, "dreams of"),
                       atom("t", Op.CONTAINS, "dreams"))
        assert not implies(atom("t", Op.CONTAINS, "dreams"),
                           atom("t", Op.CONTAINS, "dreams of"))

    def test_soundness_guards(self):
        assert not implies(atom("a", Op.EQ, 5), atom("b", Op.EQ, 5))
        # Cross-type comparisons must not prove anything (nor raise).
        assert not implies(atom("a", Op.LT, "zz"), atom("a", Op.LT, 5))
        assert not implies(atom("a", Op.NE, 5), atom("a", Op.LT, 9))


class TestConditionImplies:
    A5 = Leaf(atom("a", Op.EQ, 5))
    P10 = Leaf(atom("p", Op.LT, 10))
    P20 = Leaf(atom("p", Op.LT, 20))

    def test_connector_tableau(self):
        assert condition_implies(self.P10, TRUE)
        assert not condition_implies(TRUE, self.P10)
        assert condition_implies(And([self.A5, self.P10]), self.P20)
        assert condition_implies(self.P10, Or([self.A5, self.P20]))
        assert condition_implies(Or([self.P10, self.P20]), self.P20)
        assert not condition_implies(Or([self.P10, self.A5]), self.P20)
        assert condition_implies(self.P10, And([self.P20,
                                                Leaf(atom("p", Op.NE, 15))]))

    def test_size_guard_stays_sound(self):
        wide = Or([Leaf(atom("a", Op.EQ, i)) for i in range(300)])
        assert not condition_implies(wide, TRUE)  # refused, not wrong


def tower(source, condition, attrs=("k",)):
    return SourceQuery(condition, frozenset(attrs), source)


class TestPruning:
    CAT = Leaf(atom("cat", Op.EQ, "books"))
    NARROW = And([Leaf(atom("cat", Op.EQ, "books")),
                  Leaf(atom("p", Op.LT, 10))])

    def test_branch_profile_conjoins_postprocess_chain(self):
        plan = Postprocess(self.CAT, frozenset(["k"]),
                           tower("s", self.NARROW, ("k", "cat", "p")))
        profile = branch_profile(plan)
        assert profile is not None
        source, condition = profile
        assert source == "s"
        assert condition_implies(condition, self.CAT)

    def test_branch_profile_rejects_nested_union(self):
        nested = UnionPlan([tower("s", self.CAT), tower("s", self.NARROW)])
        assert branch_profile(nested) is None

    def test_subsumed_branch_is_pruned(self):
        plan = UnionPlan([tower("s", self.CAT), tower("s", self.NARROW)])
        pruned, dropped = prune_subsumed(plan)
        assert dropped == 1
        assert pruned == tower("s", self.CAT)  # collapsed to the keeper

    def test_equivalent_branches_keep_the_first(self):
        plan = UnionPlan([tower("s", self.CAT), tower("s", self.CAT,
                                                      ("k",))])
        pruned, dropped = prune_subsumed(plan)
        assert dropped == 1
        assert pruned == tower("s", self.CAT)

    def test_cross_source_branches_are_kept(self):
        plan = UnionPlan([tower("s1", self.CAT), tower("s2", self.NARROW)])
        pruned, dropped = prune_subsumed(plan)
        assert dropped == 0
        assert pruned is plan

    def test_disjoint_branches_are_kept(self):
        other = Leaf(atom("tag", Op.EQ, "new"))
        plan = UnionPlan([tower("s", self.CAT), tower("s", other)])
        assert prune_subsumed(plan) == (plan, 0)

    def test_subsumes_requires_same_source(self):
        assert not branch_subsumes(tower("s1", self.CAT),
                                   tower("s2", self.NARROW))
        assert branch_subsumes(tower("s", self.CAT),
                               tower("s", self.NARROW))


class TestMediatorIntegration:
    def test_minimal_mode_prunes_and_preserves_answers(self):
        baseline = Mediator()
        baseline.add_source(overlap_source(seed=3, n_rows=60))
        minimal = Mediator(minimal_answers=True)
        minimal.add_source(overlap_source(seed=3, n_rows=60))
        query = overlap_queries(seed=4, count=1)[0]
        registry = MetricsRegistry()
        with use_metrics(registry):
            base = baseline.ask(query)
            less = minimal.ask(query)

        def keyset(rows):
            return {tuple(sorted(r.items())) for r in rows}

        assert keyset(base.rows) == keyset(less.rows)
        assert less.report.queries <= base.report.queries

    def test_battery(self):
        out = MinimalAnswerWorkload(seed=37, n_queries=40, n_rows=100
                                    ).battery()
        assert out["mismatched_answers"] == 0
        assert out["branches_pruned"] >= 1
        assert out["source_queries_saved"] >= out["branches_pruned"]

    def test_run_is_deterministic(self):
        knobs = dict(seed=41, n_queries=30, n_rows=80)
        assert MinimalAnswerWorkload(**knobs).run().summary \
            == MinimalAnswerWorkload(**knobs).run().summary
