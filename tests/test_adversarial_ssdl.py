"""Adversarial SSDL: hostile grammar generation, compiled/Earley
parity, and exact budget/fallback counter reconciliation."""

from __future__ import annotations

from repro.conditions.atoms import Atom, Op
from repro.conditions.tree import And, Leaf
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.ssdl.commute import commutation_closure
from repro.workloads.adversarial import (
    AdversarialGrammar,
    AdversarialSSDLWorkload,
)


class TestAdversarialGrammar:
    def test_twins_share_the_language_but_no_state(self):
        grammar = AdversarialGrammar(seed=42)
        left, right = grammar.build(), grammar.build()
        assert left is not right
        assert left.productions == right.productions
        assert left.attributes == right.attributes
        assert left.condition_nonterminals == right.condition_nonterminals

    def test_base_condition_is_deeply_ambiguous(self):
        grammar = AdversarialGrammar(seed=42, ambiguity=3)
        description = grammar.build()
        attr, op, _ = grammar._atom_rules[0]
        value = "v1" if op in (Op.EQ, Op.CONTAINS) else 5
        result = description.check(Leaf(Atom(attr, op, value)))
        # amb0..amb2 and the helper chain's bottom all match.
        assert len(result.matched) >= 4
        # Ambiguous nonterminals export *different* attribute sets.
        assert len(result.attribute_sets) >= 3

    def test_closure_explodes_factorially(self):
        grammar = AdversarialGrammar(seed=7, segments=6)
        native = grammar.build()
        closed = commutation_closure(native)
        # Each 6-segment wide rule becomes 720 permutations.
        assert closed.rule_count() > 10 * native.rule_count()
        assert closed.rule_count() >= 720

    def test_condition_pool_is_seeded(self):
        grammar = AdversarialGrammar(seed=9)
        assert grammar.conditions(5, 30) == grammar.conditions(5, 30)
        assert grammar.conditions(5, 30) != grammar.conditions(6, 30)

    def test_compiled_matches_earley_on_the_pool(self):
        grammar = AdversarialGrammar(seed=11)
        compiled, twin = grammar.build(), grammar.build()
        compiled.compile()
        for condition in grammar.conditions(3, 40):
            assert compiled.check(condition) == twin.check(condition)


class TestCounterReconciliation:
    def test_budget_counter_matches_failed_compiles(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            description = AdversarialGrammar(seed=13).build()
            closed = commutation_closure(description)
            report = closed.compile(max_sequences=10)
        assert not report.compiled
        assert registry.counter("ssdl.compile.budget_exceeded").value == 1

    def test_fallback_counter_matches_per_description(self):
        registry = MetricsRegistry()
        grammar = AdversarialGrammar(seed=13)
        description = grammar.build()
        # Matchable atoms: a condition with an atom no template matches
        # is answered before either recognizer and never falls back.
        attr, op, _ = grammar._atom_rules[0]
        with use_metrics(registry):
            assert description.compile(max_tokens=5).compiled
            long = And([
                Leaf(Atom(attr, op, f"v{i}")) for i in range(6)
            ])
            description.check(long)  # beyond the 5-token horizon
        assert description.check_fallbacks == 1
        assert description.check_prefiltered == 0
        assert registry.counter("ssdl.check.fallback").value == 1

    def test_prefiltered_counter_matches_per_description(self):
        registry = MetricsRegistry()
        grammar = AdversarialGrammar(seed=13)
        description = grammar.build()
        attr, op, _ = grammar._atom_rules[0]
        wrong = Op.NE if op is not Op.NE else Op.LT
        with use_metrics(registry):
            assert description.compile().compiled
            description.check(And([
                Leaf(Atom(attr, op, "v1")), Leaf(Atom(attr, wrong, 7)),
            ]))
            description.check(Leaf(Atom(attr, op, "v1")))
        assert description.check_prefiltered == 1
        assert description.check_compiled == 1
        assert description.check_fallbacks == 0
        assert description.check_calls == 2
        assert registry.counter("ssdl.check.prefiltered").value == 1

    def test_workload_reconciles_exactly(self):
        """Satellite: registry ``ssdl.compile.budget_exceeded`` +
        ``ssdl.check.fallback`` + ``ssdl.check.prefiltered`` reconcile
        exactly with per-description ``check_compiled``/
        ``check_fallbacks``/``check_prefiltered`` under the adversarial
        workload (asserted inside the battery; re-checked here)."""
        out = AdversarialSSDLWorkload(
            seed=17, n_grammars=3, conditions_per_grammar=24).battery()
        assert out["accounting_exact"] is True
        assert out["registry_budget_exceeded"] == out["budget_exceeded"]
        assert out["registry_fallbacks"] == out["fallbacks"]
        assert out["registry_prefiltered"] == out["prefiltered"]
        assert out["budget_exceeded"] > 0
        assert out["fallbacks"] > 0
        assert out["prefiltered"] > 0


class TestAdversarialWorkload:
    def test_run_is_deterministic(self):
        knobs = dict(seed=19, n_grammars=3, conditions_per_grammar=20)
        first = AdversarialSSDLWorkload(**knobs).run()
        second = AdversarialSSDLWorkload(**knobs).run()
        assert first.summary == second.summary

    def test_parity_is_clean(self):
        report = AdversarialSSDLWorkload(
            seed=19, n_grammars=3, conditions_per_grammar=20).run()
        assert report.summary["parity_mismatches"] == 0
        assert report.summary["parity_checks"] > 0
        assert report.summary["closure_rules"] \
            > report.summary["native_rules"]
