"""The compiled Check path: token-trie recognizer vs. the Earley parse.

Covers the offline compiler (:mod:`repro.ssdl.compiled`), the
description-level integration (compile / fallback / invalidation), the
Check-cache fixes (the cache and its counters must reconcile under
threads; the LRU bound must hold), and
compiled-vs-Earley parity over the golden grammar corpus -- including
the parenthesized-connector spellings that historically needed a
workaround.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.conditions.atoms import Atom
from repro.conditions.parser import parse_condition
from repro.conditions.tree import And, Leaf, Or
from repro.observability.metrics import get_metrics
from repro.observability.trace import Tracer, use_tracer
from repro.planners.gencompact import GenCompact
from repro.planners.genmodular import GenModular
from repro.plans.cost import CostModel
from repro.query import TargetQuery
from repro.source.library import standard_catalog
from repro.ssdl import description as description_module
from repro.ssdl.commute import commutation_closure
from repro.ssdl.description import SourceDescription
from repro.ssdl.symbols import ConstClass
from repro.ssdl.text import parse_ssdl
from repro.workloads.adversarial import AdversarialGrammar
from repro.workloads.synthetic import WorldConfig, make_source, random_condition

from tests.conftest import EXAMPLE_41_SSDL


def earley_twin(description: SourceDescription) -> SourceDescription:
    """A fresh, never-compiled copy of a description (the reference)."""
    return SourceDescription(
        description.condition_nonterminals,
        description.productions,
        description.attributes,
        name=f"{description.name}-earley",
    )


@pytest.fixture
def example41_description() -> SourceDescription:
    return parse_ssdl(EXAMPLE_41_SSDL, name="example41")


# ----------------------------------------------------------------------
# The compiler itself
# ----------------------------------------------------------------------

class TestCompilation:
    def test_compiles_example41(self, example41_description):
        report = example41_description.compile()
        assert report.compiled
        assert example41_description.compiled
        assert report.sequences > 0
        assert report.states > 0
        assert report.horizon > 0
        assert "compiled" in str(report)

    def test_budget_exceeded_stays_earley(self, example41_description):
        before = get_metrics().counter("ssdl.compile.budget_exceeded").value
        report = example41_description.compile(max_sequences=1)
        assert not report.compiled
        assert "1" in report.reason
        assert not example41_description.compiled
        after = get_metrics().counter("ssdl.compile.budget_exceeded").value
        assert after == before + 1
        # Check still works (Earley), and reports no fallback: there is
        # no compiled form to fall back *from*.
        result = example41_description.check(
            parse_condition("make = 'BMW' and price < 20000")
        )
        assert result.matched == ("s1",)
        assert example41_description.check_fallbacks == 0
        assert str(report).startswith("not compiled")

    def test_invalidate_compiled_drops_the_form(self, example41_description):
        example41_description.compile()
        assert example41_description.compiled
        example41_description.invalidate_compiled()
        assert not example41_description.compiled
        assert example41_description.compilation is None
        result = example41_description.check(
            parse_condition("make = 'BMW' and color = 'red'")
        )
        assert result.matched == ("s2",)

    def test_every_library_grammar_compiles_within_budget(self):
        for source in standard_catalog(seed=7).values():
            for description in (source.description, source.closed_description):
                report = earley_twin(description).compile()
                assert report.compiled, (
                    f"{description.name} blew the default budget: "
                    f"{report.reason}"
                )

    def test_compiled_answers_are_counted(self, example41_description):
        example41_description.compile()
        example41_description.check(parse_condition("make = 'BMW' and price < 1"))
        assert example41_description.check_compiled == 1
        assert example41_description.check_fallbacks == 0


# ----------------------------------------------------------------------
# Fallback: conditions beyond the horizon
# ----------------------------------------------------------------------

class TestFallback:
    def test_long_condition_falls_back_to_earley(self, example41_description):
        # A horizon of 2 tokens cannot hold "make = $m and price < $p"
        # (3 tokens: two atoms and the keyword), so the enumeration is
        # incomplete and every conjunctive Check must fall back.
        report = example41_description.compile(max_tokens=2)
        assert report.compiled  # compiled, just with a tiny horizon
        assert not report.complete
        before = get_metrics().counter("ssdl.check.fallback").value
        result = example41_description.check(
            parse_condition("make = 'BMW' and price < 20000")
        )
        assert result.matched == ("s1",)
        assert example41_description.check_fallbacks == 1
        assert get_metrics().counter("ssdl.check.fallback").value == before + 1

    def test_fallback_result_equals_reference(self, example41_description):
        example41_description.compile(max_tokens=2)
        twin = earley_twin(example41_description)
        for text in (
            "make = 'BMW' and price < 20000",
            "make = 'BMW' and color = 'red'",
            "price < 20000",
        ):
            condition = parse_condition(text)
            assert example41_description.check(condition) == twin.check(condition)


# ----------------------------------------------------------------------
# Past the horizon of a complete enumeration: a rejection, not a fallback
# ----------------------------------------------------------------------

_SAMPLE_VALUE = {ConstClass.STR: "x", ConstClass.NUM: 7,
                 ConstClass.BOOL: True, ConstClass.LIST: ("x",),
                 ConstClass.ANY: 7}


def _past_the_horizon(description: SourceDescription, seed: int,
                      count: int = 12) -> list:
    """Conditions longer than any horizon whose every atom some template
    matches, so neither the prefilter nor a short walk answers them."""
    rng = random.Random(seed)
    atoms = sorted(
        (Atom(t.attribute, t.op, _SAMPLE_VALUE.get(t.constant, t.constant))
         for t in description.templates()),
        key=repr,
    )
    out = []
    for index in range(count):
        leaves = [Leaf(rng.choice(atoms)) for _ in range(rng.randrange(17, 22))]
        if index % 3 == 0:
            out.append(And(leaves))
        elif index % 3 == 1:
            out.append(Or(leaves))
        else:
            out.append(And([Or(leaves[:9]), *leaves[9:]]))
    return out


def _without_recursion(grammar: AdversarialGrammar) -> SourceDescription:
    """An adversarial grammar minus its one recursive rule (``disj`` over
    ``orlist``): ambiguity, helper chain and wide rules, all finite."""
    full = grammar.build()
    return SourceDescription(
        [nt for nt in full.condition_nonterminals if nt != "disj"],
        {head: alts for head, alts in full.productions.items()
         if head not in ("disj", "orlist")},
        {nt: attrs for nt, attrs in full.attributes.items() if nt != "disj"},
        name=f"{full.name}-finite",
    )


def _grammar(origin: str, closed: bool) -> SourceDescription:
    if origin.startswith("adversarial"):
        native = _without_recursion(AdversarialGrammar(int(origin[11:])))
        return commutation_closure(native) if closed else native
    source = standard_catalog(seed=7)[origin]
    return source.closed_description if closed else source.description


class TestCompleteHorizon:
    """``car_guide`` is left out: its ``size_list`` recursion makes the
    enumeration incomplete, and ``TestFallback`` covers that side."""

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("origin", [
        "bookstore", "bank", "flights", "classifieds",
        "adversarial3", "adversarial11",
    ])
    def test_longer_than_the_horizon_is_earleys_verdict(self, origin, closed):
        reference = _grammar(origin, closed)
        compiled = earley_twin(reference)
        assert compiled.compile().complete
        twin = earley_twin(reference)
        conditions = _past_the_horizon(reference, seed=len(origin))
        for condition in conditions:
            assert compiled.check(condition) == twin.check(condition)
        assert compiled.check_fallbacks == 0
        assert compiled.check_compiled == compiled.check_calls > 0


# ----------------------------------------------------------------------
# The Check cache stays bounded
# ----------------------------------------------------------------------

class TestCacheDisabled:
    def test_lru_bound_holds(self, example41_description, monkeypatch):
        monkeypatch.setattr(description_module, "CHECK_CACHE_ENTRIES", 4)
        bounded = SourceDescription(
            example41_description.condition_nonterminals,
            example41_description.productions,
            example41_description.attributes,
        )
        for i in range(40):
            bounded.check(parse_condition(f"make = 'M{i}' and price < 10"))
        assert bounded.check_cache_size() == 4
        # The most recent condition is retained, the oldest evicted.
        bounded.check(parse_condition("make = 'M39' and price < 10"))
        assert bounded.check_cache_hits == 1
        bounded.check(parse_condition("make = 'M0' and price < 10"))
        assert bounded.check_cache_hits == 1


# ----------------------------------------------------------------------
# Satellite 2: counters and cache reconcile under threads
# ----------------------------------------------------------------------

class TestThreadedCheck:
    @pytest.mark.parametrize("compile_first", [False, True])
    def test_sixteen_threads_reconcile(self, example41_description,
                                       compile_first):
        if compile_first:
            assert example41_description.compile().compiled
        conditions = [
            parse_condition(f"make = 'M{i % 7}' and price < {100 + i % 5}")
            for i in range(35)
        ]
        per_thread = 200
        n_threads = 16
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_threads)

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                barrier.wait()
                for _ in range(per_thread):
                    condition = rng.choice(conditions)
                    result = example41_description.check(condition)
                    assert result.matched == ("s1",)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        invocations = n_threads * per_thread
        # The leak-free invariant: every invocation is either a parse or
        # a cache hit -- lost updates under contention would break this.
        assert (example41_description.check_calls
                + example41_description.check_cache_hits) == invocations
        assert example41_description.check_cache_size() <= len(conditions)
        if compile_first:
            assert (example41_description.check_compiled
                    == example41_description.check_calls)


# ----------------------------------------------------------------------
# Satellite 3 + parity: compiled == Earley over the golden corpus
# ----------------------------------------------------------------------

#: Condition spellings exercising every grammar quirk: bare and nested
#: connectors, parenthesized-group rules, reversed slot orders.
PARITY_CORPUS = {
    "bookstore": [
        "author = 'Carl Jung'",
        "author = 'Carl Jung' and title contains 'memory'",
        "(author = 'Sigmund Freud' or author = 'Anna Freud') "
        "and title contains 'childhood'",
        "subject = 'philosophy' and title contains 'will'",
        "author = 'Carl Jung' or author = 'Anna Freud'",
    ],
    "car_guide": [
        "make = 'BMW'",
        "price <= 12000 and make = 'Ford'",
        "style = 'wagon' and (size = 'compact' or size = 'fullsize')",
        "(make = 'Honda' and price <= 16000) or "
        "(make = 'Toyota' and price <= 14000)",
        # The parenthesized-group rule "( size_list )" as the *whole*
        # condition (serialized bare) and nested (serialized wrapped).
        "size = 'compact' or size = 'fullsize'",
        "size = 'compact' or size = 'midsize' or size = 'fullsize'",
        "make = 'BMW' and (size = 'compact' or size = 'fullsize')",
        "id = 17",
        "true",
    ],
    "bank": [
        "branch = 'airport' and type = 'savings'",
        "account_no = 12345",
        "owner = 'somebody'",
    ],
    "flights": [
        "origin = 'SEA' and destination = 'MIA' and price <= 700",
        "origin = 'SEA' and destination = 'MIA'",
    ],
    "classifieds": [
        "make = 'Toyota'",
        "price <= 15000 and color = 'red'",
        "true",
    ],
}


@pytest.mark.parametrize("source_name", sorted(PARITY_CORPUS))
def test_compiled_matches_earley_on_golden_corpus(source_name):
    source = standard_catalog(seed=1999)[source_name]
    for description in (source.description, source.closed_description):
        compiled = earley_twin(description)
        assert compiled.compile().compiled
        reference = earley_twin(description)
        for text in PARITY_CORPUS[source_name]:
            condition = parse_condition(text)
            got = compiled.check(condition)
            want = reference.check(condition)
            assert got == want, (
                f"{description.name}: compiled and Earley disagree on "
                f"{text!r}: {got} vs {want}"
            )
        # Everything short was answered by the trie, not by fallback.
        assert compiled.check_compiled > 0


def test_compiled_matches_earley_on_random_worlds():
    config = WorldConfig(n_attributes=6, n_rows=50, richness=0.8,
                         download_prob=0.5, seed=131)
    source = make_source(config)
    for description in (source.description, source.closed_description):
        compiled = earley_twin(description)
        assert compiled.compile().compiled
        reference = earley_twin(description)
        rng = random.Random(313)
        for _ in range(120):
            condition = random_condition(config, rng.randint(1, 4), rng)
            assert compiled.check(condition) == reference.check(condition), (
                f"{description.name} disagrees on {condition}"
            )


# ----------------------------------------------------------------------
# Planner threading: compiled counters surface in PlannerStats
# ----------------------------------------------------------------------

def test_gencompact_reports_compiled_checks(example41):
    example41.compile_capabilities()
    cost_model = CostModel({example41.name: example41.stats})
    query = TargetQuery(
        parse_condition("make = 'BMW' and price < 40000"),
        frozenset({"make", "model"}),
        example41.name,
    )
    result = GenCompact().plan(query, example41, cost_model)
    assert result.feasible
    assert result.stats.check_calls > 0
    assert result.stats.check_compiled > 0
    assert result.stats.check_fallbacks == 0
    assert result.stats.check_prefiltered == 0


@pytest.mark.parametrize("planner", [GenCompact(), GenModular(max_rewrites=10)])
def test_planners_report_prefiltered_checks(example41, planner):
    """``year`` has no template: Checks holding it never reach a
    recognizer, and the planner's stats and ``planner.plan`` span say so."""
    example41.compile_capabilities()
    cost_model = CostModel({example41.name: example41.stats})
    query = TargetQuery(
        parse_condition("make = 'BMW' and price < 40000 and year = 1999"),
        frozenset({"make", "model"}),
        example41.name,
    )
    tracer = Tracer()
    with use_tracer(tracer):
        result = planner.plan(query, example41, cost_model)
    stats = result.stats
    assert stats.check_prefiltered > 0
    assert stats.check_calls >= (
        stats.check_compiled + stats.check_fallbacks + stats.check_prefiltered)
    (span,) = [s for s in tracer.finished_spans()
               if s.name == "planner.plan"]
    assert span.attributes["check_prefiltered"] == stats.check_prefiltered


def test_source_compile_capabilities_reports(example41):
    reports = example41.compile_capabilities()
    assert reports["native"].compiled
    assert "closed" not in reports or reports["closed"].compiled
    assert example41.compiled
    example41.invalidate_compiled()
    assert not example41.compiled


def test_planner_stats_merge_includes_compiled_counters():
    from repro.planners.base import PlannerStats

    a = PlannerStats(check_calls=3, check_compiled=2, check_fallbacks=1)
    b = PlannerStats(check_calls=5, check_compiled=3, check_fallbacks=0,
                     check_prefiltered=2)
    a.merge(b)
    assert a.check_calls == 8
    assert a.check_compiled == 5
    assert a.check_fallbacks == 1
    assert a.check_prefiltered == 2
