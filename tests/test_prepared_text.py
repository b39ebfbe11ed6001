"""A warm ask is a prepared statement: the text path against the tree path.

One tokenizer scan yields a text's tokens, its *spelling* (constants
replaced by their class) and its constant vector; a spelling seen before
binds the constants into its compiled skeleton instead of parsing.  The
property battery (arbitrary text in, a result or a typed error out)
pins what that may never change: lexing is total, equal spellings mean
equal skeletons and a constant vector that is the parsed atoms' values,
the one-pass fingerprint is the tree walk's, and the unsatisfiability
check's shortcut (no attribute twice) agrees with its full DNF check.
The differential battery asks every text through the prepared path and
as ``ask(parse_query(text))`` on two mediators in lockstep and compares
what each ask served: the plan, its cost, the rows, the plan
cache outcome and the template store's counts.
"""

from __future__ import annotations

import random
import re
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache import BoundedCache
from repro.conditions.fingerprint import Fingerprint, SkeletonBinder
from repro.conditions.parser import _tokenize, parse_condition, parse_tokens
from repro.conditions.normal_forms import dnf_terms
from repro.conditions.simplify import (
    _UNSAT_MAX_TERMS,
    contradicts,
    is_definitely_unsatisfiable,
)
from repro.errors import (
    ConditionError,
    ConditionParseError,
    InfeasiblePlanError,
)
from repro.mediator import Mediator
from repro.plans.printer import to_paper_notation
from repro.query import _split, parse_query, prepare_query
from repro.source.source import CapabilitySource
from repro.ssdl.builder import DescriptionBuilder
from repro.workloads.synthetic import (
    WorldConfig,
    make_description,
    make_queries,
    make_table,
)

from tests.conftest import make_example41_source

# ----------------------------------------------------------------------
# Strategies: arbitrary text, and texts built from the condition
# language's own tokens (so most of them parse, and spellings repeat)
# ----------------------------------------------------------------------

_NUMBERS = st.one_of(st.integers(-9, 9).map(str),
                     st.sampled_from(["0.5", "-2.25", "10", "007"]))
_STRINGS = st.sampled_from(["'x'", "'y'", '"x"', r"'it\'s'", "''", "'1'"])
_CONSTANT = st.one_of(_NUMBERS, _STRINGS,
                      st.sampled_from(["true", "false", "TRUE"]))
_WORDS = st.sampled_from([
    "a1", "a2", "b", "=", "==", "!=", "<>", "<", "<=", ">", ">=", "and",
    "or", "AND", "in", "contains", "(", ")", ",", "true", "false",
])
_PIECE = st.one_of(_WORDS, _CONSTANT)
#: Token soup: mostly invalid, sometimes not.
soup = st.lists(_PIECE, max_size=14).map(" ".join)


@st.composite
def atom_texts(draw) -> str:
    attribute = draw(st.sampled_from(["a1", "a2", "b"]))
    form = draw(st.sampled_from(["op", "op", "contains", "in"]))
    if form == "contains":
        return f"{attribute} contains {draw(_STRINGS)}"
    if form == "in":
        members = draw(st.lists(_CONSTANT, min_size=1, max_size=3))
        return f"{attribute} in ({', '.join(members)})"
    op = draw(st.sampled_from(["=", "!=", "<", ">=", "=="]))
    return f"{attribute} {op} {draw(_CONSTANT)}"


def _grouped(children, connector):
    return children.map(lambda parts: "(" + f" {connector} ".join(parts) + ")")


#: Well-formed condition texts (a few are still refused: ``a1 < true``).
condition_texts = st.recursive(
    atom_texts(),
    lambda children: st.one_of(
        _grouped(st.lists(children, min_size=2, max_size=3), "and"),
        _grouped(st.lists(children, min_size=2, max_size=3), "or"),
        st.lists(children, min_size=2, max_size=3).map(" and ".join),
    ),
    max_leaves=6,
)
texts = st.one_of(st.text(max_size=60), soup, condition_texts)


def _respelled(text: str, rng: random.Random) -> str:
    """``text`` with every number and string token replaced by another
    of the same class -- the same spelling, other constants."""
    tokens, _, _ = _tokenize(text)
    out, last = [], 0
    for match in tokens:
        kind = match.lastgroup
        token, pos = match[kind], match.start(kind)
        if kind == "number":
            fresh = rng.choice(["3", "-1", "12", "4.75", "0"])
        elif kind == "string":
            fresh = rng.choice(["'p'", '"q"', "'x'", r"'a\\b'"])
        else:
            continue
        out.append(text[last:pos] + fresh)
        last = pos + len(token)
    return "".join(out) + text[last:]


def _slot_values(constants, slots) -> list:
    return [constants[slot] if isinstance(slot, int)
            else tuple(constants[i] for i in slot) for slot in slots]


def _typed(values) -> list:
    """Values with their classes, element-wise (``1 == 1.0 == True``)."""
    return [(type(v), tuple(map(type, v)) if isinstance(v, tuple) else ())
            + (v,) for v in values]


# ----------------------------------------------------------------------
# Property battery
# ----------------------------------------------------------------------

@given(texts)
@settings(max_examples=400, deadline=None)
def test_lexing_is_total_with_typed_errors(text):
    try:
        tokens, spelling, constants = _tokenize(text)
        condition, _ = parse_tokens(tokens, constants)
    except ConditionParseError:
        with pytest.raises(ConditionParseError):
            parse_condition(text)
        return
    assert parse_condition(text) == condition
    assert len(spelling) == len(tokens)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_prepared_query_equals_the_parsed_one(text):
    """Through a memo, twice (a miss, then a hit): the same query, the
    same fingerprint -- or the same error."""
    full = f"SELECT key, a1 FROM world WHERE {text}"
    memo = BoundedCache(4)
    try:
        expected = parse_query(full)
    except ConditionParseError as exc:
        for _ in range(2):
            with pytest.raises(ConditionParseError) as raised:
                prepare_query(full, memo)
            assert str(raised.value) == str(exc)
        return
    for _ in range(2):
        query = prepare_query(full, memo)
        assert query == expected
        assert query.condition_attributes == expected.condition_attributes
        got, want = query.fingerprint, expected.fingerprint
        assert (got.exact, got.exact_text, got.skeleton, got.atoms) == (
            want.exact, want.exact_text, want.skeleton, want.atoms)
    assert memo.stats.hits == 1


#: The query-text pattern as a lazy WHERE group (what ``_split``
#: computes with a greedy group and a trim).
_REFERENCE_QUERY_RE = re.compile(
    r"^\s*select\s+(?P<attrs>.+?)\s+from\s+(?P<source>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\s+where\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_QUERY_PIECES = st.sampled_from([
    "select", "SELECT", "ſelect", "from", "FROM", "where", "WHERE", " ",
    "  ", "\n", "\t", "\x1c", "\x85", "\xa0", "\u2028", ";", "a", "b1",
    ",", "x = 1", "'w;'", "_", "9", "é",
])


@given(st.lists(_QUERY_PIECES, max_size=14).map("".join))
@settings(max_examples=500, deadline=None)
def test_query_split_equals_the_lazy_pattern(text):
    match = _REFERENCE_QUERY_RE.match(text)
    if match is None:
        with pytest.raises(ConditionParseError):
            _split(text)
    else:
        assert _split(text) == match.group("attrs", "source", "where")


@pytest.mark.parametrize("text", [
    "SELECT , FROM s WHERE a = $", "SELECT a FROM s WHERE a = $",
    "SELECT , FROM s WHERE a = 1", "SELECT a FROM s WHERE a <", "select",
])
def test_errors_come_in_the_order_parse_query_reports_them(text):
    with pytest.raises(ConditionParseError) as expected:
        parse_query(text)
    with pytest.raises(ConditionParseError) as raised:
        prepare_query(text, BoundedCache(4))
    assert str(raised.value) == str(expected.value)


@given(condition_texts, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_equal_spellings_share_a_skeleton_and_bind_alike(text, rng):
    other = _respelled(text, rng)
    tokens, spelling, constants = _tokenize(text)
    other_tokens, other_spelling, other_constants = _tokenize(other)
    assert other_spelling == spelling
    try:
        condition, slots = parse_tokens(tokens, constants)
    except ConditionParseError:
        # Whether a text parses is a function of its spelling.
        with pytest.raises(ConditionParseError):
            parse_tokens(other_tokens, other_constants)
        return
    rebound, other_slots = parse_tokens(other_tokens, other_constants)
    assert other_slots == slots
    fingerprint, expected = Fingerprint(condition), Fingerprint(rebound)
    assert fingerprint.skeleton == expected.skeleton
    # The constant vector, per slot, is the parsed atoms' values.
    assert _typed(_slot_values(constants, slots)) == _typed(
        atom.value for atom in fingerprint.atoms)
    # The one pass over the stored skeleton is the tree walk.
    bound, got = SkeletonBinder(fingerprint.skeleton, slots).bind(
        other_constants)
    assert bound == rebound
    assert (got.exact, got.exact_text, got.skeleton, got.atoms) == (
        expected.exact, expected.exact_text, expected.skeleton,
        expected.atoms)


_CONTRADICTING = st.recursive(
    st.builds("{} {} {}".format, st.sampled_from(["a1", "a2"]),
              st.sampled_from(["=", "<", ">=", "!="]),
              st.sampled_from(["5", "7", "1", "'x'"])),
    lambda children: st.one_of(
        _grouped(st.lists(children, min_size=2, max_size=3), "and"),
        _grouped(st.lists(children, min_size=2, max_size=2), "or"),
    ),
    max_leaves=7,
)


def _full_unsat_check(condition) -> bool:
    """``is_definitely_unsatisfiable`` without its shortcut: every DNF
    term holds a contradicting pair."""
    if condition.is_true:
        return False
    try:
        terms = dnf_terms(condition, max_terms=_UNSAT_MAX_TERMS)
    except ConditionError:
        return False
    return bool(terms) and all(
        any(contradicts(a.atom, b.atom) for a, b in combinations(term, 2))
        for term in terms)


@given(st.one_of(_CONTRADICTING, condition_texts))
@settings(max_examples=400, deadline=None)
def test_the_unsat_shortcut_agrees_with_the_full_check(text):
    try:
        condition = parse_condition(text)
    except ConditionParseError:
        return
    assert is_definitely_unsatisfiable(condition) == _full_unsat_check(
        condition)


@pytest.mark.parametrize("text, empty", [
    ("a1 = 5 and a1 = 7", True),
    ("a1 = 5 and a1 = 5", False),
    ("(a1 < 1 or a2 = 2) and a1 > 5 and a2 = 3", True),
    ("a1 = 5 or a1 = 7", False),
    ("a1 = 5 and a2 = 7", False),
])
def test_provably_empty_conditions(text, empty):
    assert is_definitely_unsatisfiable(parse_condition(text)) is empty


# ----------------------------------------------------------------------
# Differential battery: prepared text vs ask(parse_query(text))
# ----------------------------------------------------------------------

def _outcome(mediator: Mediator, text: str, ask) -> tuple:
    """What one ask served, as comparable values; a served answer is
    also checked against the rows the condition selects."""
    try:
        answer = ask()
    except InfeasiblePlanError:
        answer = None
    event = mediator.events.events()[-1]
    templates = mediator.plan_templates
    if answer is None:
        served = ("INFEASIBLE",)
    else:
        query = parse_query(text)
        source = mediator.source(query.source)
        expected = source.relation.select(query.condition).project(
            query.attributes)
        assert answer.result.as_row_set() == expected.as_row_set(), text
        served = (
            to_paper_notation(answer.planning.plan) if answer.planning.plan
            else "EMPTY",
            answer.planning.cost, answer.report.queries,
            answer.result.as_row_set())
    return served + (event.outcome, event.plan_cache, templates.hits,
                     templates.rejected)


def _lockstep(build, texts, executor, between=None) -> list[tuple]:
    """Ask every text of ``texts`` both ways, on two mediators built by
    ``build``; ``between(mediator, index)`` runs before each ask.  No
    source ever sees a query its grammar rejects."""
    prepared = build(executor)
    parsed = build(executor)
    outcomes = []
    try:
        for index, text in enumerate(texts):
            for mediator in (prepared, parsed):
                if between is not None:
                    between(mediator, index)
            left = _outcome(prepared, text, lambda: prepared.ask(text))
            right = _outcome(
                parsed, text, lambda: parsed.ask(parse_query(text)))
            assert left == right, (index, text)
            outcomes.append(left)
        assert prepared.spellings.stats.hits > 0
        for mediator in (prepared, parsed):
            assert not any(source.meter.snapshot().rejected
                           for source in mediator.catalog.values())
    finally:
        prepared.close()
        parsed.close()
    return outcomes


def _world_texts(config: WorldConfig, n_atoms: int, seed: int) -> list[str]:
    """Synthetic queries, each respelled with fresh constants a few
    times (template hits), repeated (exact hits) and interleaved."""
    source = CapabilitySource("world", make_table(config),
                              make_description(config))
    rng = random.Random(seed)
    base = [query.to_text() for query in
            make_queries(config, source, 6, n_atoms, seed=seed)]
    texts = []
    for _ in range(4):
        for text in base:
            respelled = _respelled(text, rng)
            texts += [respelled, text, respelled]
    rng.shuffle(texts)
    return texts


def _world_builder(config: WorldConfig):
    relation = make_table(config)

    def build(executor: str) -> Mediator:
        mediator = Mediator(plan_cache_entries=32, executor=executor,
                            event_log_entries=4)
        mediator.add_source(CapabilitySource(
            "world", relation, make_description(config)))
        return mediator

    return build


ENGINES = ["serial", "parallel", "async"]


@pytest.mark.parametrize("executor", ENGINES)
@pytest.mark.parametrize("seed, richness, n_atoms", [
    (3, 0.9, 3), (5, 0.6, 4), (8, 0.8, 2)])
def test_synthetic_worlds_serve_identically(executor, seed, richness,
                                            n_atoms):
    config = WorldConfig(n_rows=300, richness=richness, seed=seed)
    outcomes = _lockstep(_world_builder(config),
                         _world_texts(config, n_atoms, seed), executor)
    labels = {outcome[-3] for outcome in outcomes}
    assert {"hit", "miss"} <= labels


def _cars(executor: str) -> Mediator:
    mediator = Mediator(plan_cache_entries=16, executor=executor,
                        event_log_entries=4)
    mediator.add_source(make_example41_source())
    return mediator


@pytest.mark.parametrize("executor", ENGINES)
def test_a_repeated_atom_template_rejects(executor):
    """The stored template held one atom twice; a draw giving the two
    positions different constants cannot be rebound."""
    texts = [
        "SELECT model FROM cars WHERE make = 'BMW' and price < 40000 or "
        "make = 'BMW' and color = 'red'",
        "SELECT model FROM cars WHERE make = 'Toyota' and price < 20000 or "
        "make = 'Honda' and color = 'red'",
        "SELECT model FROM cars WHERE make = 'Kia' and price < 9000 or "
        "make = 'Kia' and color = 'blue'",
    ]
    outcomes = _lockstep(_cars, texts, executor)
    assert [o[-2:] for o in outcomes] == [(0, 0), (0, 1), (1, 1)]
    assert [o[-3] for o in outcomes] == ["miss", "miss", "template_hit"]


def _styles(executor: str) -> Mediator:
    """A grammar with a literal template: support depends on the value."""
    from repro.data.relation import Relation
    from repro.data.schema import AttrType, Schema

    schema = Schema.of("t", [("id", AttrType.INT), ("style", AttrType.STRING),
                             ("make", AttrType.STRING)], key="id")
    description = (
        DescriptionBuilder("d")
        .rule("sedans", "style = 'sedan' and make = $str",
              attributes=["id", "style", "make"])
        .rule("by_make", "make = $str", attributes=["id", "style", "make"])
        .build())
    rows = [{"id": i, "style": style, "make": make} for i, (style, make) in
            enumerate([("sedan", "a"), ("coupe", "a"), ("sedan", "b")])]
    mediator = Mediator(plan_cache_entries=16, executor=executor,
                        event_log_entries=4)
    mediator.add_source(CapabilitySource("t", Relation(schema, rows),
                                         description))
    return mediator


@pytest.fixture
def supports_calls(monkeypatch) -> list:
    """Every condition ``CapabilitySource.supports`` is asked about."""
    calls = []
    supports = CapabilitySource.supports

    def counted(self, condition, attributes):
        calls.append(str(condition))
        return supports(self, condition, attributes)

    monkeypatch.setattr(CapabilitySource, "supports", counted)
    return calls


@pytest.mark.parametrize("executor", ENGINES)
def test_a_literal_template_still_validates(executor, supports_calls):
    texts = ["SELECT id FROM t WHERE style = 'sedan' and make = 'a'",
             "SELECT id FROM t WHERE style = 'coupe' and make = 'a'",
             "SELECT id FROM t WHERE style = 'sedan' and make = 'b'"]
    outcomes = _lockstep(_styles, texts, executor)
    assert [o[-3] for o in outcomes] == ["miss", "miss", "template_hit"]
    assert [o[-2:] for o in outcomes] == [(0, 0), (0, 1), (1, 1)]
    # Both paths asked the grammar about the rebound source queries:
    # the refused ``coupe`` one and the served one.
    assert supports_calls.count("style = 'coupe' and make = 'a'") == 2
    assert supports_calls.count("style = 'sedan' and make = 'b'") == 2


@pytest.mark.parametrize("executor", ENGINES)
def test_a_class_only_template_skips_supports(executor, supports_calls):
    texts = ["SELECT model FROM cars WHERE make = 'BMW' and price < 40000",
             "SELECT model FROM cars WHERE make = 'Kia' and price < 9000"]
    outcomes = _lockstep(_cars, texts, executor)
    assert [o[-3] for o in outcomes] == ["miss", "template_hit"]
    assert not [c for c in supports_calls if "Kia" in c]


@pytest.mark.parametrize("executor", ENGINES)
def test_a_provably_empty_query_short_circuits(executor):
    texts = ["SELECT model FROM cars WHERE price < 10 and price > 20"] * 2 + [
        "SELECT model FROM cars WHERE price < 5 and price > 900",
        "SELECT model FROM cars WHERE price < 50 and price > 20",
    ]
    outcomes = _lockstep(_cars, texts, executor)
    for outcome in outcomes[:3]:
        assert outcome[:4] == ("EMPTY", 0.0, 0, frozenset())
        assert outcome[-3] == ""
    assert outcomes[3][-3] == "miss"


@pytest.mark.parametrize("executor", ENGINES)
def test_a_mutation_between_asks_replans(executor):
    restricted = ("s -> s1\ns1 -> make = $m and price < $p\n"
                  "attributes s1 : make, model, year, color\n")

    def between(mediator, index):
        if index == 2:
            from repro.ssdl.text import parse_ssdl

            mediator.mutate_source("cars", parse_ssdl(restricted))

    texts = [
        "SELECT model FROM cars WHERE make = 'BMW' and price < 40000",
        "SELECT model FROM cars WHERE make = 'Honda' and price < 20000",
        "SELECT model FROM cars WHERE make = 'Toyota' and price < 30000",
        "SELECT model FROM cars WHERE make = 'Honda' and price < 20000",
        "SELECT model FROM cars WHERE make = 'BMW' and price < 35000",
    ]
    outcomes = _lockstep(_cars, texts, executor, between)
    assert [o[-3] for o in outcomes] == [
        "miss", "template_hit", "miss", "template_hit", "template_hit"]
