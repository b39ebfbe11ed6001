"""Property-based tests for the planning stack: the paper's guarantees.

The heavyweight invariants:

1. **Correctness** -- executing any planner's feasible plan returns
   exactly SP(C, A, R) evaluated on the full relation (the projection
   includes the key, so the set operations are exact).
2. **Feasibility** -- the enforcing source never rejects a query from a
   planner's plan (queries are fixed first).
3. **GenCompact dominance** -- GenCompact is feasible whenever any
   baseline is, and its plan never costs more than a baseline's --
   except on conditions repeating a sibling subtree (``a or a``), which
   CNF/DNF conversion deduplicates and no GenCompact rewrite rule does.
4. **Pruning soundness** -- disabling PR1-PR3 never changes the cost.
5. **Statistics monotonicity** -- dropping a conjunct never shrinks the
   estimate (PR1's foundation).
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.planners.baselines import (
    CNFPlanner,
    DiscoPlanner,
    DNFPlanner,
    NaivePlanner,
)
from repro.conditions.canonical import canonicalize
from repro.planners.gencompact import GenCompact
from repro.planners.genmodular import GenModular
from repro.plans.cost import CostModel
from repro.plans.execute import Executor, reference_answer
from repro.query import TargetQuery
from repro.workloads.synthetic import (
    WorldConfig,
    make_source,
    random_condition,
)

# Three prebuilt worlds with different capability profiles; building one
# per hypothesis example would dominate the runtime.
_CONFIGS = [
    WorldConfig(n_attributes=5, n_rows=400, richness=0.5, download_prob=1.0,
                seed=21),
    WorldConfig(n_attributes=5, n_rows=400, richness=0.8, download_prob=0.0,
                seed=22),
    WorldConfig(n_attributes=6, n_rows=400, richness=0.3, download_prob=0.5,
                seed=23),
]
_WORLDS = [(config, make_source(config)) for config in _CONFIGS]
_MODELS = [CostModel({source.name: source.stats}) for _, source in _WORLDS]

_BASELINES = [CNFPlanner(), DNFPlanner(), DiscoPlanner(), NaivePlanner()]
_GENCOMPACT = GenCompact()


def _query_for(world_index: int, seed: int, n_atoms: int) -> TargetQuery:
    config, source = _WORLDS[world_index]
    rng = random.Random(seed)
    condition = random_condition(config, n_atoms, rng)
    return TargetQuery(condition, frozenset({"key"}), source.name)


@given(
    st.integers(0, len(_WORLDS) - 1),
    st.integers(0, 10**6),
    st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_plans_execute_correctly_and_feasibly(world_index, seed, n_atoms):
    config, source = _WORLDS[world_index]
    cost_model = _MODELS[world_index]
    query = _query_for(world_index, seed, n_atoms)
    expected = reference_answer(
        source, query.condition, query.attributes
    ).as_row_set()
    executor = Executor({source.name: source})
    for planner in [_GENCOMPACT] + _BASELINES:
        result = planner.plan(query, source, cost_model)
        if not result.feasible:
            continue
        # Invariant 2: the enforcing source accepts every fixed query.
        answer = executor.execute(result.plan)
        # Invariant 1: exact answers (key is projected).
        assert answer.as_row_set() == expected, (
            f"{planner.name} returned a wrong answer for {query}"
        )


def _repeats_a_sibling(condition) -> bool:
    """Whether some connector has two equal children (up to
    commutation).  Idempotence (``a or a == a``) is not among the
    paper's four rewrite rules, so GenCompact plans the repeat while
    the CNF/DNF baselines' normal forms drop it."""
    children = [canonicalize(child) for child in condition.children]
    return len(set(children)) < len(children) or any(
        _repeats_a_sibling(child) for child in condition.children
    )


@given(
    st.integers(0, len(_WORLDS) - 1),
    st.integers(0, 10**6),
    st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
# a4 = 'v4_2' or a4 = 'v4_2': CNF plans one SP, GenCompact two (324 vs 162).
@example(0, 416, 2)
def test_gencompact_dominates_baselines(world_index, seed, n_atoms):
    __, source = _WORLDS[world_index]
    cost_model = _MODELS[world_index]
    query = _query_for(world_index, seed, n_atoms)
    gc = _GENCOMPACT.plan(query, source, cost_model)
    expected_gap = _repeats_a_sibling(query.condition)
    for baseline in _BASELINES:
        base = baseline.plan(query, source, cost_model)
        if base.feasible:
            # Invariant 3: feasibility subsumption, on every input ...
            assert gc.feasible, (
                f"{baseline.name} planned {query} but GenCompact did not"
            )
            # ... and cost dominance wherever the rule set is complete.
            assert expected_gap or gc.cost <= base.cost + 1e-6, (
                f"GenCompact ({gc.cost}) worse than {baseline.name} "
                f"({base.cost}) on {query}"
            )


def test_the_pinned_gap_is_the_repeated_sibling():
    """The @example above is the expected-gap shape: GenCompact pays for
    the repeated disjunct, and on the deduplicated condition it does
    not lose to CNF any more."""
    __, source = _WORLDS[0]
    model = _MODELS[0]
    query = _query_for(0, 416, 2)
    assert _repeats_a_sibling(query.condition)
    cnf = CNFPlanner().plan(query, source, model)
    assert _GENCOMPACT.plan(query, source, model).cost > cnf.cost
    once = TargetQuery(query.condition.children[0], query.attributes,
                       query.source)
    assert not _repeats_a_sibling(once.condition)
    assert _GENCOMPACT.plan(once, source, model).cost <= cnf.cost + 1e-6


@given(
    st.integers(0, len(_WORLDS) - 1),
    st.integers(0, 10**6),
    st.integers(1, 4),
)
@settings(max_examples=15, deadline=None)
def test_pruning_never_changes_the_optimum(world_index, seed, n_atoms):
    __, source = _WORLDS[world_index]
    cost_model = _MODELS[world_index]
    query = _query_for(world_index, seed, n_atoms)
    baseline = _GENCOMPACT.plan(query, source, cost_model)
    unpruned = GenCompact(pr1=False, pr2=False, pr3=False).plan(
        query, source, cost_model
    )
    assert baseline.feasible == unpruned.feasible
    if baseline.feasible:
        assert unpruned.cost == pytest.approx(baseline.cost)


@given(
    st.integers(0, len(_WORLDS) - 1),
    st.integers(0, 10**6),
    st.integers(2, 4),
)
@settings(max_examples=10, deadline=None)
def test_genmodular_never_beats_gencompact_on_small_queries(
    world_index, seed, n_atoms
):
    """IPG on canonical trees subsumes the associativity/copy rewrites, so
    with the same (closed) description GenModular cannot find a cheaper
    plan than GenCompact on small queries."""
    __, source = _WORLDS[world_index]
    cost_model = _MODELS[world_index]
    query = _query_for(world_index, seed, n_atoms)
    gc = _GENCOMPACT.plan(query, source, cost_model)
    gm = GenModular(
        max_rewrites=150, max_rewrite_steps=20000, use_closed_description=True
    ).plan(query, source, cost_model)
    if gm.feasible:
        assert gc.feasible
        assert gc.cost <= gm.cost + 1e-6


@given(st.integers(0, len(_WORLDS) - 1), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_estimates_monotone_under_conjunct_removal(world_index, seed):
    """PR1's foundation: weakening a conjunction only grows the estimate."""
    config, source = _WORLDS[world_index]
    rng = random.Random(seed)
    condition = random_condition(config, 4, rng, or_prob=0.0)
    if not condition.is_and:
        return
    whole = source.stats.estimated_rows(condition)
    children = list(condition.children)
    for drop in range(len(children)):
        rest = children[:drop] + children[drop + 1:]
        weaker = rest[0] if len(rest) == 1 else type(condition)(rest)
        assert source.stats.estimated_rows(weaker) >= whole - 1e-9


@given(st.integers(0, 10**6), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_fixing_preserves_atoms_and_acceptance(seed, n_atoms):
    """Every source query of a GenCompact plan can be fixed for the
    native grammar without changing its atom multiset."""
    world_index = seed % len(_WORLDS)
    __, source = _WORLDS[world_index]
    cost_model = _MODELS[world_index]
    query = _query_for(world_index, seed, n_atoms)
    result = _GENCOMPACT.plan(query, source, cost_model)
    if not result.feasible:
        return
    for source_query in result.plan.source_queries():
        if source_query.condition.is_true:
            continue
        fixed = source.fix(source_query.condition, source_query.attrs)
        assert sorted(map(str, fixed.atoms())) == sorted(
            map(str, source_query.condition.atoms())
        )
        assert source.description.check(fixed).supports(source_query.attrs)
