"""Sync/async parity battery.

The AsyncExecutor's contract is the same *observational equivalence*
the parallel executor promises: on any concrete plan it returns
exactly the rows the serial Executor returns, and where the serial
executor raises, it raises the same error -- whatever the event loop
interleaved or coalesced along the way.  Three layers of
evidence, mirroring ``test_parallel_parity``:

1. the golden corpus from ``test_golden_battery`` -- every feasible
   (planner, query) plan executed serial, parallel and async; all
   three must equal the ground-truth reference answer;
2. hypothesis-generated plan trees (random Union/Intersect/Postprocess
   shapes over mirrored sources, with both supported and rejected leaf
   conditions), coalescing as the engine always does -- rows and error
   types must match serial;
3. the same generated trees under a seeded :class:`FaultInjector` with
   a recovering retry policy -- draw interleavings differ and
   coalescing even collapses draws entirely, but the *answer* may not
   change.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions.parser import parse_condition
from repro.errors import ReproError
from repro.plans.async_exec import AsyncExecutor
from repro.plans.cost import CostModel
from repro.plans.execute import Executor, reference_answer
from repro.plans.nodes import (
    IntersectPlan,
    Plan,
    Postprocess,
    SourceQuery,
    UnionPlan,
)
from repro.plans.parallel import ParallelExecutor
from repro.plans.retry import RetryPolicy
from repro.query import TargetQuery
from repro.source.faults import FaultInjector
from repro.source.library import standard_catalog, bookstore
from tests.test_golden_battery import CORPUS, PLANNERS

# ----------------------------------------------------------------------
# Layer 1: the golden corpus -- serial, parallel and async, all equal.


@pytest.fixture(scope="module")
def catalog():
    return standard_catalog(seed=1999)


@pytest.fixture(scope="module")
def async_executor(catalog):
    with AsyncExecutor(catalog) as executor:
        yield executor


@pytest.fixture(scope="module")
def parallel_executor(catalog):
    with ParallelExecutor(catalog, max_workers=6) as executor:
        yield executor


@pytest.mark.parametrize("source_name,attrs,text", CORPUS)
def test_golden_corpus_async_matches_serial_parallel_and_ground_truth(
    catalog, async_executor, parallel_executor, source_name, attrs, text
):
    cost_model = CostModel({name: s.stats for name, s in catalog.items()})
    source = catalog[source_name]
    query = TargetQuery(parse_condition(text), frozenset(attrs), source_name)
    expected = reference_answer(
        source, query.condition, query.attributes
    ).as_row_set()
    serial = Executor(catalog)
    for planner in PLANNERS:
        result = planner.plan(query, source, cost_model)
        if not result.feasible:
            continue
        serial_rows = serial.execute(result.plan).as_row_set()
        parallel_rows = parallel_executor.execute(result.plan).as_row_set()
        async_rows = async_executor.execute(result.plan).as_row_set()
        assert async_rows == parallel_rows == serial_rows == expected, (
            f"{planner.name} diverged on {text!r}"
        )


def test_golden_corpus_async_row_order_is_byte_identical(catalog):
    # Stronger than set equality: the streamed prefix-fold merge must
    # reproduce serial's fold order, so the row *lists* match too.
    cost_model = CostModel({name: s.stats for name, s in catalog.items()})
    serial = Executor(catalog)
    with AsyncExecutor(catalog) as executor:
        for source_name, attrs, text in CORPUS:
            source = catalog[source_name]
            query = TargetQuery(
                parse_condition(text), frozenset(attrs), source_name
            )
            for planner in PLANNERS:
                result = planner.plan(query, source, cost_model)
                if not result.feasible:
                    continue
                assert (
                    executor.execute(result.plan).rows
                    == serial.execute(result.plan).rows
                ), f"{planner.name} reordered rows on {text!r}"


# ----------------------------------------------------------------------
# Layer 2: property-generated plan trees, coalescing on and off.

_ATTRS = frozenset({"id", "title", "author", "price"})
_SOURCES = ("b0", "b1", "b2", "b3")

#: Leaf conditions: all native to the bookstore form except the last,
#: which no reordering makes acceptable -- a deterministic rejection.
_LEAF_CONDITIONS = [
    parse_condition("author = 'Carl Jung'"),
    parse_condition("author = 'Sigmund Freud'"),
    parse_condition("title contains 'dream'"),
    parse_condition("subject = 'philosophy'"),
    parse_condition(
        "subject = 'psychology' and title contains 'memory'"
    ),
    parse_condition("price <= 40"),  # unsupported: rejected leaf
]

#: Mediator-side selections over the exported attributes.
_POST_CONDITIONS = [
    parse_condition("price <= 35"),
    parse_condition("author = 'Carl Jung'"),
    parse_condition("title contains 'the'"),
]


def _make_catalog() -> dict:
    catalog = {}
    for name in _SOURCES:
        source = bookstore(n=150, seed=1999)
        source.name = name
        catalog[name] = source
    return catalog


def _leaf(source: str, condition_index: int) -> Plan:
    return SourceQuery(
        _LEAF_CONDITIONS[condition_index], _ATTRS, source
    )


_leaves = st.builds(
    _leaf,
    st.sampled_from(_SOURCES),
    st.integers(0, len(_LEAF_CONDITIONS) - 1),
)


def _combine(children: list[Plan], kind: int, post_index: int) -> Plan:
    if kind == 0:
        return UnionPlan(children)
    if kind == 1:
        return IntersectPlan(children)
    return Postprocess(
        _POST_CONDITIONS[post_index], _ATTRS, UnionPlan(children)
    )


_plans = st.recursive(
    _leaves,
    lambda inner: st.builds(
        _combine,
        st.lists(inner, min_size=2, max_size=3),
        st.integers(0, 2),
        st.integers(0, len(_POST_CONDITIONS) - 1),
    ),
    max_leaves=10,
)


def _outcome(executor, plan: Plan):
    """Rows on success, the exception type on failure."""
    try:
        return executor.execute(plan).as_row_set()
    except ReproError as exc:
        return type(exc)


@given(_plans)
@settings(max_examples=40, deadline=None)
def test_generated_plans_rows_and_errors_match_serial(plan):
    catalog = _make_catalog()
    serial_outcome = _outcome(Executor(catalog), plan)
    with AsyncExecutor(catalog) as executor:
        async_outcome = _outcome(executor, plan)
    assert async_outcome == serial_outcome


# ----------------------------------------------------------------------
# Layer 3: same trees under seeded faults with a recovering policy.

_RECOVERING = RetryPolicy(max_attempts=40, base_backoff=0.01)


def _faulted_catalog(fault_seed: int) -> dict:
    catalog = _make_catalog()
    for index, source in enumerate(catalog.values()):
        source.fault_injector = FaultInjector(
            seed=fault_seed + index, transient_rate=0.15, timeout_rate=0.05,
        )
    return catalog


@given(_plans, st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_generated_plans_agree_under_same_fault_seed(plan, fault_seed):
    # Both executors see catalogs with *identical* injector seeds.  The
    # retry policy always recovers (p^40 ~ 0), so both must produce the
    # answer -- and the identical answer -- whatever the interleaving,
    # and even though coalescing collapses some draws entirely.
    serial_outcome = _outcome(
        Executor(_faulted_catalog(fault_seed), retry_policy=_RECOVERING),
        plan,
    )
    with AsyncExecutor(
        _faulted_catalog(fault_seed), retry_policy=_RECOVERING,
    ) as executor:
        async_outcome = _outcome(executor, plan)
    assert async_outcome == serial_outcome
