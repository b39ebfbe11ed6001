"""The canonical plan cache: key correctness, LRU/versioning, warm==cold.

The serving layer's contract has two halves:

* **canonical keys** -- any two *equivalent* condition trees (anything
  the commutative/associative rewrite rules can produce from one
  another) map to the same cache key, while source / projection /
  planner differences keep entries apart (the hypothesis battery);
* **warm answers are cold answers** -- over the golden corpus, asking
  through a plan-cache-enabled mediator twice returns row-identical
  results, and commuted spellings of a corpus query are answered from
  the same entry.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.conditions.atoms import Atom, Op
from repro.conditions.parser import parse_condition
from repro.conditions.rewrite import associative_rule, commutative_rule
from repro.conditions.tree import TRUE, And, Leaf, Or
from repro.mediator import Mediator
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.planners.baselines import DNFPlanner
from repro.query import TargetQuery
from repro.serving import PlanCache, canonical_key, plan_cache_key
from repro.source.library import standard_catalog
from repro.wrapper import Wrapper
from tests.conftest import make_example41_source
from tests.test_golden_battery import CORPUS

# ----------------------------------------------------------------------
# Strategies (mirrors tests/test_properties_conditions.py)
# ----------------------------------------------------------------------

_ATTRS = ["a", "b", "c", "d"]
_OPS = [Op.EQ, Op.NE, Op.LE, Op.GE]

atoms = st.builds(
    Atom,
    st.sampled_from(_ATTRS),
    st.sampled_from(_OPS),
    st.one_of(st.integers(0, 9), st.sampled_from(["x", "y", "z"])),
)

leaves = st.builds(Leaf, atoms)


def _connector(children):
    return st.one_of(
        st.builds(And, st.lists(children, min_size=2, max_size=3)),
        st.builds(Or, st.lists(children, min_size=2, max_size=3)),
    )


conditions = st.recursive(leaves, _connector, max_leaves=8)


# ----------------------------------------------------------------------
# Canonical-key battery
# ----------------------------------------------------------------------

class TestCanonicalKey:
    @settings(max_examples=120, deadline=None)
    @given(conditions, st.data())
    def test_rewrite_chains_preserve_the_key(self, tree, data):
        """Walk up to four random commutative/associative rewrite steps
        from ``tree``; the cache key never changes along the chain."""
        reference = canonical_key(tree)
        current = tree
        for _ in range(data.draw(st.integers(0, 4))):
            rule = data.draw(st.sampled_from([commutative_rule,
                                              associative_rule]))
            neighbours = list(rule(current))
            if not neighbours:
                break
            current = data.draw(st.sampled_from(neighbours))
            assert canonical_key(current) == reference

    @settings(max_examples=80, deadline=None)
    @given(conditions)
    def test_key_is_deterministic_and_hashable(self, tree):
        key = canonical_key(tree)
        assert key == canonical_key(tree)
        hash(key)  # usable as a dict key

    def test_commuted_and_reassociated_spellings_collide(self):
        variants = [
            "a = 1 and b = 2 and c = 3",
            "c = 3 and a = 1 and b = 2",
            "(a = 1 and b = 2) and c = 3",
            "a = 1 and (c = 3 and b = 2)",
        ]
        keys = {canonical_key(parse_condition(text)) for text in variants}
        assert len(keys) == 1

    def test_duplicate_siblings_collapse(self):
        once = parse_condition("a = 1 or b = 2")
        twice = parse_condition("(a = 1 or b = 2) or a = 1")
        assert canonical_key(once) == canonical_key(twice)

    def test_different_connectives_do_not_collide(self):
        assert canonical_key(parse_condition("a = 1 and b = 2")) != \
            canonical_key(parse_condition("a = 1 or b = 2"))

    def test_different_constants_do_not_collide(self):
        assert canonical_key(parse_condition("a = 1")) != \
            canonical_key(parse_condition("a = 2"))

    def test_true_condition_has_a_key(self):
        assert canonical_key(TRUE) == canonical_key(TRUE)

    def test_plan_cache_key_separates_source_and_projection(self):
        condition = parse_condition("a = 1")
        base = TargetQuery(condition, frozenset(["a"]), "s1")
        assert plan_cache_key(base) == plan_cache_key(
            TargetQuery(condition, frozenset(["a"]), "s1")
        )
        assert plan_cache_key(base) != plan_cache_key(
            TargetQuery(condition, frozenset(["a", "b"]), "s1")
        )
        assert plan_cache_key(base) != plan_cache_key(
            TargetQuery(condition, frozenset(["a"]), "s2")
        )


# ----------------------------------------------------------------------
# The PlanCache container itself
# ----------------------------------------------------------------------

class TestPlanCache:
    def test_put_get_and_stats(self):
        with use_metrics(MetricsRegistry()) as registry:
            cache = PlanCache(4)
            assert cache.get("k") is None
            cache.put("k", "plan")
            assert cache.get("k") == "plan"
            assert cache.stats.hits == 1 and cache.stats.misses == 1
            snapshot = registry.snapshot()
            assert snapshot["serving.plan_cache.hits"]["value"] == 1
            assert snapshot["serving.plan_cache.misses"]["value"] == 1

    def test_lru_eviction_bounds_entries(self):
        with use_metrics(MetricsRegistry()):
            cache = PlanCache(2)
            cache.put("a", 1)
            cache.put("b", 2)
            cache.get("a")          # refresh a; b is now the LRU entry
            cache.put("c", 3)
            assert len(cache) == 2
            assert cache.stats.evictions == 1
            assert cache.get("b") is None
            assert cache.get("a") == 1 and cache.get("c") == 3

    def test_version_mismatch_invalidates_lazily(self):
        with use_metrics(MetricsRegistry()):
            cache = PlanCache(4)
            cache.put("k", "old", version=1)
            assert cache.get("k", version=2) is None
            assert cache.stats.invalidations == 1
            assert len(cache) == 0

    def test_bulk_invalidate(self):
        with use_metrics(MetricsRegistry()):
            cache = PlanCache(8)
            for index in range(3):
                cache.put(index, index)
            assert cache.invalidate() == 3
            assert len(cache) == 0 and cache.stats.invalidations == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(0)


# ----------------------------------------------------------------------
# Mediator integration: warm answers == cold answers
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def served_mediator():
    mediator = Mediator(plan_cache_entries=128)
    for source in standard_catalog(seed=1999).values():
        mediator.add_source(source)
    return mediator


class TestWarmVersusCold:
    @pytest.mark.parametrize("source_name,attrs,text", CORPUS)
    def test_golden_corpus_rows_identical(self, served_mediator,
                                          source_name, attrs, text):
        query = TargetQuery(
            parse_condition(text), frozenset(attrs), source_name
        )
        hits_before = served_mediator.plan_cache.stats.hits
        cold = served_mediator.ask(query)
        warm = served_mediator.ask(query)
        assert warm.result.as_row_set() == cold.result.as_row_set()
        assert served_mediator.plan_cache.stats.hits >= hits_before + 1
        # Stats reuse on hit: the warm answer carries the original
        # planning result, original planner stats included.
        assert warm.planning is cold.planning

    def test_commuted_spelling_hits_the_same_entry(self, served_mediator):
        entries_before = len(served_mediator.plan_cache)
        cold = served_mediator.ask(
            "SELECT id, model FROM car_guide "
            "WHERE make = 'BMW' and style = 'sedan'"
        )
        hits_before = served_mediator.plan_cache.stats.hits
        warm = served_mediator.ask(
            "SELECT id, model FROM car_guide "
            "WHERE style = 'sedan' and make = 'BMW'"
        )
        assert warm.result.as_row_set() == cold.result.as_row_set()
        assert served_mediator.plan_cache.stats.hits == hits_before + 1
        assert len(served_mediator.plan_cache) == entries_before + 1

    def test_per_query_planner_override_gets_its_own_entry(
        self, served_mediator
    ):
        query = "SELECT id, title FROM bookstore WHERE author = 'Carl Jung'"
        default = served_mediator.ask(query)
        dnf = served_mediator.ask(query, planner=DNFPlanner())
        assert default.planning.planner != dnf.planning.planner
        assert default.result.as_row_set() == dnf.result.as_row_set()

    def test_add_source_invalidates_cached_plans(self):
        mediator = Mediator(plan_cache_entries=16)
        for source in standard_catalog(seed=1999).values():
            mediator.add_source(source)
        query = "SELECT id, title FROM bookstore WHERE author = 'Carl Jung'"
        cold = mediator.ask(query)
        version = mediator.catalog_version
        mediator.add_source(make_example41_source("more_cars"))
        assert mediator.catalog_version == version + 1
        replanned = mediator.ask(query)
        assert mediator.plan_cache.stats.invalidations >= 1
        assert replanned.planning is not cold.planning
        assert replanned.result.as_row_set() == cold.result.as_row_set()


# ----------------------------------------------------------------------
# Wrapper delegation (the unbounded-dict bugfix)
# ----------------------------------------------------------------------

class TestWrapperDelegation:
    def test_plan_cache_is_bounded(self):
        wrapper = Wrapper(make_example41_source(), plan_cache_entries=4)
        for price in range(10):
            wrapper.plan(f"make = 'BMW' and price < {30000 + price}",
                         ["model"])
        assert wrapper.cache_size() <= 4
        assert wrapper.mediator.plan_cache.stats.evictions >= 6

    def test_commuted_condition_reuses_the_cached_plan(self):
        wrapper = Wrapper(make_example41_source())
        first = wrapper.plan("make = 'BMW' and price < 40000", ["model"])
        second = wrapper.plan("price < 40000 and make = 'BMW'", ["model"])
        assert second is first
        assert wrapper.cache_size() == 1

    def test_template_store_is_bounded_too(self):
        wrapper = Wrapper(make_example41_source(), plan_cache_entries=2)
        for price in (1, 2, 3):
            wrapper.plan(f"make = 'BMW' and price < {price}", ["model"])
            wrapper.plan(f"make = 'BMW' and color = 'c{price}'", ["model"])
        assert len(wrapper.mediator.plan_templates) <= 2
