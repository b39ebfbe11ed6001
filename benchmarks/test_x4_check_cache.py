"""X4 (ablation): the Check cache.

IPG issues Check for every child subset of every node of every CT; the
same (sub)conditions recur constantly across subsets and CTs.  DESIGN.md
relies on the description-level parse cache to keep that affordable.
This ablation plans the same query against cached and cache-disabled
descriptions and compares Earley parse counts and time.
"""

import copy
import time

from benchmarks.conftest import QUICK, uncached_copy
from repro.experiments.common import cost_model_for
from repro.experiments.report import Table
from repro.planners.gencompact import GenCompact
from repro.ssdl.description import SourceDescription
from repro.workloads.synthetic import WorldConfig, make_queries, make_source

_CONFIG = WorldConfig(n_attributes=6, n_rows=1500, richness=0.7, seed=1301)
_SOURCE = make_source(_CONFIG)
_MODEL = cost_model_for(_SOURCE)
_QUERIES = make_queries(_CONFIG, _SOURCE, 3 if QUICK else 8, 6, seed=77)


def _run(cache: bool) -> tuple[float, int]:
    """(total ms, actual Earley parses) planning the query batch."""
    source = copy.copy(_SOURCE)
    closed = _SOURCE.closed_description
    if cache:
        # A fresh cached clone so prior runs don't pre-warm it.
        description = SourceDescription(
            closed.condition_nonterminals,
            closed.productions,
            closed.attributes,
            name=closed.name + "-fresh",
        )
    else:
        description = uncached_copy(closed, closed.name + "-nocache")
    source._closed = description
    planner = GenCompact()
    started = time.perf_counter()
    for query in _QUERIES:
        planner.plan(query, source, _MODEL)
    elapsed = (time.perf_counter() - started) * 1000
    # Cache-missing Checks that reached the recognizer (a condition with
    # an atom no template matches is answered without a parse).
    return elapsed, description.check_calls - description.check_prefiltered


def test_x4_cache_ablation(benchmark, record_table):
    def sweep() -> Table:
        table = Table(
            "X4 (ablation): description-level Check cache",
            ["configuration", "batch ms", "Earley parses"],
            notes=f"{len(_QUERIES)} six-atom queries planned with GenCompact.",
        )
        cached_ms, cached_parses = _run(cache=True)
        uncached_ms, uncached_parses = _run(cache=False)
        table.add("cache on", round(cached_ms, 1), cached_parses)
        table.add("cache off", round(uncached_ms, 1), uncached_parses)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_table("x4_check_cache", table)
    (on_ms, on_parses), (off_ms, off_parses) = (
        (table.rows[0][1], table.rows[0][2]),
        (table.rows[1][1], table.rows[1][2]),
    )
    assert on_parses < off_parses
    del on_ms, off_ms  # timing shape is environment-dependent; not asserted
