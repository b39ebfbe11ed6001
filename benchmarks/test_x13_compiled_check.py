"""X13 (extension): compiled capabilities + parameterized plan templates.

Two halves, one results table (plus ``BENCH_x13.json`` for CI):

* **compiled vs Earley Check** -- over the E3-style synthetic query mix
  (random condition trees of 6..8 atoms), ``Check(C, R)`` answered by
  the compiled token-trie recognizer vs. the Earley chart parse, both
  with result caching off so the parse itself is what's measured.
  Conditions holding an atom no template of the grammar matches are
  answered before *either* recognizer (``check_prefiltered``), so the
  sweep times only the recognizer-reaching ones and records the
  prefiltered share beside the ratio.  The acceptance bar: compiled
  Check >= 10x faster on the aggregate (recognizer-reaching) mix.
* **plan templates under Zipf traffic** -- one mediator serving
  constant-varying respellings of a fixed set of query shapes, bindings
  drawn from a Zipf distribution (a few hot bindings, a long cold
  tail).  Exact canonical hits serve the hot bindings, template hits
  serve first-seen bindings of a known shape; only the first query of
  each *shape* pays a planning run.  Bars: >= 80% combined hit rate,
  template hits within 2x of exact hits (neither path degenerate), and
  the per-category latencies on record.
"""

from __future__ import annotations

import random
import statistics
import time

from benchmarks.conftest import QUICK, uncached_copy
from repro.conditions.skeleton import Skeleton
from repro.experiments.report import Table
from repro.mediator import Mediator
from repro.perf.schema import Bar, Tolerance
from repro.query import TargetQuery
from repro.ssdl.description import SourceDescription
from repro.workloads.synthetic import WorldConfig, make_queries, make_source

_SIZES = (6, 7, 8)
_PER_SIZE = 8 if QUICK else 20
_CHECK_REPEATS = 10 if QUICK else 40
#: The mix is drawn this many times over: most of its trees hold an atom
#: the grammar has no template for and never reach a recognizer.
_DRAW_FACTOR = 16

_CONFIG = WorldConfig(n_attributes=8, n_rows=200 if QUICK else 1000,
                      richness=0.8, download_prob=1.0, seed=1301)

#: Zipf traffic shape: distinct query skeletons x constant bindings.
_N_SHAPES = 8
_N_BINDINGS = 60
_N_REQUESTS = 480 if QUICK else 2000
_ZIPF_S = 1.1


# ----------------------------------------------------------------------
# Part 1: compiled vs Earley Check on the E3 mix
# ----------------------------------------------------------------------

def _check_table() -> tuple[Table, dict]:
    source = make_source(_CONFIG)
    base = source.closed_description
    # Caching off on both sides: X13a measures the recognizer, not the
    # Check cache (X4 measures the cache).
    compiled = uncached_copy(base)
    report = compiled.compile()
    assert report.compiled, report.reason
    earley = uncached_copy(base)

    table = Table(
        "X13a: Check(C,R) -- compiled token trie vs Earley parse (E3 mix)",
        ["atoms", "drawn", "prefiltered", "conditions", "earley_us",
         "compiled_us", "speedup", "fallbacks"],
        notes=(
            "Random alternating condition trees over the synthetic world "
            f"(8 attributes, richness 0.8, download rule); best of "
            f"{_CHECK_REPEATS} sweeps per size, result caching off. The "
            f"compiled form: {report.sequences} sequences, {report.states} "
            f"states, horizon {report.horizon}. prefiltered counts the "
            "drawn trees with an atom no template matches: Check answers "
            "them before either recognizer, so both timings run over the "
            "first recognizer-reaching ones (conditions). fallbacks "
            "counts conditions beyond the horizon "
            "(answered by Earley). The bar is >= 10x on the aggregate "
            "recognizer-reaching mix."
        ),
    )

    def sweep(description: SourceDescription, conditions) -> float:
        best = float("inf")
        for _ in range(_CHECK_REPEATS):
            start = time.perf_counter()
            for condition in conditions:
                description.check(condition)
            best = min(best, time.perf_counter() - start)
        return best / len(conditions)

    total_earley = total_compiled = total_conditions = 0.0
    total_prefiltered = total_generated = 0
    for n_atoms in _SIZES:
        queries = make_queries(_CONFIG, source, _PER_SIZE * _DRAW_FACTOR,
                               n_atoms, seed=1301_000 + n_atoms)
        generated = [query.condition for query in queries]
        reaching = [
            condition for condition in generated
            if all(map(base.atom_matchable, condition.atoms()))
        ]
        prefiltered = len(generated) - len(reaching)
        total_prefiltered += prefiltered
        total_generated += len(generated)
        conditions = reaching[:_PER_SIZE]
        assert len(conditions) == _PER_SIZE, (n_atoms, len(reaching))
        fallbacks_before = compiled.check_fallbacks
        compiled_sec = sweep(compiled, conditions)
        fallbacks = (compiled.check_fallbacks - fallbacks_before) \
            // _CHECK_REPEATS
        earley_sec = sweep(earley, conditions)
        total_earley += earley_sec * len(conditions)
        total_compiled += compiled_sec * len(conditions)
        total_conditions += len(conditions)
        table.add(n_atoms, len(generated), prefiltered, len(conditions),
                  round(earley_sec * 1e6, 1),
                  round(compiled_sec * 1e6, 2),
                  round(earley_sec / compiled_sec, 1), fallbacks)

    aggregate = {
        "earley_us": total_earley / total_conditions * 1e6,
        "compiled_us": total_compiled / total_conditions * 1e6,
        "speedup": total_earley / total_compiled,
        "prefiltered_share": total_prefiltered / total_generated,
        "report": {"sequences": report.sequences, "states": report.states,
                   "horizon": report.horizon},
    }
    return table, aggregate


# ----------------------------------------------------------------------
# Part 2: plan templates under Zipf constant-varying traffic
# ----------------------------------------------------------------------

def _rebind(value, binding: int):
    """A same-class constant for binding ``binding`` (class-preserving,
    so the skeleton -- and hence the template entry -- is unchanged)."""
    if isinstance(value, str):
        return f"{value}_{binding}"
    return value + binding


def _zipf_traffic(rng: random.Random, shapes) -> list[TargetQuery]:
    """Requests: uniform over shapes, Zipf over constant bindings."""
    weights = [1.0 / (rank ** _ZIPF_S) for rank in range(1, _N_BINDINGS + 1)]
    requests = []
    for _ in range(_N_REQUESTS):
        query = rng.choice(shapes)
        binding = rng.choices(range(_N_BINDINGS), weights=weights)[0]
        skeleton = Skeleton.of(query.condition)
        values = tuple(_rebind(v, binding) for v in skeleton.values)
        requests.append(TargetQuery(
            skeleton.bind(values), query.attributes, query.source
        ))
    return requests


def _template_table() -> tuple[Table, dict]:
    source = make_source(_CONFIG)
    mediator = Mediator(plan_cache_entries=4096)
    mediator.add_source(source)
    shapes = make_queries(_CONFIG, source, _N_SHAPES, 3, seed=1302_000)
    rng = random.Random(1302)
    requests = _zipf_traffic(rng, shapes)

    latencies: dict[str, list[float]] = {
        "exact_hit": [], "template_hit": [], "planned": [],
    }
    exact_hits = 0
    for query in requests:
        hits_before = mediator.plan_cache.stats.hits
        template_before = mediator.plan_templates.hits
        start = time.perf_counter()
        result = mediator.plan(query)
        elapsed = time.perf_counter() - start
        assert result.feasible
        if mediator.plan_cache.stats.hits > hits_before:
            category = "exact_hit"
            exact_hits += 1
        elif mediator.plan_templates.hits > template_before:
            category = "template_hit"
        else:
            category = "planned"
        latencies[category].append(elapsed)

    template_hits = mediator.plan_templates.hits
    planned = len(latencies["planned"])
    combined_rate = (exact_hits + template_hits) / _N_REQUESTS

    table = Table(
        "X13b: plan templates under Zipf constant-varying traffic",
        ["category", "requests", "share", "mean_us", "p95_us"],
        notes=(
            f"{_N_REQUESTS} requests over {_N_SHAPES} query shapes x "
            f"{_N_BINDINGS} constant bindings (Zipf s={_ZIPF_S}).  "
            "exact_hit = canonical plan-cache hit (binding seen before); "
            "template_hit = new binding rebound from the shape's template "
            "(validated substitution); planned = full planning run (first "
            "query of a shape). Bars: combined hit rate >= 80%, template "
            "hits within 2x of exact hits; here combined = "
            f"{combined_rate:.1%}."
        ),
    )
    for category in ("exact_hit", "template_hit", "planned"):
        samples = latencies[category]
        if not samples:  # pragma: no cover - all categories occur
            table.add(category, 0, "0%", "-", "-")
            continue
        samples_sorted = sorted(samples)
        p95 = samples_sorted[min(len(samples) - 1,
                                 int(0.95 * len(samples)))]
        table.add(category, len(samples),
                  f"{len(samples) / _N_REQUESTS:.1%}",
                  round(statistics.mean(samples) * 1e6, 1),
                  round(p95 * 1e6, 1))

    payload = {
        "requests": _N_REQUESTS,
        "shapes": _N_SHAPES,
        "bindings": _N_BINDINGS,
        "zipf_s": _ZIPF_S,
        "exact_hits": exact_hits,
        "template_hits": template_hits,
        "planned": planned,
        "template_rejected": mediator.plan_templates.rejected,
        "combined_hit_rate": combined_rate,
        "exact_hit_mean_us":
            statistics.mean(latencies["exact_hit"]) * 1e6,
        "template_hit_mean_us":
            statistics.mean(latencies["template_hit"]) * 1e6,
        "planned_mean_us": statistics.mean(latencies["planned"]) * 1e6,
    }
    return table, payload


class _Combined:
    """Two tables, one ``benchmarks/results/x13.txt``."""

    def __init__(self, *tables):
        self.tables = tables

    def format(self) -> str:
        return "\n\n".join(table.format() for table in self.tables)


# ----------------------------------------------------------------------


def test_x13_compiled_check(record_table, record_bench):
    check_table, check_aggregate = _check_table()
    template_table, template_payload = _template_table()
    record_table("x13", _Combined(check_table, template_table))
    record_bench(
        "x13",
        metrics={
            "check.speedup": check_aggregate["speedup"],
            "check.earley_us": check_aggregate["earley_us"],
            "check.compiled_us": check_aggregate["compiled_us"],
            "check.prefiltered_share": check_aggregate["prefiltered_share"],
            "templates.combined_hit_rate":
                template_payload["combined_hit_rate"],
            "templates.exact_hits": template_payload["exact_hits"],
            "templates.template_hits": template_payload["template_hits"],
            "templates.planned": template_payload["planned"],
            "templates.rejected": template_payload["template_rejected"],
            "templates.exact_hit_mean_us":
                template_payload["exact_hit_mean_us"],
            "templates.template_hit_mean_us":
                template_payload["template_hit_mean_us"],
            "templates.planned_mean_us":
                template_payload["planned_mean_us"],
            "templates.vs_exact_ratio": (
                template_payload["exact_hits"]
                / max(1, template_payload["template_hits"])
            ),
        },
        bars={
            "check.speedup": Bar(">=", 10.0),
            "templates.combined_hit_rate": Bar(">=", 0.8),
            "templates.vs_exact_ratio": Bar("<=", 2.0),
            "templates.planned": Bar("==", float(_N_SHAPES)),
        },
        tolerances={
            # The speedup ratio is machine-dependent but both sides run
            # on the same box; the Zipf hit counts are pure functions of
            # the traffic seed and barely drift.
            "check.speedup": Tolerance("higher", rel=0.5),
            "templates.combined_hit_rate": Tolerance("higher", rel=0.05),
        },
        seed=1301,
    )

    # Bar 1: compiled Check >= 10x faster than Earley on the E3 mix.
    assert check_aggregate["speedup"] >= 10.0, check_aggregate

    # Bar 2: >= 80% of Zipf traffic avoids a planning run entirely.
    assert template_payload["combined_hit_rate"] >= 0.8, template_payload

    # Bar 3: template hits within 2x of exact hits -- the template path
    # carries real traffic rather than degenerating into one-off hits.
    assert (template_payload["template_hits"] * 2.0
            >= template_payload["exact_hits"]), template_payload
    # Only the first query of each shape pays a planning run.
    assert template_payload["planned"] == _N_SHAPES


def test_x13_bench_compiled_check(benchmark):
    source = make_source(_CONFIG)
    description = uncached_copy(source.closed_description)
    assert description.compile().compiled
    conditions = [
        query.condition
        for query in make_queries(_CONFIG, source, _PER_SIZE, 6,
                                  seed=1301_006)
    ]

    def run():
        for condition in conditions:
            description.check(condition)

    benchmark(run)
