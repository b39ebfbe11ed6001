"""Shared benchmark plumbing.

Each ``test_eN_*.py`` regenerates one table/figure of the reconstructed
evaluation (see DESIGN.md).  The table is written to
``benchmarks/results/eN.txt`` (and echoed to stdout) so a benchmark run
leaves the full set of result tables behind; the pytest-benchmark
fixture then times the experiment's hot path.

X-benchmarks additionally emit a machine-readable
``BENCH_<name>.json`` through :func:`record_bench` in the shared
:mod:`repro.perf.schema` format (metrics + bars + tolerances + seed +
env fingerprint).  The committed set of those files is the perf
trajectory that ``python -m repro.perf compare`` gates CI on.

Set ``REPRO_BENCH_FULL=1`` for full-size instances (several minutes);
the default is the quick configuration.  ``REPRO_BENCH_RESULTS``
redirects every artifact into another directory (how ``repro.perf
compare --run`` measures without clobbering the committed trajectory).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.cache import BoundedCache
from repro.perf.schema import BenchResult, env_fingerprint
from repro.ssdl.description import SourceDescription

#: Full-size instances when REPRO_BENCH_FULL=1, quick otherwise.
QUICK = os.environ.get("REPRO_BENCH_FULL", "") != "1"


class _NoStore(BoundedCache):
    """A cache that never holds anything: every lookup misses."""

    def get(self, key, version=0):
        return None

    def put(self, key, value, version=0):
        pass


def uncached_copy(description: SourceDescription,
                  name: str | None = None) -> SourceDescription:
    """A fresh copy of ``description`` whose Check cache never stores,
    so every Check reaches a recognizer (the cache ablation)."""
    twin = SourceDescription(
        description.condition_nonterminals,
        description.productions,
        description.attributes,
        name=description.name if name is None else name,
    )
    twin._cache = _NoStore(1)
    return twin


def results_dir() -> pathlib.Path:
    """Where artifacts land (honours ``REPRO_BENCH_RESULTS``)."""
    override = os.environ.get("REPRO_BENCH_RESULTS", "")
    if override:
        return pathlib.Path(override)
    return pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Write an experiment table to the results directory and echo it."""

    def _record(name: str, table) -> None:
        directory = results_dir()
        directory.mkdir(parents=True, exist_ok=True)
        text = table.format()
        (directory / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record


@pytest.fixture
def record_bench():
    """Write a schema-validated ``BENCH_<name>.json``.

    Accepts the flat pieces of a :class:`~repro.perf.schema.BenchResult`
    and refuses to record anything malformed -- a benchmark cannot
    commit a result the perf gate would be unable to parse.  Bars are
    *recorded*, not enforced here: the benchmark's own asserts carry
    the readable failure, ``repro.perf compare`` carries the gate.
    """

    def _record(name: str, metrics: dict, bars: dict | None = None,
                tolerances: dict | None = None,
                seed: int | None = None) -> pathlib.Path:
        result = BenchResult(
            benchmark=name,
            metrics=dict(metrics),
            bars=dict(bars or {}),
            tolerances=dict(tolerances or {}),
            seed=seed,
            env=env_fingerprint(quick=QUICK),
        )
        problems = result.validate()
        assert not problems, f"BENCH_{name}.json would be invalid: {problems}"
        directory = results_dir()
        directory.mkdir(parents=True, exist_ok=True)
        return result.save(directory / f"BENCH_{name}.json")

    return _record
