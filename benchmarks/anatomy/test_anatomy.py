"""Self-test of the ask-anatomy benchmark (not part of tier 1).

Run from the repository root::

    PYTHONPATH=src:. python -m pytest benchmarks/anatomy/test_anatomy.py -q

A ``--asks 20`` smoke of all five workloads (about two minutes: every
repetition is a fresh interpreter).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.anatomy import cli
from benchmarks.anatomy.workloads import DEFAULT_SEEDS, WORKLOADS

ASKS = 20
NAMES = list(WORKLOADS)


@pytest.fixture(scope="module")
def spec() -> dict:
    return cli.load_spec()


def harness(spec, out, seed: int) -> cli.Harness:
    return cli.Harness(spec=spec, golden=cli.load_golden(), out=out,
                       seed=seed, seconds=1.0, asks=ASKS)


@pytest.fixture(scope="module")
def smoke(spec, tmp_path_factory):
    """The whole set once, on the first default seed."""
    out = tmp_path_factory.mktemp("anatomy")
    document, clean = harness(spec, out, DEFAULT_SEEDS[0]).run_set()
    return document, clean, out


def test_benchmark_json_names_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"])
    assert spec["paths"] == ["benchmarks/anatomy"]


def test_the_smoke_is_clean(smoke):
    document, clean, _ = smoke
    assert clean
    for runs in document["workloads"].values():
        assert runs["end_to_end"]["failed"] == 0
        assert runs["per_layer"]["failed"] == 0
        assert runs["end_to_end"]["attempted"] == 3 * ASKS


def test_declared_and_emitted_metrics_are_the_same(spec, smoke):
    document, _, _ = smoke
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for runs in document["workloads"].values():
        for key in ("end_to_end", "per_layer"):
            emitted = set(runs[key]["metrics"])
            assert emitted == {m["name"] for m in spec[key]}
            assert all(pattern.fullmatch(name) for name in emitted)
            line = json.loads(cli.contract_line(runs[key], spec[key]))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] >= 1
            for value in line["metrics"].values():
                assert isinstance(value["value"], float) and value["unit"]


def test_counts_repeat_for_a_seed_and_differ_between_seeds(spec, smoke):
    document, _, out = smoke
    for name in NAMES:
        first = document["workloads"][name]["end_to_end"]
        again = harness(spec, out, DEFAULT_SEEDS[0]).measure(name)
        other = harness(spec, out, DEFAULT_SEEDS[1]).measure(name)
        assert first["repeatable"] and again["repeatable"]
        assert again["info"]["block"] == first["info"]["block"]
        for metric in ("eq1_cost_per_ask", "feasible_share"):
            assert again["metrics"][metric] == first["metrics"][metric]
        assert other["info"]["block"] != first["info"]["block"]
        assert (other["metrics"]["eq1_cost_per_ask"]
                != first["metrics"]["eq1_cost_per_ask"])


@pytest.mark.parametrize("name", NAMES)
def test_the_oracle_bites(name):
    rep = cli.spawn(name, DEFAULT_SEEDS[0], budget=0.0, asks=ASKS,
                    corrupt=True)
    assert rep["wrong"] > 0 and rep["failed"] > 0


def test_span_files_parse_and_every_parent_exists(smoke):
    _, _, out = smoke
    for name in NAMES:
        with open(out / f"trace-{name}.jsonl") as handle:
            spans = [json.loads(line) for line in handle]
        ids = {span["id"] for span in spans}
        assert len(ids) == len(spans) > 0
        roots = {span["name"] for span in spans if span["parent"] is None}
        assert {"mediator.ask", "replay.ask"} <= roots
        for span in spans:
            assert span["parent"] is None or span["parent"] in ids
            assert span["end_ns"] >= span["start_ns"]


def test_a_repetition_refuses_an_unpinned_hash_seed():
    env = dict(os.environ, PYTHONPATH=f"{cli.ROOT / 'src'}:{cli.ROOT}")
    env.pop("PYTHONHASHSEED", None)
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.anatomy.rep", "--workload",
         NAMES[0], "--seed", "1", "--budget", "0", "--asks", "1"],
        cwd=cli.ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and not done.stdout
