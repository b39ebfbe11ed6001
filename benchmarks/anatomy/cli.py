"""The harness: spawns the repetitions, aggregates, prints, checks.

One process, one fresh interpreter per (workload, repetition), every
child with ``PYTHONHASHSEED=0``.  See ``README.md`` for the modes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
REPETITIONS = 3
#: ``mediator.unattributed_share`` above this fails the full set
#: (``fanout_rtt`` is sleep-bound and only reported).
UNATTRIBUTED_GATE = 0.10
#: Per-layer metrics that are counts of the program's own work: two
#: runs of one seed must agree on them exactly.
EXACT_SUFFIXES = ("_per_ask", "_per_kask", "_ratio", "_share")
NOT_EXACT = {
    "source.rtt_ms_per_ask",  # a float sum taken in completion order
    "plans.overlap_ratio", "plans.rtt_to_cpu_ratio",
    "plans.mediator_self_share", "plans.execute_share",
    "planners.plan_share", "mediator.unattributed_share",
    "observability.armed_ask_ratio", "harness.trace_overhead_ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and found failures)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, *, budget: float, asks: int = 0,
          trace: int = 0, spans: str = "", corrupt: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    command = [sys.executable, "-m", "benchmarks.anatomy.rep",
               "--workload", workload, "--seed", str(seed),
               "--budget", str(budget), "--asks", str(asks),
               "--trace", str(trace), "--spans", spans]
    if corrupt:
        command.append("--corrupt")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
    done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=170)
    if done.returncode != 0:
        raise BenchmarkError(
            f"repetition of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def against_golden(golden: dict, workload: str, seed: int, block: dict
                   ) -> dict:
    """How a repetition's fixed block compares with the committed one
    (empty when nothing is committed for this seed and block size)."""
    want = golden.get(workload, {}).get(str(seed))
    if want is None or want["asks"] != block["asks"]:
        return {}
    return {
        "workload_changed": want["pool_digest"] != block["pool_digest"],
        "plan_digest_match": want["plan_digest"] == block["plan_digest"],
        "feasibility_flips": abs(want["feasible"] - block["feasible"]),
    }


def judge(reps: list[dict], golden: dict) -> dict:
    """Failures of a set of same-seed repetitions: what each one saw,
    disagreement between them, and feasibility flips against golden."""
    first = reps[0]
    failed = sum(rep["failed"] for rep in reps)
    blocks = [rep["block"] for rep in reps]
    repeatable = all(block == blocks[0] for block in blocks)
    if not repeatable:
        failed += 1
    verdict = against_golden(golden, first["workload"], first["seed"],
                             blocks[0])
    failed += verdict.get("feasibility_flips", 0)
    if verdict.get("workload_changed"):
        print(f"warning: {first['workload']} seed {first['seed']}: the "
              "generated requests differ from golden.json (workload_changed);"
              " timings do not compare with earlier runs", file=sys.stderr)
    return {
        "attempted": sum(rep["asks"] for rep in reps),
        "failed": failed,
        "repeatable": repeatable,
        "first_error": next(
            (rep["first_error"] for rep in reps if rep["first_error"]), ""),
        **verdict,
    }


@dataclass
class Harness:
    """One seed's runs: what to measure, for how long, where to write."""

    spec: dict
    golden: dict
    out: pathlib.Path
    seed: int
    seconds: float
    #: When non-zero every repetition measures exactly this many asks.
    asks: int = 0

    def measure(self, workload: str) -> dict:
        """The end-to-end run: three untraced repetitions of one stream;
        each metric is the median of the three, ``spread`` their range."""
        reps = [spawn(workload, self.seed, asks=self.asks,
                      budget=self.seconds / REPETITIONS)
                for _ in range(REPETITIONS)]
        values = {m["name"]: [rep[m["name"]] for rep in reps]
                  for m in self.spec["end_to_end"]}
        return {
            "workload": workload, "seed": self.seed, "trace": 0,
            "metrics": {n: statistics.median(v) for n, v in values.items()},
            "spread": {n: [min(v), max(v)] for n, v in values.items()},
            "info": {
                "asks_per_repetition": [rep["asks"] for rep in reps],
                "mutations_per_repetition": [rep["mutations"] for rep in reps],
                "machine_speed": [rep["machine_speed"] for rep in reps],
                "raw": [rep["raw"] for rep in reps],
                "generate_s": statistics.median(r["generate_s"] for r in reps),
                "oracle_s": statistics.median(r["oracle_s"] for r in reps),
                "block": reps[0]["block"],
            },
            **judge(reps, self.golden),
        }

    def trace(self, workload: str) -> dict:
        """The traced run: one untraced repetition for the base, then one
        traced repetition over exactly the same asks."""
        spans = self.out / f"trace-{workload}.jsonl"
        plain = spawn(workload, self.seed, budget=0.0, asks=self.asks)
        traced = spawn(workload, self.seed, budget=0.0, asks=plain["asks"],
                       trace=1, spans=str(spans))
        verdict = judge([plain, traced], self.golden)
        metrics = traced.pop("metrics")
        metrics["planners.plan_digest_match"] = float(
            verdict.get("plan_digest_match", verdict["repeatable"]))
        metrics["mediator.ask_p99_ms"] = plain["ask_p99_ms"]
        metrics["harness.trace_overhead_ratio"] = \
            traced["asks_per_s"] / plain["asks_per_s"]
        return {
            "workload": workload, "seed": self.seed, "trace": 1,
            "metrics": metrics,
            "info": {
                "asks": traced["asks"],
                "replayed_asks": traced["replayed_asks"],
                "spans": traced["spans"], "span_file": str(spans),
                "p99_samples": plain["asks"],
            },
            **verdict,
        }

    def run(self, workload: str, traced: bool) -> dict:
        """One run, checked against ``BENCHMARK.json`` and printed."""
        key = "per_layer" if traced else "end_to_end"
        result = self.trace(workload) if traced else self.measure(workload)
        declared = {m["name"]: m["unit"] for m in self.spec[key]}
        if set(declared) != set(result["metrics"]):
            raise BenchmarkError(
                "BENCHMARK.json and the run disagree on metric names: "
                f"{sorted(set(declared) ^ set(result['metrics']))}")
        show(result, declared)
        return result

    def run_set(self) -> tuple[dict, bool]:
        """Every workload, end to end and traced; the document and whether
        the set is clean (no failures, unattributed time within the gate)."""
        document: dict = {"seed": self.seed, "workloads": {}}
        clean = True
        for entry in self.spec["workloads"]:
            name = entry["name"]
            end_to_end = self.run(name, traced=False)
            layers = self.run(name, traced=True)
            unattributed = layers["metrics"]["mediator.unattributed_share"]
            if end_to_end["failed"] or layers["failed"]:
                clean = False
            if name != "fanout_rtt" and unattributed > UNATTRIBUTED_GATE:
                print(f"FAIL {name}: mediator.unattributed_share "
                      f"{unattributed:.3f} > {UNATTRIBUTED_GATE}")
                clean = False
            document["workloads"][name] = {
                "end_to_end": end_to_end, "per_layer": layers}
        path = self.out / f"anatomy-seed{self.seed}.json"
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)
        print(f"wrote {path}")
        return document, clean


def show(result: dict, units: dict[str, str]) -> None:
    """Every metric by name, with its unit."""
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    spread = result.get("spread", {})
    for name, value in result["metrics"].items():
        shown = "-" if value is None else f"{value:.6g}"
        line = f"  {name:<40} {shown:>12} {units.get(name, '?')}"
        if name in spread:
            low, high = spread[name]
            line += f"   [{low:.6g} .. {high:.6g}]"
        print(line)
    for key, value in result["info"].items():
        print(f"  info {key}: {value}")
    if result["first_error"]:
        print(f"  first error: {result['first_error']}")


def contract_line(result: dict, declared: list[dict]) -> str:
    """The driver's last line: exactly the declared metrics, each a
    number (0 where the layer does not run on this workload)."""
    metrics = {}
    for entry in declared:
        value = result["metrics"].get(entry["name"])
        metrics[entry["name"]] = {
            "value": 0.0 if value is None else float(value),
            "unit": entry["unit"],
        }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def exact_metric(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES) and name not in NOT_EXACT


def verify_repeat(spec: dict, first: dict, second: dict) -> bool:
    """Two sets of one seed: timings within their bounds, counts equal."""
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    exact_end_to_end = {"eq1_cost_per_ask", "feasible_share"}
    agree = True
    for name, runs in first["workloads"].items():
        again = second["workloads"][name]
        for metric, bound in bounds.items():
            a = runs["end_to_end"]["metrics"][metric]
            b = again["end_to_end"]["metrics"][metric]
            if metric in exact_end_to_end:
                ok, shown = a == b, "exact"
            else:
                ok, shown = abs(b - a) / a <= bound, f"{bound:.0%}"
            agree &= ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:<12} {metric:<18} "
                  f"{a:>12.6g} {b:>12.6g}  {(b - a) / a:+7.2%}  of {shown}")
        for metric, a in runs["per_layer"]["metrics"].items():
            b = again["per_layer"]["metrics"][metric]
            if exact_metric(metric) and a != b:
                agree = False
                print(f"FAIL {name:<12} {metric:<18} {a} != {b}")
    return agree


def write_golden() -> None:
    from benchmarks.anatomy.workloads import DEFAULT_SEEDS, WORKLOADS

    golden: dict = {}
    for name in WORKLOADS:
        for seed in DEFAULT_SEEDS:
            rep = spawn(name, seed, budget=0.0)
            block = rep["block"]
            golden.setdefault(name, {})[str(seed)] = block
            print(name, seed, block)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.anatomy",
        description="What one Mediator.ask costs, end to end and by layer.")
    parser.add_argument("--workload", help="run this workload only and end "
                        "with the driver's one-line JSON result")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per end-to-end run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--asks", type=int, default=0,
                        help="measure exactly this many asks per repetition "
                        "(a smoke run; counts no longer match golden.json)")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for the JSON document and the spans")
    parser.add_argument("--verify-repeat", action="store_true",
                        help="run the whole set twice and compare")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json for the default seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks.anatomy measures the program under src/repro, "
              "which is not here", file=sys.stderr)
        return 2
    spec = load_spec()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_golden:
            write_golden()
            return 0
        harness = Harness(
            spec=spec, golden=load_golden(), out=out, seed=args.seed,
            seconds=spec["run_seconds"] if args.seconds is None
            else args.seconds,
            asks=args.asks)
        if args.workload:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                parser.error(f"unknown workload {args.workload!r}")
            result = harness.run(args.workload, traced=bool(args.trace))
            with open(out / f"result-{args.workload}-trace{args.trace}.json",
                      "w") as handle:
                json.dump(result, handle, indent=1)
            print(contract_line(
                result, spec["per_layer" if args.trace else "end_to_end"]))
            return 0
        first, clean = harness.run_set()
        if args.verify_repeat:
            second, clean_again = harness.run_set()
            clean = verify_repeat(spec, first, second) and clean and clean_again
        return 0 if clean else 1
    except BenchmarkError as error:
        print(f"benchmarks.anatomy: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
