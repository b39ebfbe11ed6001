"""One repetition: a fresh interpreter, one client, a closed loop.

Run by the harness as ``python -m benchmarks.anatomy.rep`` with
``PYTHONHASHSEED=0``; prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from benchmarks.anatomy.layers import traced_run
from benchmarks.anatomy.loop import drive, set_up, settle, summarize
from benchmarks.anatomy.oracle import Oracle
from benchmarks.anatomy.workloads import WORKLOADS, World


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    world = World(workload, args.seed)
    oracle = Oracle(world.relation)
    generate_s = time.perf_counter() - started
    if args.corrupt:
        # The oracle's self-test: the source serves keys the oracle
        # (which copied the rows above) has never seen.
        for row in world.relation:
            row[world.relation.schema.key] += 10 ** 6
    min_asks = args.asks if args.asks else workload.block
    if args.trace:
        result = traced_run(world, oracle, budget_s=args.budget,
                            min_asks=min_asks, max_asks=args.asks or None,
                            spans_path=args.spans)
    else:
        mediator, setup = set_up(world)
        with mediator:
            settle()
            tally = drive(mediator, world, oracle, budget_s=args.budget,
                          min_asks=min_asks,
                          max_asks=args.asks or None)
            result = summarize(tally, world, mediator)
        result["setup"] = setup
        result["setup_s"] = setup["setup_s"]
    result["generate_s"] = generate_s
    result["workload"] = workload.name
    result["seed"] = args.seed
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.anatomy.rep")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of wall time the measured loop runs")
    parser.add_argument("--asks", type=int, default=0,
                        help="measure exactly this many asks instead")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="",
                        help="where the traced run writes its spans")
    parser.add_argument("--corrupt", action="store_true",
                        help="serve shifted keys (tests the oracle)")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Plan choice depends on set iteration order (see README): the
        # exact-count metrics only repeat with the hash seed pinned.
        print("refusing to measure without PYTHONHASHSEED=0", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
