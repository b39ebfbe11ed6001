"""Command-line interface: query the standard catalog of simulated sources.

Usage::

    python -m repro sources                 # list sources + capabilities
    python -m repro plan  "SELECT ... FROM ... WHERE ..."
    python -m repro ask   "SELECT ... FROM ... WHERE ..."
    python -m repro plan --planner cnf "SELECT ..."   # try a baseline

``plan`` shows every strategy's plan and estimated cost side by side
when ``--planner all`` (the default for ``plan``); ``ask`` executes the
best plan and prints the rows.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.mediator import Mediator
from repro.planners.base import Planner
from repro.planners.baselines import (
    CNFPlanner,
    DiscoPlanner,
    DNFPlanner,
    NaivePlanner,
)
from repro.planners.gencompact import GenCompact
from repro.planners.genmodular import GenModular
from repro.plans.printer import explain
from repro.source.library import standard_catalog
from repro.ssdl.text import format_ssdl

_PLANNERS: dict[str, type | None] = {
    "gencompact": GenCompact,
    "genmodular": GenModular,
    "cnf": CNFPlanner,
    "dnf": DNFPlanner,
    "disco": DiscoPlanner,
    "naive": NaivePlanner,
}


def _make_planner(name: str) -> Planner:
    try:
        return _PLANNERS[name]()
    except KeyError:
        raise ReproError(
            f"unknown planner {name!r}; pick one of {', '.join(_PLANNERS)} or 'all'"
        ) from None


def _build_mediator() -> Mediator:
    mediator = Mediator()
    for source in standard_catalog().values():
        mediator.add_source(source)
    return mediator


def cmd_sources(args) -> int:
    mediator = _build_mediator()
    for name, source in sorted(mediator.catalog.items()):
        print(f"{name}  ({len(source.relation)} rows)")
        print(f"  attributes: {', '.join(source.schema.attribute_names)}")
        if args.verbose:
            for line in format_ssdl(source.description).splitlines():
                print(f"  | {line}")
        else:
            nts = ", ".join(source.description.condition_nonterminals)
            print(f"  forms: {nts}")
        print()
    return 0


def cmd_plan(args) -> int:
    mediator = _build_mediator()
    names = list(_PLANNERS) if args.planner == "all" else [args.planner]
    for name in names:
        result = mediator.plan(args.query, _make_planner(name))
        print(f"--- {result.planner} ---")
        if result.feasible:
            print(f"estimated cost: {result.cost:.1f}")
            print(explain(result.plan, mediator.cost_model()))
        else:
            why = result.why_infeasible()
            print("infeasible under this strategy" + (f": {why}" if why else ""))
        print()
    return 0


def cmd_ask(args) -> int:
    mediator = _build_mediator()
    planner = _make_planner(args.planner) if args.planner != "all" else None
    answer = mediator.ask(args.query, planner)
    print(answer.planning.describe())
    print(
        f"{answer.report.queries} source queries, "
        f"{answer.report.tuples_transferred} tuples transferred, "
        f"{len(answer.rows)} answer rows"
    )
    for row in answer.rows[: args.limit]:
        print("  " + ", ".join(f"{k}={v}" for k, v in sorted(row.items())))
    if len(answer.rows) > args.limit:
        print(f"  ... {len(answer.rows) - args.limit} more")
    return 0


def cmd_shell(args) -> int:
    """Interactive loop: type SELECT queries, get plans + answers."""
    mediator = _build_mediator()
    planner = _make_planner(args.planner) if args.planner != "all" else None
    print("capability-sensitive query shell -- type a SELECT query, "
          "'sources' to list sources, or 'quit'.")
    while True:
        try:
            line = input("repro> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        lowered = line.lower()
        if lowered in ("quit", "exit", "\\q"):
            return 0
        if lowered == "sources":
            for name, source in sorted(mediator.catalog.items()):
                print(f"  {name} ({len(source.relation)} rows): "
                      f"{', '.join(source.schema.attribute_names)}")
            continue
        try:
            answer = mediator.ask(line, planner)
        except ReproError as exc:
            print(f"error: {exc}")
            continue
        print(answer.planning.describe())
        print(
            f"{answer.report.queries} source queries, "
            f"{answer.report.tuples_transferred} tuples, "
            f"{len(answer.rows)} rows"
        )
        for row in answer.rows[: args.limit]:
            print("  " + ", ".join(f"{k}={v}" for k, v in sorted(row.items())))
        if len(answer.rows) > args.limit:
            print(f"  ... {len(answer.rows) - args.limit} more")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Capability-sensitive query processing (ICDE 1999 repro).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sources = sub.add_parser("sources", help="list the simulated sources")
    p_sources.add_argument("-v", "--verbose", action="store_true",
                           help="print full SSDL descriptions")
    p_sources.set_defaults(func=cmd_sources)

    p_plan = sub.add_parser("plan", help="plan a query (without executing)")
    p_plan.add_argument("query")
    p_plan.add_argument("--planner", default="all",
                        help="gencompact|genmodular|cnf|dnf|disco|naive|all")
    p_plan.set_defaults(func=cmd_plan)

    p_ask = sub.add_parser("ask", help="plan and execute a query")
    p_ask.add_argument("query")
    p_ask.add_argument("--planner", default="gencompact")
    p_ask.add_argument("--limit", type=int, default=10,
                       help="max rows to print (default 10)")
    p_ask.set_defaults(func=cmd_ask)

    p_shell = sub.add_parser("shell", help="interactive query loop")
    p_shell.add_argument("--planner", default="gencompact")
    p_shell.add_argument("--limit", type=int, default=10)
    p_shell.set_defaults(func=cmd_shell)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
