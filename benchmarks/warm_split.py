"""Where a warm template-hit ask spends its time, layer by layer.

Builds X18's ``zipf_warm`` world (``benchmarks/anatomy``), warms a
mediator the way the harness does, then asks the fixed block of requests
as text with a timer around each layer function that exists in the
checkout on the path -- so the same script measures a parent commit and
its change:

* ``lex``: the condition tokenizer (``conditions.parser._tokenize``);
* ``parse``: the recursive descent (``_Parser.parse``), which a text
  spelled like an earlier one skips;
* ``bind + key``: the query's identity -- ``SkeletonBinder.bind`` (the
  condition and its fingerprint in one pass) or ``Fingerprint.__init__``
  (the tree walk);
* ``unsat``: ``is_definitely_unsatisfiable``;
* ``template bind``: ``PlanTemplates.instantiate``;
* ``execute``: ``Mediator._execute``;
* ``glue``: the rest of the ask.

Prints the median microseconds of each layer over the asks served by
rebinding a template (unscaled wall time; each timer adds well under a
microsecond).  Run from the checkout's root::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python benchmarks/warm_split.py
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import time

from benchmarks.anatomy.loop import set_up, settle
from benchmarks.anatomy.workloads import WORKLOADS, World

#: ``(module, owner attribute or None, function name, layer)``.
LAYERS = (
    ("repro.conditions.parser", None, "_tokenize", "lex"),
    ("repro.conditions.parser", "_Parser", "parse", "parse"),
    ("repro.conditions.fingerprint", "SkeletonBinder", "bind", "bind + key"),
    ("repro.conditions.fingerprint", "Fingerprint", "__init__", "bind + key"),
    ("repro.conditions.simplify", None, "is_definitely_unsatisfiable",
     "unsat"),
    ("repro.serving.plan_cache", "PlanTemplates", "instantiate",
     "template bind"),
    ("repro.mediator.mediator", "Mediator", "_execute", "execute"),
)


def _timed(function, layer: str, spent: dict[str, int]):
    now = time.perf_counter_ns

    def timed(*args, **kwargs):
        started = now()
        try:
            return function(*args, **kwargs)
        finally:
            spent[layer] = spent.get(layer, 0) + now() - started

    return timed


def instrument(spent: dict[str, int]) -> None:
    """Wrap every layer function present, wherever a module bound it."""
    for module_name, owner, name, layer in LAYERS:
        module = sys.modules.get(module_name) or __import__(
            module_name, fromlist=["_"])
        holder = module if owner is None else getattr(module, owner, None)
        function = getattr(holder, name, None) if holder else None
        if function is None:
            continue
        wrapper = _timed(function, layer, spent)
        setattr(holder, name, wrapper)
        if owner is None:
            # Modules that imported the function by name call their copy.
            for other in list(sys.modules.values()):
                if getattr(other, name, None) is function:
                    setattr(other, name, wrapper)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/warm_split.py")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--asks", type=int, default=3000)
    args = parser.parse_args(argv)
    world = World(WORKLOADS["zipf_warm"], args.seed)
    mediator, _ = set_up(world)
    texts = [query.to_text()
             for query in itertools.islice(world.requests(), args.asks)]
    spent: dict[str, int] = {}
    instrument(spent)
    settle()
    rows: dict[str, list[int]] = {}
    templates = mediator.plan_templates
    for text in texts:
        spent.clear()
        hits = templates.hits
        started = time.perf_counter_ns()
        mediator.ask(text)
        total = time.perf_counter_ns() - started
        if templates.hits == hits:
            continue  # an exact hit, a planner run or a shortcut
        spent["glue"] = total - sum(spent.values())
        spent["total"] = total
        for layer in ("lex", "parse", "bind + key", "unsat", "template bind",
                      "execute", "glue", "total"):
            rows.setdefault(layer, []).append(spent.get(layer, 0))
    print(f"zipf_warm seed {args.seed}: {len(rows['total'])} template-hit "
          f"asks of {len(texts)}; median µs per layer")
    for layer, values in rows.items():
        print(f"  {layer:14s} {statistics.median(values) / 1000:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
