"""Rewrite rules and the bounded rewrite engine (Section 5.1).

GenModular's rewrite module fires **commutative**, **associative**,
**distributive** and **copy** rules to enumerate condition trees
equivalent to the target-query condition.  GenCompact (Section 6.1)
drops commutativity (folded into the source description), and
associativity and copy (subsumed by IPG's canonical-tree processing),
keeping only the distributive family.

The full rewrite space is infinite (the copy rule alone sees to that),
so the engine performs breadth-first exploration under explicit budgets
and reports whether a budget truncated the search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator, Sequence

from repro.conditions.canonical import canonicalize
from repro.conditions.tree import And, Condition, Or, trusted_connector

#: What a rule does at one node: yields the rewritten forms of that node.
Local = Callable[[Condition], Iterator[Condition]]


# ----------------------------------------------------------------------
# Generic machinery: apply a local transformation at every node position.
# ----------------------------------------------------------------------

def _below(
    local: Local, node: Condition, memo: dict[Condition, tuple[Condition, ...]]
) -> tuple[Condition, ...]:
    """Every tree obtained by applying ``local`` at one node of ``node``'s
    subtree: at ``node`` itself first, then inside each child in turn.

    ``memo`` holds the answer per (structurally equal) node, so trees
    that share subtrees share the work below them.
    """
    found = memo.get(node)
    if found is None:
        out = list(local(node))
        children = node.children
        for index, child in enumerate(children):
            for new_child in _below(local, child, memo):
                out.append(trusted_connector(
                    type(node), children[:index] + (new_child,) + children[index + 1:]
                ))
        found = memo[node] = tuple(out)
    return found


class Rule:
    """A rewrite rule: ``rule(tree)`` yields the trees one rewrite step
    away from ``tree`` -- ``local`` applied at any one node position."""

    def __init__(self, local: Local):
        self.local = local
        self.__name__ = local.__name__.lstrip("_") + "_rule"
        self.__doc__ = local.__doc__

    def __call__(self, tree: Condition) -> Iterator[Condition]:
        return iter(_below(self.local, tree, {}))

    def __repr__(self) -> str:
        return f"<rewrite rule {self.__name__}>"


# ----------------------------------------------------------------------
# The individual rules
# ----------------------------------------------------------------------

def _commutative(node: Condition) -> Iterator[Condition]:
    """Swap any two children of a connector node (one swap per result)."""
    kids = node.children
    for i in range(len(kids)):
        for j in range(i + 1, len(kids)):
            swapped = list(kids)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield trusted_connector(type(node), tuple(swapped))


def _associative(node: Condition) -> Iterator[Condition]:
    """Regroup children: nest a contiguous run, or flatten a nested child."""
    kids = node.children
    n = len(kids)
    cls = type(node)
    # Grouping: wrap kids[i:j] in a nested node of the same kind.
    if n >= 3:
        for i in range(n):
            for j in range(i + 2, n + 1):
                if j - i == n:
                    continue  # grouping everything is a no-op
                grouped = trusted_connector(cls, kids[i:j])
                yield trusted_connector(cls, kids[:i] + (grouped,) + kids[j:])
    # Flattening: splice a same-kind child's children in place.
    for index, child in enumerate(kids):
        if type(child) is cls:
            yield trusted_connector(
                cls, kids[:index] + child.children + kids[index + 1:]
            )


def _distributive(node: Condition) -> Iterator[Condition]:
    """Distribute a connector over an opposite-kind child.

    ``X AND (y1 OR y2) AND Z`` becomes ``(X AND y1 AND Z) OR (X AND y2 AND Z)``
    and dually for OR over AND.
    """
    if not (node.is_and or node.is_or):
        return
    outer_cls = type(node)
    inner_cls = Or if node.is_and else And
    kids = node.children
    for index, child in enumerate(kids):
        if type(child) is not inner_cls:
            continue
        before, after = kids[:index], kids[index + 1:]
        yield trusted_connector(inner_cls, tuple(
            trusted_connector(outer_cls, before + (alternative,) + after)
            for alternative in child.children
        ))


def _factoring(node: Condition) -> Iterator[Condition]:
    """Inverse distribution: pull a common member out of opposite-kind children.

    ``(c AND x) OR (c AND y)`` becomes ``c AND (x OR y)``; when only some
    children share ``c`` the factored group sits beside the others.  The
    dual form handles ``(c OR x) AND (c OR y)``.
    """
    if not (node.is_and or node.is_or):
        return
    inner_cls = And if node.is_or else Or  # children we look inside
    outer_cls = type(node)
    kids = node.children

    def members(child: Condition) -> tuple[Condition, ...]:
        if type(child) is inner_cls:
            return child.children
        return (child,)

    # Candidate common members: anything appearing in >= 2 children.
    counts: dict[Condition, int] = {}
    for child in kids:
        for member in set(members(child)):
            counts[member] = counts.get(member, 0) + 1
    for common, count in counts.items():
        if count < 2:
            continue
        sharing = [c for c in kids if common in members(c)]
        others = [c for c in kids if common not in members(c)]
        residuals = []
        degenerate = False
        for child in sharing:
            rest = tuple(m for m in members(child) if m != common)
            if not rest:
                # child == common: (c) OR (c AND x) == c; factoring
                # would not be an equivalence step here, skip.
                degenerate = True
                break
            residuals.append(
                rest[0] if len(rest) == 1 else trusted_connector(inner_cls, rest))
        if degenerate:
            continue
        factored = trusted_connector(inner_cls, (
            common,
            trusted_connector(outer_cls, tuple(residuals))
            if len(residuals) > 1 else residuals[0],
        ))
        if others:
            yield trusted_connector(outer_cls, tuple(others) + (factored,))
        else:
            yield factored


def _copy(node: Condition) -> Iterator[Condition]:
    """The paper's copy rules: ``C == C AND C`` and ``C == C OR C``.

    Useful because the two copies can subsequently be rewritten
    differently (e.g. distributing one copy but not the other exposes
    plans neither form alone reaches).
    """
    if node.is_true:
        return
    yield trusted_connector(And, (node, node))
    yield trusted_connector(Or, (node, node))


commutative_rule = Rule(_commutative)
associative_rule = Rule(_associative)
distributive_rule = Rule(_distributive)
factoring_rule = Rule(_factoring)
copy_rule = Rule(_copy)

#: Rule set used by GenModular (Section 5.1).
GENMODULAR_RULES: tuple[Rule, ...] = (
    commutative_rule,
    associative_rule,
    distributive_rule,
    factoring_rule,
    copy_rule,
)

#: Rule set used by GenCompact (Section 6.1): distribution both ways only.
GENCOMPACT_RULES: tuple[Rule, ...] = (
    distributive_rule,
    factoring_rule,
)


@dataclass
class RewriteResult:
    """Outcome of a bounded rewrite exploration."""

    trees: list[Condition]
    truncated: bool
    steps: int

    def __iter__(self):
        return iter(self.trees)

    def __len__(self) -> int:
        return len(self.trees)


@dataclass
class RewriteEngine:
    """Breadth-first closure of a seed tree under a rule set, with budgets.

    ``max_trees`` bounds the number of distinct trees returned (the
    search stops at the first new tree past it), ``max_steps`` the
    number of rule applications attempted, and
    ``max_size_factor`` rejects trees that grew beyond
    ``factor * seed.size()`` (this is what tames the copy rule).
    When ``canonical`` is true every produced tree is canonicalized
    before deduplication -- GenCompact works exclusively with canonical
    trees.
    """

    rules: Sequence[Rule] = GENMODULAR_RULES
    max_trees: int = 500
    max_steps: int = 20000
    max_size_factor: float = 2.0
    canonical: bool = False

    def explore(self, seed: Condition) -> RewriteResult:
        if self.canonical:
            seed = canonicalize(seed)
        max_size = max(int(seed.size() * self.max_size_factor), seed.size() + 2)
        seen: dict[Condition, None] = {seed: None}
        frontier = deque([seed])
        # Per rule, the one-step rewrites below every node met during
        # this call: the explored trees share almost all their subtrees.
        memos: list[tuple[Local, dict]] = [(rule.local, {}) for rule in self.rules]
        steps = 0
        while frontier:
            tree = frontier.popleft()
            for local, memo in memos:
                for produced in _below(local, tree, memo):
                    steps += 1
                    if steps > self.max_steps:
                        return RewriteResult(list(seen), True, steps)
                    if self.canonical:
                        produced = canonicalize(produced)
                    if produced.size() > max_size or produced in seen:
                        continue
                    if len(seen) >= self.max_trees:
                        # A new tree with the budget full: no later step
                        # can add one, so the trees are final.
                        return RewriteResult(list(seen), True, steps)
                    seen[produced] = None
                    frontier.append(produced)
        return RewriteResult(list(seen), False, steps)


def enumerate_orderings(condition: Condition, limit: int = 720) -> list[Condition]:
    """All reorderings of ``condition`` reachable by commutativity alone.

    Used by query fixing (Section 6.1): permutes the children of every
    connector node.  ``limit`` caps the number of results.
    """
    if not condition.children:
        return [condition]
    child_orderings = [enumerate_orderings(c, limit) for c in condition.children]
    results: list[Condition] = []
    for perm in permutations(range(len(condition.children))):
        stack: list[list[Condition]] = [[]]
        for index in perm:
            stack = [
                partial + [variant]
                for partial in stack
                for variant in child_orderings[index]
            ]
            if len(stack) > limit:
                stack = stack[:limit]
        for children in stack:
            results.append(condition.with_children(children))  # type: ignore[attr-defined]
            if len(results) >= limit:
                return results
    return results
