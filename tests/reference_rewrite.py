"""The rewrite module as it stood before the engine memoized shared
subtrees: the reference ``tests/test_planner_hot_path.py`` compares the
shipped rules and :class:`RewriteEngine` against.

Kept verbatim -- public constructors, a generator per rule, a list
frontier -- because the order in which trees are first seen breaks cost
ties between plans, so order is behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.conditions.canonical import canonicalize
from repro.conditions.tree import And, Condition, Or

#: A rewrite rule: yields trees one rewrite step away from its input.
Rule = Callable[[Condition], Iterator[Condition]]


# ----------------------------------------------------------------------
# Generic machinery: apply a local transformation at every node position.
# ----------------------------------------------------------------------

def _apply_everywhere(
    tree: Condition, local: Callable[[Condition], Iterator[Condition]]
) -> Iterator[Condition]:
    """Yield every tree obtained by applying ``local`` at one node of ``tree``."""
    yield from local(tree)
    for index, child in enumerate(tree.children):
        for new_child in _apply_everywhere(child, local):
            children = list(tree.children)
            children[index] = new_child
            yield tree.with_children(children)  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# The individual rules
# ----------------------------------------------------------------------

def commutative_rule(tree: Condition) -> Iterator[Condition]:
    """Swap any two children of a connector node (one swap per result)."""

    def local(node: Condition) -> Iterator[Condition]:
        kids = node.children
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                swapped = list(kids)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield node.with_children(swapped)  # type: ignore[attr-defined]

    yield from _apply_everywhere(tree, local)


def associative_rule(tree: Condition) -> Iterator[Condition]:
    """Regroup children: nest a contiguous run, or flatten a nested child."""

    def local(node: Condition) -> Iterator[Condition]:
        kids = node.children
        n = len(kids)
        # Grouping: wrap kids[i:j] in a nested node of the same kind.
        if n >= 3:
            for i in range(n):
                for j in range(i + 2, n + 1):
                    if j - i == n:
                        continue  # grouping everything is a no-op
                    grouped = type(node)(kids[i:j])
                    children = list(kids[:i]) + [grouped] + list(kids[j:])
                    yield node.with_children(children)  # type: ignore[attr-defined]
        # Flattening: splice a same-kind child's children in place.
        for index, child in enumerate(kids):
            if type(child) is type(node):
                children = list(kids[:index]) + list(child.children) + list(kids[index + 1:])
                yield node.with_children(children)  # type: ignore[attr-defined]

    yield from _apply_everywhere(tree, local)


def distributive_rule(tree: Condition) -> Iterator[Condition]:
    """Distribute a connector over an opposite-kind child.

    ``X AND (y1 OR y2) AND Z`` becomes ``(X AND y1 AND Z) OR (X AND y2 AND Z)``
    and dually for OR over AND.
    """

    def local(node: Condition) -> Iterator[Condition]:
        if not (node.is_and or node.is_or):
            return
        inner_cls = Or if node.is_and else And
        outer_cls = And if node.is_and else Or
        kids = node.children
        for index, child in enumerate(kids):
            if not isinstance(child, inner_cls):
                continue
            rest = list(kids[:index]) + list(kids[index + 1:])
            branches = []
            for alternative in child.children:
                branch_children = rest[:index] + [alternative] + rest[index:]
                branches.append(outer_cls(branch_children) if len(branch_children) > 1
                                else branch_children[0])
            yield inner_cls(branches)

    yield from _apply_everywhere(tree, local)


def factoring_rule(tree: Condition) -> Iterator[Condition]:
    """Inverse distribution: pull a common member out of opposite-kind children.

    ``(c AND x) OR (c AND y)`` becomes ``c AND (x OR y)``; when only some
    children share ``c`` the factored group sits beside the others.  The
    dual form handles ``(c OR x) AND (c OR y)``.
    """

    def local(node: Condition) -> Iterator[Condition]:
        if not (node.is_and or node.is_or):
            return
        inner_cls = And if node.is_or else Or  # children we look inside
        outer_cls = type(node)
        kids = node.children

        def members(child: Condition) -> tuple[Condition, ...]:
            if isinstance(child, inner_cls):
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
                rest = [m for m in members(child) if m != common]
                if not rest:
                    # child == common: (c) OR (c AND x) == c; factoring
                    # would not be an equivalence step here, skip.
                    degenerate = True
                    break
                residuals.append(rest[0] if len(rest) == 1 else inner_cls(rest))
            if degenerate:
                continue
            factored = inner_cls(
                [common, outer_cls(residuals) if len(residuals) > 1 else residuals[0]]
            )
            if others:
                yield outer_cls(others + [factored])
            else:
                yield factored

    yield from _apply_everywhere(tree, local)


def copy_rule(tree: Condition) -> Iterator[Condition]:
    """The paper's copy rules: ``C == C AND C`` and ``C == C OR C``.

    Useful because the two copies can subsequently be rewritten
    differently (e.g. distributing one copy but not the other exposes
    plans neither form alone reaches).
    """

    def local(node: Condition) -> Iterator[Condition]:
        if node.is_true:
            return
        yield And([node, node])
        yield Or([node, node])

    yield from _apply_everywhere(tree, local)


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

    ``max_trees`` bounds the number of distinct trees returned,
    ``max_steps`` the number of rule applications attempted, and
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
        frontier = [seed]
        steps = 0
        truncated = False
        while frontier:
            tree = frontier.pop(0)
            for rule in self.rules:
                for produced in rule(tree):
                    steps += 1
                    if steps > self.max_steps:
                        truncated = True
                        frontier.clear()
                        break
                    if self.canonical:
                        produced = canonicalize(produced)
                    if produced.size() > max_size or produced in seen:
                        continue
                    if len(seen) >= self.max_trees:
                        truncated = True
                        continue
                    seen[produced] = None
                    frontier.append(produced)
                if truncated and not frontier:
                    break
            if truncated and not frontier:
                break
        return RewriteResult(list(seen), truncated, steps)
