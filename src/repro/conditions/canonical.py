"""Canonical condition trees (Section 6.4).

A CT is *canonical* when the children of every AND node are leaves or OR
nodes, and the children of every OR node are leaves or AND nodes -- i.e.
same-kind connectors never nest directly.  GenCompact's plan-generation
module canonicalizes every CT it receives; IPG then implicitly explores
all the regroupings GenModular would reach through the associativity and
copy rewrite rules.

Canonicalization preserves the left-to-right order of the atomic
conditions (order matters to order-sensitive SSDL grammars) and runs in
time linear in the size of the input tree, as the paper requires.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable

from repro.conditions.tree import Condition, trusted_connector


def canonicalize(condition: Condition) -> Condition:
    """Return the canonical equivalent of ``condition``.

    Flattens directly nested same-kind connectors (``a AND (b AND c)``
    becomes ``a AND b AND c``) bottom-up.  A tree that is already
    canonical -- every node knows whether it is -- is returned as is, so
    only the spine above a nested connector is rebuilt.
    """
    if condition._canonical:
        return condition
    cls = type(condition)
    flat: list[Condition] = []
    for child in condition.children:
        child = canonicalize(child)
        if type(child) is cls:
            flat.extend(child.children)
        else:
            flat.append(child)
    return trusted_connector(cls, tuple(flat))


def is_canonical(condition: Condition) -> bool:
    """True iff no connector node has a child of its own kind."""
    return condition._canonical


def commutation_key(
    condition: Condition, memo: dict[Condition, Hashable]
) -> Hashable:
    """A key equal for two trees iff one permutes the other's children.

    A leaf is its own key (typed atom identity); a connector's key is its
    kind and the *multiset* of its children's keys, so ``a or a`` keeps
    both copies (it is not ``a`` to IPG).  ``memo`` holds the key per
    (structurally equal) node across the trees of one planning run.
    """
    key = memo.get(condition)
    if key is None:
        children = condition.children
        if not children:
            key = condition
        else:
            key = (type(condition), frozenset(Counter(
                [commutation_key(child, memo) for child in children]).items()))
        memo[condition] = key
    return key
