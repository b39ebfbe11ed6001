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
