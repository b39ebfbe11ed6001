"""The query-identity functions as they stood before
``repro.conditions.fingerprint`` derived them in one pass: the reference
``tests/test_fingerprint.py`` compares the shipped keys, skeletons and
rebinding against, and the atom-map substitution the template store's
compiled plans must reproduce.

Kept verbatim -- one tree walk per question, ``repr`` as the sort key,
public constructors -- because the key *values* are behaviour: plan
fingerprints, slow-query groups and golden renderings hash them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.conditions.atoms import Atom
from repro.conditions.canonical import canonicalize
from repro.conditions.tree import And, Condition, Leaf, Or
from repro.plans.nodes import IntersectPlan, Plan, Postprocess, SourceQuery, UnionPlan

#: Representative values per constant class used inside skeleton trees.
_MARKERS = {
    "str": "\x00str",
    "num": 0,
    "bool": False,
    "tuple": ("\x00tuple",),
}


def _class_of(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, str):
        return "str"
    if isinstance(value, tuple):
        return "tuple"
    return "num"


def canonical_key(condition: Condition) -> Hashable:
    condition = canonicalize(condition)
    return _node_key(condition)


def _node_key(node: Condition) -> Hashable:
    if not node.children:
        # Leaf or TRUE: the node's own structural identity.
        return node._key()
    child_keys = sorted(
        (_node_key(child) for child in node.children), key=repr
    )
    unique: list[Hashable] = []
    for key in child_keys:
        if not unique or key != unique[-1]:
            unique.append(key)
    if len(unique) == 1:
        return unique[0]
    kind = "and" if node.is_and else "or"
    return (kind, tuple(unique))


@dataclass(frozen=True)
class Skeleton:
    """A condition template and the value vector extracted from it."""

    template: Condition
    values: tuple

    @classmethod
    def of(cls, condition: Condition) -> "Skeleton":
        values: list = []

        def strip(node: Condition) -> Condition:
            if node.is_true:
                return node
            if node.is_leaf:
                values.append(node.atom.value)
                marker = _MARKERS[_class_of(node.atom.value)]
                return Leaf(Atom(node.atom.attribute, node.atom.op, marker))
            children = [strip(child) for child in node.children]
            return And(children) if node.is_and else Or(children)

        template = strip(condition)
        return cls(template, tuple(values))


def atom_substitution(
    old_root: Condition, new_root: Condition
) -> dict[Atom, Atom] | None:
    if Skeleton.of(old_root).template != Skeleton.of(new_root).template:
        return None
    mapping: dict[Atom, Atom] = {}
    for old_atom, new_atom in zip(old_root.atoms(), new_root.atoms()):
        existing = mapping.get(old_atom)
        if existing is not None and existing != new_atom:
            return None
        mapping[old_atom] = new_atom
    return mapping


def remap_condition(condition: Condition, mapping: dict[Atom, Atom]) -> Condition:
    """``condition`` with every atom rewritten through ``mapping``
    (unknown atoms kept: planners build source queries from subsets of
    the root's conjuncts, whose leaves are the root's atoms)."""
    if condition.is_leaf:
        return Leaf(mapping.get(condition.atom, condition.atom))
    if condition.is_true:
        return condition
    return condition.with_children(
        [remap_condition(child, mapping) for child in condition.children])


def substitute_plan(plan: Plan, mapping: dict[Atom, Atom]) -> Plan:
    """A copy of ``plan`` with every condition rewritten through ``mapping``."""
    if isinstance(plan, SourceQuery):
        return SourceQuery(remap_condition(plan.condition, mapping),
                           plan.attrs, plan.source)
    if isinstance(plan, Postprocess):
        return Postprocess(remap_condition(plan.condition, mapping),
                           plan.attrs, substitute_plan(plan.input, mapping))
    if isinstance(plan, (UnionPlan, IntersectPlan)):
        return type(plan)([substitute_plan(child, mapping)
                           for child in plan.children])
    raise TypeError(f"cannot substitute into {type(plan).__name__}")
