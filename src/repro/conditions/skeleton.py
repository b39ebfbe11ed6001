"""Condition skeletons: query templates with the constants factored out.

Bind-joins and wrappers serve thousands of instances of the *same query
template* that differ only in constants.  SSDL templates usually match
constant *classes* (``$str``, ``$num``), so the feasible-plan structure
is identical across instances -- only the cost estimate changes.

A :class:`Skeleton` is a condition tree with each atom's value replaced
by a class marker (stripped by :mod:`repro.conditions.fingerprint`),
plus the extracted value vector.  Conditions with equal skeletons can
share a plan: substitute the new atoms into the old plan's conditions,
then *validate* against the source description (literal templates like
``style = 'sedan'`` make support value-dependent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.conditions.atoms import Atom
from repro.conditions.fingerprint import Fingerprint
from repro.conditions.tree import Condition, Leaf
from repro.errors import ConditionError
from repro.plans.nodes import IntersectPlan, Plan, Postprocess, SourceQuery, UnionPlan


def _rewrite_atoms(node: Condition, rewrite: Callable[[Atom], Atom]) -> Condition:
    """``node`` with every atom (left to right) passed through ``rewrite``."""
    if node.__class__ is Leaf:
        return Leaf(rewrite(node.atom))
    if node.is_true:
        return node
    return node.with_children(
        [_rewrite_atoms(child, rewrite) for child in node.children])


@dataclass(frozen=True)
class Skeleton:
    """A condition template and the value vector extracted from it."""

    template: Condition
    values: tuple

    @classmethod
    def of(cls, condition: Condition) -> "Skeleton":
        fingerprint = Fingerprint(condition)
        return cls(fingerprint.skeleton,
                   tuple(atom.value for atom in fingerprint.atoms))

    def bind(self, values: tuple) -> Condition:
        """The concrete condition with ``values`` substituted in order."""
        if len(values) != len(self.values):
            raise ConditionError(
                f"skeleton expects {len(self.values)} values, got {len(values)}"
            )
        fill = iter(values)
        return _rewrite_atoms(
            self.template, lambda atom: Atom(atom.attribute, atom.op, next(fill)))


def rebinding(old: Fingerprint, new: Fingerprint) -> dict[Atom, Atom] | None:
    """Map each atom of ``old`` to the atom at its position in ``new``.

    None when the two do not share a skeleton, or when the mapping would
    be ambiguous: the same old atom occurs at two positions that receive
    *different* new atoms -- substitution could then silently produce a
    wrong plan, so the caller must replan.
    """
    if old.skeleton != new.skeleton:
        return None
    mapping: dict[Atom, Atom] = {}
    for old_atom, new_atom in zip(old.atoms, new.atoms):
        if mapping.setdefault(old_atom, new_atom) != new_atom:
            return None
    return mapping


def atom_substitution(old_root: Condition, new_root: Condition) -> dict[Atom, Atom] | None:
    """:func:`rebinding` of the atoms of two condition trees."""
    return rebinding(Fingerprint(old_root), Fingerprint(new_root))


def remap_condition(condition: Condition, mapping: dict[Atom, Atom]) -> Condition:
    """Rewrite a condition through an atom mapping (unknown atoms kept).

    Handles *derived* conditions too: planners build source queries from
    conjunctions of child subsets, which are not subtrees of the root,
    but their leaves are the root's atoms.
    """
    return _rewrite_atoms(condition, lambda atom: mapping.get(atom, atom))


def substitute_plan(plan: Plan, mapping: dict[Atom, Atom]) -> Plan:
    """A copy of ``plan`` with every condition rewritten through ``mapping``."""
    if isinstance(plan, SourceQuery):
        return SourceQuery(remap_condition(plan.condition, mapping), plan.attrs, plan.source)
    if isinstance(plan, Postprocess):
        return Postprocess(remap_condition(plan.condition, mapping), plan.attrs,
                           substitute_plan(plan.input, mapping))
    if isinstance(plan, (UnionPlan, IntersectPlan)):
        return type(plan)([substitute_plan(child, mapping) for child in plan.children])
    raise ConditionError(f"cannot substitute into {type(plan).__name__}")
