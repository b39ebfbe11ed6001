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
