"""A query's identity, derived once: every key the serving layer uses.

The mediator asks three things of a condition -- *which plan-cache
entry* (the exact key: order-insensitive, constants included), *which
template* (the skeleton: shape and order kept, constants stripped to
class markers) and *which constants* (the atom vector a template
rebinds).  :class:`Fingerprint` answers them from one bottom-up pass and
:class:`~repro.query.TargetQuery` memoises it, so an ask derives its
identity once: ``plan_cache_key``, ``canonical_key``,
``template_cache_key``, ``PlanTemplates.key``, ``Skeleton.of`` and
``atom_substitution`` are views over it.  Only the interned marker
leaves (a bounded ``lru_cache``) outlive a fingerprint.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Hashable

from repro.conditions.atoms import Atom, Op
from repro.conditions.canonical import canonicalize
from repro.conditions.tree import Condition, Leaf

#: Constant class -> the representative value skeleton leaves carry.
MARKERS = {"str": "\x00str", "num": 0, "bool": False,
           "tuple": ("\x00tuple",)}
_CLASS_OF = {bool: "bool", str: "str", tuple: "tuple", int: "num",
             float: "num"}
_BY_TEXT = itemgetter(1)


def _subclass_class(value) -> str:
    """The constant class of a value whose own class is not a key of
    ``_CLASS_OF`` (an instance of a subclass; anything else is a number)."""
    return next((name for cls, name in _CLASS_OF.items()
                 if isinstance(value, cls)), "num")


@lru_cache(maxsize=4096)
def _leaf_parts(attribute: str, op_name: str, constant_class: str
                ) -> tuple[Leaf, str]:
    """What all leaves ``attribute op <constant of the class>`` share:
    the skeleton (one interned marker leaf) and ``repr`` of the exact
    key up to the constant."""
    op = Op[op_name]
    return (Leaf(Atom(attribute, op, MARKERS[constant_class])),
            f"('leaf', Atom(attribute={attribute!r}, op={op!r}, value=")


def _walk(node: Condition, atoms: list[Atom]) -> tuple[Hashable, str, Condition]:
    """``(exact key, repr(exact key), skeleton)`` of ``node``; its atoms
    are appended to ``atoms`` left to right.

    The exact key sorts every connector's child keys by their ``repr``
    (carried along, not re-rendered) and drops duplicate siblings (AND/OR
    are idempotent); a connector left with one child is that child.  The
    skeleton keeps the tree's shape and order.
    """
    if node.__class__ is Leaf:
        atom = node.atom
        atoms.append(atom)
        value = atom.value
        skeleton, text = _leaf_parts(
            atom.attribute, atom.op._name_,
            _CLASS_OF.get(value.__class__) or _subclass_class(value))
        return ("leaf", atom), f"{text}{value!r}))", skeleton
    if not node.children:  # TRUE
        key = node._key()
        return key, repr(key), node
    parts = [_walk(child, atoms) for child in node.children]
    skeleton = node.with_children([part[2] for part in parts])
    parts.sort(key=_BY_TEXT)
    keys: list[Hashable] = []
    texts: list[str] = []
    for key, text, _ in parts:
        if not keys or key != keys[-1]:
            keys.append(key)
            texts.append(text)
    if len(keys) == 1:
        return keys[0], texts[0], skeleton
    return ((node.kind, tuple(keys)),
            f"('{node.kind}', ({', '.join(texts)}))", skeleton)


class Fingerprint:
    """The identity of one condition tree (immutable once built)."""

    __slots__ = ("exact", "exact_text", "skeleton", "atoms")

    def __init__(self, condition: Condition):
        atoms: list[Atom] = []
        exact, text, skeleton = _walk(condition, atoms)
        if not condition._canonical:
            # The exact key is the flattened tree's (Section 6.4); the
            # skeleton and the atom order are the tree's own.
            exact, text, _ = _walk(canonicalize(condition), [])
        #: Order-insensitive structural key, constants included (equal for
        #: commuted, regrouped, sibling-duplicated spellings); its ``repr``.
        self.exact: Hashable = exact
        self.exact_text: str = text
        #: The tree with every constant replaced by its class marker.
        self.skeleton: Condition = skeleton
        #: The atoms, left to right (with duplicates).
        self.atoms: tuple[Atom, ...] = tuple(atoms)


def canonical_key(condition: Condition) -> Hashable:
    """:attr:`Fingerprint.exact` of a bare condition tree."""
    return Fingerprint(condition).exact
