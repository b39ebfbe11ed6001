"""A query's identity, derived once: every key the serving layer uses.

The mediator asks three things of a condition -- *which plan-cache
entry* (the exact key: order-insensitive, constants included), *which
template* (the skeleton: shape and order kept, constants stripped to
class markers) and *which constants* (the atom vector a template
rebinds).  :class:`Fingerprint` answers them from one bottom-up pass and
:class:`~repro.query.TargetQuery` memoises it, so an ask derives its
identity once: ``plan_cache_key``, ``canonical_key``,
``template_cache_key``, ``PlanTemplates.key`` and ``Skeleton.of`` are
views over it.  Only the interned marker leaves (a bounded
``lru_cache``) outlive a fingerprint.

A query text spelled like an earlier one skips even that pass: a
:class:`SkeletonBinder` compiled from the earlier parse builds the
condition and its fingerprint together from the new constants.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Hashable, Sequence, Union

from repro.conditions.atoms import Atom, Op
from repro.conditions.canonical import canonicalize
from repro.conditions.tree import (
    TRUE,
    Condition,
    Leaf,
    trusted_connector,
)

#: Constant class -> the representative value skeleton leaves carry.
MARKERS = {"str": "\x00str", "num": 0, "bool": False,
           "tuple": ("\x00tuple",)}
#: Exact constant type -> its class (what :data:`MARKERS` is keyed by).
CLASS_OF = {bool: "bool", str: "str", tuple: "tuple", int: "num",
            float: "num"}
_BY_TEXT = itemgetter(1)


def _subclass_class(value) -> str:
    """The constant class of a value whose own class is not a key of
    ``CLASS_OF`` (an instance of a subclass; anything else is a number)."""
    return next((name for cls, name in CLASS_OF.items()
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


def _walk(node: Condition, leaves: list[Leaf]
          ) -> tuple[Hashable, str, Condition]:
    """``(exact key, repr(exact key), skeleton)`` of ``node``; its leaves
    are appended to ``leaves`` left to right.

    The exact key sorts every connector's child keys by their ``repr``
    (carried along, not re-rendered) and drops duplicate siblings (AND/OR
    are idempotent); a connector left with one child is that child.  The
    skeleton keeps the tree's shape and order.
    """
    if node.__class__ is Leaf:
        leaves.append(node)
        atom = node.atom
        value = atom.value
        skeleton, text = _leaf_parts(
            atom.attribute, atom.op._name_,
            CLASS_OF.get(value.__class__) or _subclass_class(value))
        return ("leaf", atom), f"{text}{value!r}))", skeleton
    if not node.children:  # TRUE
        key = node._key()
        return key, repr(key), node
    parts = [_walk(child, leaves) for child in node.children]
    skeleton = node.with_children([part[2] for part in parts])
    key, text = _connector_key(node.kind, parts)
    return key, text, skeleton


def _connector_key(kind: str, parts: list) -> tuple[Hashable, str]:
    """A connector's exact key and its ``repr`` from its children's
    ``(key, text, ...)`` parts (sorted here, in place)."""
    parts.sort(key=_BY_TEXT)
    keys: list[Hashable] = []
    texts: list[str] = []
    for part in parts:
        key = part[0]
        if not keys or key != keys[-1]:
            keys.append(key)
            texts.append(part[1])
    if len(keys) == 1:
        return keys[0], texts[0]
    return (kind, tuple(keys)), f"('{kind}', ({', '.join(texts)}))"


class Fingerprint:
    """The identity of one condition tree (immutable once built)."""

    __slots__ = ("exact", "exact_text", "skeleton", "leaves")

    def __init__(self, condition: Condition):
        leaves: list[Leaf] = []
        exact, text, skeleton = _walk(condition, leaves)
        if not condition._canonical:
            # The exact key is the flattened tree's (Section 6.4); the
            # skeleton and the leaf order are the tree's own.
            exact, text, _ = _walk(canonicalize(condition), [])
        #: Order-insensitive structural key, constants included (equal for
        #: commuted, regrouped, sibling-duplicated spellings); its ``repr``.
        self.exact: Hashable = exact
        self.exact_text: str = text
        #: The tree with every constant replaced by its class marker.
        self.skeleton: Condition = skeleton
        #: The leaves, left to right (with duplicates): the constant slots
        #: a template binds.
        self.leaves: tuple[Leaf, ...] = tuple(leaves)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms, left to right (with duplicates)."""
        return tuple(leaf.atom for leaf in self.leaves)

    @classmethod
    def _of(cls, exact: Hashable, text: str, skeleton: Condition,
            leaves: tuple[Leaf, ...]) -> "Fingerprint":
        """A fingerprint from parts derived elsewhere (see
        :class:`SkeletonBinder`)."""
        fingerprint = object.__new__(cls)
        fingerprint.exact = exact
        fingerprint.exact_text = text
        fingerprint.skeleton = skeleton
        fingerprint.leaves = leaves
        return fingerprint


def canonical_key(condition: Condition) -> Hashable:
    """:attr:`Fingerprint.exact` of a bare condition tree."""
    return Fingerprint(condition).exact


# ----------------------------------------------------------------------
# Prepared skeletons: the condition and its identity from constants
# ----------------------------------------------------------------------

#: Where a skeleton leaf's constant comes from: an index into a constant
#: vector, or a tuple of them (an ``in`` list is one slot).
Slot = Union[int, tuple[int, ...]]


class SkeletonBinder:
    """One skeleton, compiled: its conditions rebuilt from constants.

    Built once from a skeleton and its slot program (which constants
    fill which leaf, left to right); :meth:`bind` then builds the
    condition *and* its :class:`Fingerprint` in one pass over the stored
    shape -- per leaf the atom, the leaf and its key; per connector the
    node and its sorted key -- with no parsing and no second walk.  The
    result equals ``Fingerprint(condition)`` field for field; the caller
    vouches that each constant has the class its skeleton leaf marks.
    A non-canonical skeleton (a connector nested in its own kind) keys
    through the flattening tree walk instead.
    """

    __slots__ = ("skeleton", "_leaves", "_root")

    def __init__(self, skeleton: Condition, slots: Sequence[Slot]):
        leaves: list[tuple[str, Op, str]] = []
        self.skeleton = skeleton
        #: A slot index (a one-leaf condition), ``(connector class,
        #: children)``, or None for TRUE.
        self._root = None if skeleton.is_true else _shape(skeleton, leaves)
        #: Per leaf: ``(slot, attribute, op, key text up to the value)``.
        self._leaves = tuple(
            (slot, *leaf) for slot, leaf in zip(slots, leaves, strict=True))

    def bind(self, constants: Sequence) -> tuple[Condition, Fingerprint]:
        """The condition these constants fill the skeleton with, and
        its fingerprint."""
        root = self._root
        if root is None:
            return TRUE, Fingerprint(TRUE)
        leaves: list[Leaf] = []
        keys: list[Hashable] = []
        texts: list[str] = []
        new_atom, new_leaf = Atom._trusted, Leaf._trusted
        for slot, attribute, op, prefix in self._leaves:
            value = (constants[slot] if slot.__class__ is int
                     else tuple(map(constants.__getitem__, slot)))
            atom = new_atom(attribute, op, value)
            leaves.append(new_leaf(atom))
            keys.append(("leaf", atom))
            texts.append(f"{prefix}{value!r}))")
        if root.__class__ is int:
            return leaves[0], Fingerprint._of(keys[0], texts[0],
                                              self.skeleton, tuple(leaves))
        condition, exact, text = _assemble(root, leaves, keys, texts)
        if not self.skeleton._canonical:
            return condition, Fingerprint(condition)
        return condition, Fingerprint._of(exact, text, self.skeleton,
                                          tuple(leaves))


def _shape(node: Condition, leaves: list) -> int | tuple:
    """``node``'s shape for :meth:`SkeletonBinder.bind`: a leaf becomes
    its index in ``leaves`` (which gets its attribute, op and key text)."""
    if node.__class__ is Leaf:
        atom = node.atom
        leaves.append((atom.attribute, atom.op, _leaf_parts(
            atom.attribute, atom.op._name_,
            CLASS_OF[atom.value.__class__])[1]))
        return len(leaves) - 1
    return (type(node), tuple(_shape(child, leaves) for child in node.children))


def _assemble(shape: tuple, leaves: list[Leaf], keys: list, texts: list
              ) -> tuple[Condition, Hashable, str]:
    """``(node, exact key, its repr)`` of a connector shape, over the
    bound leaves and their keys."""
    cls, children = shape
    nodes: list[Condition] = []
    parts: list[tuple[Hashable, str]] = []
    for child in children:
        if child.__class__ is int:
            nodes.append(leaves[child])
            parts.append((keys[child], texts[child]))
        else:
            node, key, text = _assemble(child, leaves, keys, texts)
            nodes.append(node)
            parts.append((key, text))
    key, text = _connector_key(cls.kind, parts)
    return trusted_connector(cls, tuple(nodes)), key, text
