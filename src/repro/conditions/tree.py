"""Condition trees (CTs), the paper's central syntactic object (Section 3).

A condition tree has atomic conditions at the leaves and the Boolean
connectors AND / OR at internal nodes.  Trees are immutable and hashable:
planners use (sub)trees as dictionary keys, and the rewrite engine
deduplicates trees structurally.

Structural equality is *order sensitive*: ``a AND b`` and ``b AND a`` are
different trees.  This is deliberate -- SSDL grammars can be order
sensitive (Section 6.1), and the commutativity rewrite rule exists
precisely to move between such trees.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.conditions.atoms import Atom
from repro.errors import ConditionError


class Condition:
    """Abstract base for condition-tree nodes.

    Concrete subclasses: :class:`Leaf`, :class:`And`, :class:`Or`, and the
    :data:`TRUE` singleton (:class:`TrueCondition`).
    """

    #: Scalars only, set once at construction: the structural hash, the
    #: node count, and whether the tree is canonical (Section 6.4).  No
    #: per-node containers (``atoms()`` / ``attributes()`` results): the
    #: Check LRU alone keeps thousands of trees alive (DESIGN.md,
    #: "Planner hot path").
    __slots__ = ("_hash", "_size", "_canonical")

    # -- structure -----------------------------------------------------
    @property
    def children(self) -> tuple["Condition", ...]:
        return ()

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def is_and(self) -> bool:
        return False

    @property
    def is_or(self) -> bool:
        return False

    @property
    def is_true(self) -> bool:
        return False

    def atoms(self) -> tuple[Atom, ...]:
        """All atomic conditions, left to right (with duplicates)."""
        out: list[Atom] = []
        self._collect_atoms(out)
        return tuple(out)

    def _collect_atoms(self, out: list[Atom]) -> None:
        for child in self.children:
            child._collect_atoms(out)

    def attributes(self) -> frozenset[str]:
        """``Attr(C)``: the set of attributes appearing in this condition."""
        return frozenset(a.attribute for a in self.atoms())

    def nodes(self) -> Iterator["Condition"]:
        """Pre-order traversal of all nodes in this tree."""
        yield self
        for child in self.children:
            yield from child.nodes()

    def size(self) -> int:
        """Number of nodes in the tree."""
        return self._size

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    # -- semantics ------------------------------------------------------
    def evaluate(self, row: dict) -> bool:
        """Evaluate the condition against a tuple (attr -> value dict)."""
        raise NotImplementedError

    # -- presentation ---------------------------------------------------
    def to_text(self, parent: str | None = None) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"

    # -- equality / hashing ---------------------------------------------
    def _key(self):
        """The node's structural identity (what equality and the hash,
        computed once at construction, are about)."""
        raise NotImplementedError

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Condition nodes are immutable")

    def __hash__(self) -> int:
        return self._hash


# Slot writers that bypass the immutability guard (construction only).
_set_hash = Condition._hash.__set__
_set_size = Condition._size.__set__
_set_canonical = Condition._canonical.__set__


class TrueCondition(Condition):
    """The trivially true condition used by download plans: ``SP(true, A, R)``."""

    __slots__ = ()

    _instance: "TrueCondition | None" = None

    def __new__(cls):
        if cls._instance is None:
            node = super().__new__(cls)
            _set_hash(node, hash(node._key()))
            _set_size(node, 1)
            _set_canonical(node, True)
            cls._instance = node
        return cls._instance

    @property
    def is_true(self) -> bool:
        return True

    def evaluate(self, row: dict) -> bool:
        return True

    def to_text(self, parent: str | None = None) -> str:
        return "true"

    def _key(self):
        return ("true",)


#: Singleton instance of the trivially true condition.
TRUE = TrueCondition()


class Leaf(Condition):
    """A leaf node wrapping a single :class:`Atom`."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        if not isinstance(atom, Atom):
            raise ConditionError(f"Leaf requires an Atom, got {type(atom).__name__}")
        _set_atom(self, atom)
        _set_hash(self, hash(self._key()))
        _set_size(self, 1)
        _set_canonical(self, True)

    @classmethod
    def _trusted(cls, atom: Atom) -> "Leaf":
        """``Leaf(atom)`` without re-validating an atom known to be one."""
        node = object.__new__(cls)
        _set_atom(node, atom)
        _set_hash(node, hash(("leaf", atom)))
        _set_size(node, 1)
        _set_canonical(node, True)
        return node

    @property
    def is_leaf(self) -> bool:
        return True

    def _collect_atoms(self, out: list[Atom]) -> None:
        out.append(self.atom)

    def evaluate(self, row: dict) -> bool:
        return self.atom.matches(row)

    def to_text(self, parent: str | None = None) -> str:
        return self.atom.to_text()

    def _key(self):
        return ("leaf", self.atom)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Leaf:
            return False if isinstance(other, Condition) else NotImplemented
        return self._hash == other._hash and self.atom == other.atom

    __hash__ = Condition.__hash__


_set_atom = Leaf.atom.__set__


class _Connector(Condition):
    """Shared implementation for AND / OR nodes."""

    __slots__ = ("_children",)

    #: "and" / "or", set by subclasses.
    kind: str = ""

    def __init__(self, children: Sequence[Condition]):
        children = tuple(children)
        if len(children) < 2:
            raise ConditionError(
                f"{self.kind.upper()} node requires at least two children, got {len(children)}"
            )
        for child in children:
            if not isinstance(child, Condition):
                raise ConditionError(
                    f"{self.kind.upper()} child must be a Condition, got {type(child).__name__}"
                )
            if child.is_true:
                raise ConditionError("TRUE may not appear inside a connector node")
        _fill_connector(self, children)

    @property
    def children(self) -> tuple[Condition, ...]:
        return self._children

    def with_children(self, children: Sequence[Condition]) -> Condition:
        """A copy of this node with different children (collapsing singletons)."""
        children = tuple(children)
        if len(children) == 1:
            return children[0]
        return trusted_connector(type(self), children)

    def to_text(self, parent: str | None = None) -> str:
        sep = f" {self.kind} "
        inner = sep.join(child.to_text(self.kind) for child in self.children)
        if parent is not None and parent != self.kind:
            return f"({inner})"
        if parent == self.kind:
            # Same connector nested under itself still needs parens to keep
            # the tree shape round-trippable through the text parser.
            return f"({inner})"
        return inner

    def _key(self):
        return (self.kind, self._children)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return False if isinstance(other, Condition) else NotImplemented
        return self._hash == other._hash and self._children == other._children

    __hash__ = Condition.__hash__


_set_children = _Connector._children.__set__


def _fill_connector(node: _Connector, children: tuple[Condition, ...]) -> None:
    """Set a new connector's slots: its children and the three scalars."""
    cls = type(node)
    size = 1
    canonical = True
    for child in children:
        size += child._size
        if type(child) is cls or not child._canonical:
            canonical = False
    _set_children(node, children)
    _set_hash(node, hash(node._key()))
    _set_size(node, size)
    _set_canonical(node, canonical)


def trusted_connector(
    cls: "type[_Connector]", children: tuple[Condition, ...]
) -> "_Connector":
    """``cls(children)`` without re-validating the children.

    For builders whose children are nodes of existing trees (the
    combination helpers below, canonicalization, the rewrite rules):
    ``children`` must be a tuple of two or more non-TRUE nodes.
    """
    node = object.__new__(cls)
    _fill_connector(node, children)
    return node


class And(_Connector):
    """A conjunction node (the paper's ∧)."""

    __slots__ = ()
    kind = "and"

    @property
    def is_and(self) -> bool:
        return True

    def evaluate(self, row: dict) -> bool:
        return all(child.evaluate(row) for child in self.children)


class Or(_Connector):
    """A disjunction node (the paper's ∨)."""

    __slots__ = ()
    kind = "or"

    @property
    def is_or(self) -> bool:
        return True

    def evaluate(self, row: dict) -> bool:
        return any(child.evaluate(row) for child in self.children)


# ----------------------------------------------------------------------
# Combination helpers used throughout the planners
# ----------------------------------------------------------------------

def conjunction(conditions: Sequence[Condition]) -> Condition:
    """``AND(conditions)``: the conjunction of the given conditions.

    Mirrors the paper's ``AND(Local)`` notation: the empty conjunction is
    TRUE, a singleton is the condition itself.  Nested And children are
    flattened so the result is in the shape planners expect.
    """
    return _combine(conditions, And)


def disjunction(conditions: Sequence[Condition]) -> Condition:
    """``OR(N)``: the disjunction of the given conditions (see Fig. 5)."""
    return _combine(conditions, Or)


def _combine(conditions: Sequence[Condition], cls: type[_Connector]) -> Condition:
    flat: list[Condition] = []
    for cond in conditions:
        if cond.is_true:
            continue
        if type(cond) is cls:
            flat.extend(cond._children)
        else:
            flat.append(cond)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return trusted_connector(cls, tuple(flat))


def leaf(attribute: str, op, value) -> Leaf:
    """Convenience constructor: ``leaf("make", "=", "BMW")``."""
    from repro.conditions.atoms import Op, op_from_text

    if not isinstance(op, Op):
        op = op_from_text(op)
    return Leaf(Atom(attribute, op, value))
