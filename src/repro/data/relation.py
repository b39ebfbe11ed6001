"""A small in-memory relation with set semantics.

This is the substrate under both the simulated sources (a source
evaluates supported ``SP`` queries against its relation) and the
mediator's postprocessing (selection, projection, union, intersection
with duplicate elimination -- exactly the operator set of Section 3).

Rows are stored as positional tuples in ``schema.attribute_names``
order, so every operator is one C-level pass: σ and ``SP`` run one
kernel compiled from the condition shape
(:mod:`repro.conditions.predicate`) that filters and projects in the
same list comprehension, π and duplicate elimination are
``dict.fromkeys`` over ``itemgetter`` (first occurrence wins, so row
order is the order a row-at-a-time loop would produce), ∪ chains and ∩
probes a set.  ``dict`` rows exist only at the public boundary.

A relation also carries two proofs about its rows, checked once when
it is built from rows and carried through every operator:

* whether its key column is *proven unique*
  (:attr:`Relation.key_unique`): rows carrying pairwise distinct keys
  cannot repeat, so π, ``SP``, ∩ and ``distinct`` skip the
  ``dict.fromkeys`` they would otherwise need, with the same rows in the
  same order;
* each column's *proven class* (:attr:`Relation.column_classes`): every
  value exactly an int/float/bool, or exactly a str, so the kernels
  compiled over it drop their per-row ``None`` and class guards.

A π that keeps a proven-unique key cannot create duplicates, so it
returns a *view* -- its base relation and the projection's picker --
instead of new tuples.  σ, ``SP`` and π over a view run one kernel on
the base's tuples with the composed picker (a π of a view is a view of
the base, so views never nest); anything that needs the view's own rows
(:attr:`Relation.tuples`, iteration, ∪/∩ operands) builds them once.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from repro.conditions.predicate import (
    KEEP_ALL,
    NUMBERS,
    STRINGS,
    compile_kernel,
)
from repro.conditions.tree import Condition
from repro.data.schema import Schema, row_picker
from repro.errors import SchemaError

#: A tuple is represented as an attribute -> value mapping.
Row = dict


def _getter(keys: tuple):
    """``row -> tuple of row[key] for each key`` (``itemgetter`` alone
    returns a bare value, not a 1-tuple, for one key)."""
    if len(keys) == 1:
        first = itemgetter(keys[0])
        return lambda row: (first(row),)
    return itemgetter(*keys)


def _proves_key(schema: Schema, tuples: tuple[tuple, ...]) -> bool:
    """Is ``schema.key`` non-None, hashable and distinct across the rows?

    Distinct as ``set`` sees it, which is as ``dict.fromkeys`` sees the
    rows that carry the keys (both hash, then compare), so no two of
    those rows can be equal."""
    if schema.key is None:
        return False
    try:
        keys = set(map(itemgetter(schema.position(schema.key)), tuples))
    except TypeError:  # an unhashable key: no proof, as before
        return False
    return len(keys) == len(tuples) and None not in keys


_NUMBER_CLASSES = frozenset((int, float, bool))
_STRING_CLASS = frozenset((str,))


def _proves_classes(width: int, tuples: tuple[tuple, ...]) -> tuple:
    """Per position, :data:`NUMBERS` when every value's class is exactly
    int, float or bool, :data:`STRINGS` when it is exactly str, ``None``
    otherwise (a ``None`` or a subclass anywhere, or no rows at all)."""
    if not tuples:
        return (None,) * width
    proofs = []
    for position in range(width):
        classes = set(map(type, map(itemgetter(position), tuples)))
        proofs.append(NUMBERS if classes <= _NUMBER_CLASSES
                      else STRINGS if classes == _STRING_CLASS else None)
    return tuple(proofs)


class Relation:
    """An immutable collection of rows conforming to a schema.

    Nothing handed out can reach the stored rows: :meth:`__iter__`,
    :attr:`rows` and :meth:`sample` build fresh dicts, :attr:`tuples` is
    a tuple of tuples.  Relations can therefore be shared -- cached,
    coalesced, returned as ``self`` -- without copying.  All operations
    return new relations.

    :attr:`key_unique` is ``True`` when the rows' ``schema.key`` values
    are proven pairwise distinct and not ``None``: checked once when the
    relation is built from rows, kept by σ, ∩, ``distinct`` and a π that
    keeps the key, lost by ∪ and by a π that drops it.

    :attr:`column_classes` holds one proof per position, in
    ``schema.attribute_names`` order: :data:`~repro.conditions.predicate.NUMBERS`,
    :data:`~repro.conditions.predicate.STRINGS` or ``None``.  Checked
    where the key proof is, kept by σ, ∩ and ``distinct``, picked by π
    and ``SP`` with the projection's own picker, and kept by ∪ only
    where both operands agree.

    A view (what a key-keeping :meth:`project` returns) answers every
    accessor as the projection built as new tuples would: the same
    rows, order, ``len`` and proofs.
    """

    # A view stores no tuples (``_tuples`` is None until first read) and
    # ``_view`` = (base, picker): its rows are ``map(picker, base rows)``.
    __slots__ = ("schema", "_tuples", "key_unique", "column_classes", "_view")

    def __init__(self, schema: Schema, rows: Iterable[Row], validate: bool = True):
        """``validate=False`` skips the per-row schema check; a row that
        lacks an attribute then stores ``None`` for it (no condition
        matches either) and attributes the schema lacks are dropped."""
        self.schema = schema
        names = schema.attribute_names
        rows = list(rows)
        if validate:
            for row in rows:
                schema.validate_row(row)
        try:
            self._tuples = tuple(map(_getter(names), rows))
        except KeyError:
            self._tuples = tuple(tuple(map(row.get, names)) for row in rows)
        self.key_unique = _proves_key(schema, self._tuples)
        self.column_classes = _proves_classes(len(names), self._tuples)

    @classmethod
    def _of(cls, schema: Schema, tuples: Iterable[tuple], key_unique: bool,
            column_classes: tuple) -> "Relation":
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._tuples = tuple(tuples)
        relation.key_unique = key_unique
        relation.column_classes = column_classes
        return relation

    @classmethod
    def _set_of(cls, schema: Schema, tuples: Iterable[tuple],
                key_unique: bool, column_classes: tuple) -> "Relation":
        """``tuples`` with duplicates eliminated, first occurrence kept --
        skipped when ``key_unique`` already rules duplicates out."""
        return cls._of(schema, tuples if key_unique else dict.fromkeys(tuples),
                       key_unique, column_classes)

    # -- basic accessors -------------------------------------------------
    def __len__(self) -> int:
        tuples = self._tuples
        if tuples is None:
            tuples = self._view[0]._tuples  # a view has its base's rows
        return len(tuples)

    def _dicts(self, tuples: Iterable[tuple]) -> Iterator[Row]:
        names = self.schema.attribute_names
        return (dict(zip(names, values)) for values in tuples)

    def __iter__(self) -> Iterator[Row]:
        return self._dicts(self.tuples)

    @property
    def rows(self) -> list[Row]:
        """The rows as fresh dicts."""
        return list(self)

    @property
    def tuples(self) -> tuple[tuple, ...]:
        """The rows as stored: value tuples in ``schema.attribute_names``
        order (a view builds them on its first read; a concurrent first
        read builds equal ones)."""
        tuples = self._tuples
        if tuples is None:
            base, picker = self._view
            tuples = self._tuples = tuple(map(picker, base._tuples))
        return tuples

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation({self.schema.name}, {len(self)} rows)"

    # -- relational operators --------------------------------------------
    def _view_scan(self, condition: Condition, attributes=None):
        """A view's ``(kernel, base rows, picker)``: ``condition``
        compiled over the view's attributes where they sit in the base's
        rows (the ones it dropped stay missing, as they are from its own
        rows), and the picker from the base's rows to π_attributes of the
        view's (to the view's own rows for ``None``)."""
        base, picker = self._view
        positions = picker(tuple(range(len(base.schema.attrs))))
        if attributes is not None:
            picker = base.schema.projection(attributes)[1]
        return (compile_kernel(condition, self.schema.attribute_names,
                               self.column_classes, positions),
                base._tuples, picker)

    def select(self, condition: Condition) -> "Relation":
        """σ_condition: rows satisfying the condition."""
        if condition.is_true:
            return self
        tuples = self._tuples
        if tuples is None:
            kernel, tuples, picker = self._view_scan(condition)
        else:
            kernel = compile_kernel(condition, self.schema.attribute_names,
                                    self.column_classes)
            picker = KEEP_ALL
        return Relation._of(self.schema, kernel(tuples, picker),
                            self.key_unique, self.column_classes)

    def project(self, attributes: Iterable[str]) -> "Relation":
        """π_attributes with duplicate elimination (set semantics).  A π
        that keeps a proven-unique key cannot repeat a row and returns a
        view of this relation (of its base, for a view)."""
        sub_schema, picker, keeps_key = self.schema.projection(attributes)
        if picker is KEEP_ALL:
            return self.distinct()
        if self._tuples is None:
            return self._view[0].project(sub_schema.attribute_names)
        classes = picker(self.column_classes)
        if self.key_unique and keeps_key:
            view = Relation.__new__(Relation)
            view.schema = sub_schema
            view._tuples = None
            view.key_unique = True
            view.column_classes = classes
            view._view = (self, picker)
            return view
        return Relation._of(sub_schema, dict.fromkeys(map(picker, self._tuples)),
                            False, classes)

    def sp(self, condition: Condition, attributes: Iterable[str]) -> "Relation":
        """``SP(C, A, R)`` = π_A(σ_C(R)) -- the paper's select-project
        query, as one pass."""
        if condition.is_true:
            return self.project(attributes)
        sub_schema, picker, keeps_key = self.schema.projection(attributes)
        tuples = self._tuples
        if tuples is None:
            kernel, tuples, stored = self._view_scan(
                condition, sub_schema.attribute_names)
        else:
            kernel = compile_kernel(condition, self.schema.attribute_names,
                                    self.column_classes)
            stored = picker
        return Relation._set_of(sub_schema, kernel(tuples, stored),
                                self.key_unique and keeps_key,
                                picker(self.column_classes))

    # -- set operations (require identical attribute sets) ----------------
    def _aligned(self, other: "Relation") -> tuple[Iterable[tuple], tuple]:
        """``other``'s tuples and column proofs laid out in this
        relation's attribute order."""
        mine = self.schema.attribute_names
        theirs = other.schema.attribute_names
        if mine == theirs:
            return other.tuples, other.column_classes
        if set(mine) != set(theirs):
            raise SchemaError(
                f"set operation over different attribute sets: {mine} vs {theirs}"
            )
        picker = row_picker(tuple(map(other.schema.position, mine)))
        return map(picker, other.tuples), picker(other.column_classes)

    def union(self, other: "Relation") -> "Relation":
        """Set union with duplicate elimination."""
        tuples, theirs = self._aligned(other)
        mine = self.column_classes
        if theirs != mine:
            mine = tuple(a if a == b else None for a, b in zip(mine, theirs))
        return Relation._set_of(self.schema, chain(self.tuples, tuples), False,
                                mine)

    def intersect(self, other: "Relation") -> "Relation":
        """Set intersection."""
        theirs = set(self._aligned(other)[0])
        return Relation._set_of(self.schema,
                                filter(theirs.__contains__, self.tuples),
                                self.key_unique, self.column_classes)

    def distinct(self) -> "Relation":
        """Duplicate elimination over all attributes."""
        if self.key_unique:
            return self
        tuples = self.tuples
        unique = dict.fromkeys(tuples)
        if len(unique) == len(tuples):
            return self
        return Relation._of(self.schema, unique, False, self.column_classes)

    # -- conveniences ------------------------------------------------------
    def as_row_set(self) -> frozenset:
        """Rows as a hashable set of value tuples, for comparisons."""
        return frozenset(self.tuples)

    def sample(self, k: int, rng) -> list[Row]:
        """``k`` rows sampled without replacement via the given RNG."""
        tuples = self.tuples
        if k >= len(tuples):
            return self.rows
        return list(self._dicts(rng.sample(tuples, k)))
