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

A relation also knows whether its key column is *proven unique*
(:attr:`Relation.key_unique`): rows carrying pairwise distinct keys
cannot repeat, so π, ``SP``, ∩ and ``distinct`` skip the
``dict.fromkeys`` they would otherwise need, with the same rows in the
same order.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from repro.conditions.predicate import KEEP_ALL, compile_kernel
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
    """

    __slots__ = ("schema", "_tuples", "key_unique")

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

    @classmethod
    def _of(cls, schema: Schema, tuples: Iterable[tuple],
            key_unique: bool = False) -> "Relation":
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._tuples = tuple(tuples)
        relation.key_unique = key_unique
        return relation

    @classmethod
    def _set_of(cls, schema: Schema, tuples: Iterable[tuple],
                key_unique: bool) -> "Relation":
        """``tuples`` with duplicates eliminated, first occurrence kept --
        skipped when ``key_unique`` already rules duplicates out."""
        return cls._of(schema, tuples if key_unique else dict.fromkeys(tuples),
                       key_unique)

    # -- basic accessors -------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    def _dicts(self, tuples: Iterable[tuple]) -> Iterator[Row]:
        names = self.schema.attribute_names
        return (dict(zip(names, values)) for values in tuples)

    def __iter__(self) -> Iterator[Row]:
        return self._dicts(self._tuples)

    @property
    def rows(self) -> list[Row]:
        """The rows as fresh dicts."""
        return list(self)

    @property
    def tuples(self) -> tuple[tuple, ...]:
        """The rows as stored: value tuples in ``schema.attribute_names``
        order."""
        return self._tuples

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation({self.schema.name}, {len(self)} rows)"

    # -- relational operators --------------------------------------------
    def select(self, condition: Condition) -> "Relation":
        """σ_condition: rows satisfying the condition."""
        if condition.is_true:
            return self
        kernel = compile_kernel(condition, self.schema.attribute_names)
        return Relation._of(self.schema, kernel(self._tuples, KEEP_ALL),
                            self.key_unique)

    def project(self, attributes: Iterable[str]) -> "Relation":
        """π_attributes with duplicate elimination (set semantics)."""
        sub_schema, picker, keeps_key = self.schema.projection(attributes)
        if picker is KEEP_ALL:
            return self.distinct()
        return Relation._set_of(sub_schema, map(picker, self._tuples),
                                self.key_unique and keeps_key)

    def sp(self, condition: Condition, attributes: Iterable[str]) -> "Relation":
        """``SP(C, A, R)`` = π_A(σ_C(R)) -- the paper's select-project
        query, as one pass."""
        if condition.is_true:
            return self.project(attributes)
        sub_schema, picker, keeps_key = self.schema.projection(attributes)
        kernel = compile_kernel(condition, self.schema.attribute_names)
        return Relation._set_of(sub_schema, kernel(self._tuples, picker),
                                self.key_unique and keeps_key)

    # -- set operations (require identical attribute sets) ----------------
    def _aligned(self, other: "Relation") -> Iterable[tuple]:
        """``other``'s tuples laid out in this relation's attribute order."""
        mine = self.schema.attribute_names
        theirs = other.schema.attribute_names
        if mine == theirs:
            return other._tuples
        if set(mine) != set(theirs):
            raise SchemaError(
                f"set operation over different attribute sets: {mine} vs {theirs}"
            )
        return map(row_picker(tuple(map(other.schema.position, mine))),
                   other._tuples)

    def union(self, other: "Relation") -> "Relation":
        """Set union with duplicate elimination."""
        return Relation._set_of(
            self.schema, chain(self._tuples, self._aligned(other)), False)

    def intersect(self, other: "Relation") -> "Relation":
        """Set intersection."""
        theirs = set(self._aligned(other))
        return Relation._set_of(self.schema,
                                filter(theirs.__contains__, self._tuples),
                                self.key_unique)

    def distinct(self) -> "Relation":
        """Duplicate elimination over all attributes."""
        if self.key_unique:
            return self
        unique = dict.fromkeys(self._tuples)
        if len(unique) == len(self._tuples):
            return self
        return Relation._of(self.schema, unique)

    # -- conveniences ------------------------------------------------------
    def as_row_set(self) -> frozenset:
        """Rows as a hashable set of value tuples, for comparisons."""
        return frozenset(self._tuples)

    def sample(self, k: int, rng) -> list[Row]:
        """``k`` rows sampled without replacement via the given RNG."""
        if k >= len(self._tuples):
            return self.rows
        return list(self._dicts(rng.sample(self._tuples, k)))
