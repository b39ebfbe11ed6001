"""A small in-memory relation with set semantics.

This is the substrate under both the simulated sources (a source
evaluates supported ``SP`` queries against its relation) and the
mediator's postprocessing (selection, projection, union, intersection
with duplicate elimination -- exactly the operator set of Section 3).

Rows are stored as positional tuples in ``schema.attribute_names``
order, so every operator is one C-level pass: σ filters with a
predicate compiled from the condition
(:mod:`repro.conditions.predicate`), π and duplicate elimination are
``dict.fromkeys`` over ``itemgetter`` (first occurrence wins, so row
order is the order a row-at-a-time loop would produce), ∪ chains and ∩
probes a set.  ``dict`` rows exist only at the public boundary.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from repro.conditions.predicate import compile_predicate
from repro.conditions.tree import Condition
from repro.data.schema import Schema
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


class Relation:
    """An immutable collection of rows conforming to a schema.

    Nothing handed out can reach the stored rows: :meth:`__iter__`,
    :attr:`rows` and :meth:`sample` build fresh dicts, :attr:`tuples` is
    a tuple of tuples.  Relations can therefore be shared -- cached,
    coalesced, returned as ``self`` -- without copying.  All operations
    return new relations.
    """

    __slots__ = ("schema", "_tuples")

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

    @classmethod
    def _of(cls, schema: Schema, tuples: Iterable[tuple]) -> "Relation":
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._tuples = tuple(tuples)
        return relation

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
        predicate = compile_predicate(condition, self.schema.attribute_names)
        return Relation._of(self.schema, filter(predicate, self._tuples))

    def project(self, attributes: Iterable[str]) -> "Relation":
        """π_attributes with duplicate elimination (set semantics)."""
        schema = self.schema
        sub_schema = schema.project(attributes)
        if len(sub_schema.attrs) == len(schema.attrs):
            return self.distinct()
        getter = _getter(tuple(
            schema.position(name) for name in sub_schema.attribute_names
        ))
        return Relation._of(
            sub_schema, dict.fromkeys(map(getter, self._tuples))
        )

    def sp(self, condition: Condition, attributes: Iterable[str]) -> "Relation":
        """``SP(C, A, R)`` = π_A(σ_C(R)) -- the paper's select-project query."""
        return self.select(condition).project(attributes)

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
        return map(_getter(tuple(map(other.schema.position, mine))),
                   other._tuples)

    def union(self, other: "Relation") -> "Relation":
        """Set union with duplicate elimination."""
        return Relation._of(
            self.schema,
            dict.fromkeys(chain(self._tuples, self._aligned(other))),
        )

    def intersect(self, other: "Relation") -> "Relation":
        """Set intersection."""
        theirs = set(self._aligned(other))
        return Relation._of(
            self.schema,
            dict.fromkeys(filter(theirs.__contains__, self._tuples)),
        )

    def distinct(self) -> "Relation":
        """Duplicate elimination over all attributes."""
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
