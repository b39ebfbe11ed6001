"""Relation schemas.

The paper models each Internet source as a relation (Section 3,
footnote 1).  A :class:`Schema` names the attributes, their types and an
optional key attribute.  The key matters to the mediator's set
operations: intersecting projections that include a key is exact,
whereas intersecting key-less projections can over-approximate (the
"intersection anomaly" discussed in DESIGN.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from repro.conditions.predicate import KEEP_ALL
from repro.errors import SchemaError, UnknownAttributeError

#: ``row tuple -> row tuple``: one schema's rows laid out as another's.
Picker = Callable[[tuple], tuple]


class AttrType(enum.Enum):
    """Attribute types for synthetic data and statistics."""

    STRING = "string"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"

    def python_types(self) -> tuple[type, ...]:
        if self is AttrType.STRING:
            return (str,)
        if self is AttrType.INT:
            return (int,)
        if self is AttrType.FLOAT:
            return (float, int)
        return (bool,)


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute."""

    name: str
    type: AttrType = AttrType.STRING

    def admits(self, value) -> bool:
        if value is None:
            return True
        if self.type is AttrType.BOOL:
            return isinstance(value, bool)
        if self.type is AttrType.INT and isinstance(value, bool):
            return False
        return isinstance(value, self.type.python_types())


#: Projections memoised per schema before the memo starts over.
_MAX_PROJECTIONS = 256


def row_picker(positions: tuple[int, ...]) -> Picker:
    """``row tuple -> the values at positions``, at C speed (one
    position is a one-element slice, which is already a 1-tuple)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


@dataclass(frozen=True)
class Schema:
    """An ordered set of attributes with an optional key.

    ``key`` names a single attribute whose values are unique per tuple
    (synthetic generators always populate it uniquely).
    """

    name: str
    attrs: tuple[Attribute, ...]
    key: str | None = None

    def __post_init__(self) -> None:
        names = self.attribute_names
        if len(self._positions) != len(names):
            raise SchemaError(f"duplicate attribute names in schema {self.name!r}")
        if not names:
            raise SchemaError(f"schema {self.name!r} has no attributes")
        if self.key is not None and self.key not in self._positions:
            raise SchemaError(
                f"key {self.key!r} is not an attribute of schema {self.name!r}"
            )

    @staticmethod
    def of(name: str, spec: Sequence[tuple[str, AttrType] | str],
           key: str | None = None) -> "Schema":
        """Build a schema from ``(name, type)`` pairs or bare string names."""
        attrs = []
        for item in spec:
            if isinstance(item, str):
                attrs.append(Attribute(item))
            else:
                attrs.append(Attribute(item[0], item[1]))
        return Schema(name, tuple(attrs), key)

    # The schema is frozen, so what derives from ``attrs`` is computed
    # once per instance (``cached_property`` writes the instance dict
    # directly; dataclass equality and hashing only see the fields).
    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attrs)

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Attribute name -> position in :attr:`attribute_names`."""
        return {name: i for i, name in enumerate(self.attribute_names)}

    @cached_property
    def _projections(self) -> dict[frozenset, tuple["Schema", Picker, bool]]:
        return {}

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._positions

    def position(self, name: str) -> int:
        """Where ``name`` sits in a row tuple of this schema."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownAttributeError(name, self.name) from None

    def attribute(self, name: str) -> Attribute:
        return self.attrs[self.position(name)]

    def validate_attributes(self, attributes: Iterable[str]) -> frozenset[str]:
        """Check every name is an attribute; return them as a frozenset."""
        out = frozenset(attributes)
        if not out <= self._positions.keys():
            for name in out:
                self.position(name)
        return out

    def project(self, attributes: Iterable[str]) -> "Schema":
        """The sub-schema over ``attributes``: schema order kept, the key
        kept only when it is among them."""
        return self.projection(attributes)[0]

    def projection(self, attributes: Iterable[str]
                   ) -> tuple["Schema", Picker, bool]:
        """π_attributes over row tuples, memoised per attribute set:
        ``(sub-schema, picker, key kept)``.  The picker maps a row tuple
        of this schema to one of the sub-schema; when every attribute is
        kept the sub-schema is this schema and the picker
        :data:`~repro.conditions.predicate.KEEP_ALL`."""
        attributes = frozenset(attributes)
        cache = self._projections
        entry = cache.get(attributes)
        if entry is None:
            self.validate_attributes(attributes)
            if len(cache) >= _MAX_PROJECTIONS:
                cache.clear()
            if len(attributes) == len(self.attrs):
                sub, picker = self, KEEP_ALL
            else:
                sub = Schema(
                    self.name,
                    tuple(a for a in self.attrs if a.name in attributes),
                    self.key if self.key in attributes else None,
                )
                picker = row_picker(tuple(map(self.position,
                                              sub.attribute_names)))
            entry = cache[attributes] = (sub, picker, sub.key is not None)
        return entry

    def validate_row(self, row: dict) -> None:
        """Raise :class:`SchemaError` if the row does not fit the schema."""
        for attr in self.attrs:
            if attr.name not in row:
                raise SchemaError(
                    f"row is missing attribute {attr.name!r} of schema {self.name!r}"
                )
            if not attr.admits(row[attr.name]):
                raise SchemaError(
                    f"value {row[attr.name]!r} does not fit attribute "
                    f"{attr.name!r}:{attr.type.value} of schema {self.name!r}"
                )
        extra = row.keys() - self._positions.keys()
        if extra:
            raise SchemaError(
                f"row has attributes {sorted(extra)} unknown to schema {self.name!r}"
            )
