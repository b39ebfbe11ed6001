"""Atomic conditions: the leaves of a condition tree.

The paper (Section 3) models the leaves of a condition tree (CT) as
*atomic conditions* -- simple comparisons such as ``make = "BMW"`` or
``price < 40000``.  We additionally support the ``contains`` operator used
by the bookstore example of Section 1 (``title contains "dreams"``) and an
``in`` operator for form fields that accept a list of values (the car
shopping guide of Example 1.2 allows "a list of values for size").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.errors import ConditionError

#: The value types an atomic condition may compare against.
Value = Union[str, int, float, bool, tuple]


class Op(enum.Enum):
    """Comparison operators permitted in atomic conditions."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    CONTAINS = "contains"
    IN = "in"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Operators whose right-hand side must be ordered (numeric or string).
ORDERED_OPS = frozenset({Op.LT, Op.LE, Op.GT, Op.GE})

_OP_BY_TEXT = {op.value: op for op in Op}
# Common aliases accepted by the textual parser.
_OP_BY_TEXT["=="] = Op.EQ
_OP_BY_TEXT["<>"] = Op.NE


def op_from_text(text: str) -> Op:
    """Return the :class:`Op` for its textual spelling (``"<="`` etc.).

    Raises :class:`ConditionError` for an unknown operator.
    """
    try:
        return _OP_BY_TEXT[text.lower()]
    except KeyError:
        raise ConditionError(f"unknown comparison operator {text!r}") from None


@dataclass(frozen=True)
class Atom:
    """An atomic condition ``attribute op value``.

    Instances are immutable and hashable so they can be shared between
    condition trees and used as dictionary keys (the mark module and the
    planners key tables by (sub)conditions).
    """

    attribute: str
    op: Op
    value: Value

    def __eq__(self, other) -> bool:
        """Field equality with *typed* constants: ``1``, ``1.0``, ``True``
        and ``'1'`` are four different atoms (element-wise for ``in``
        lists).  SSDL constant classes tell them apart (``$num`` excludes
        ``bool``), so nothing keyed by atoms -- the Check LRU, the plan
        cache, templates, flights -- may take one for another."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        value, theirs = self.value, other.value
        if (
            value.__class__ is not theirs.__class__
            or self.op is not other.op
            or self.attribute != other.attribute
            or value != theirs
        ):
            return False
        return value.__class__ is not tuple or all(
            a.__class__ is b.__class__ for a, b in zip(value, theirs)
        )

    def __hash__(self) -> int:
        # The value the dataclass would generate (an Enum member hashes
        # its name), without the Python-level ``Enum.__hash__`` call.
        return hash((self.attribute, self.op._name_, self.value))

    @classmethod
    def _trusted(cls, attribute: str, op: Op, value: Value) -> "Atom":
        """``Atom(attribute, op, value)`` without ``__post_init__``'s
        checks, for a builder that knows the value's class suits the
        operator: a prepared query binds constants into a skeleton whose
        atoms passed the checks with constants of the same classes."""
        atom = object.__new__(cls)
        atom.__dict__.update(attribute=attribute, op=op, value=value)
        return atom

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ConditionError("atomic condition needs a non-empty attribute")
        if self.op is Op.IN:
            if not isinstance(self.value, tuple):
                # Normalize lists/sets to a stable tuple representation.
                if isinstance(self.value, (list, set, frozenset)):
                    object.__setattr__(self, "value", tuple(sorted(self.value, key=repr)))
                else:
                    raise ConditionError("the 'in' operator requires a collection value")
            if len(self.value) == 0:
                raise ConditionError("the 'in' operator requires a non-empty collection")
        elif self.op is Op.CONTAINS:
            if not isinstance(self.value, str):
                raise ConditionError("the 'contains' operator requires a string value")
        elif self.op in ORDERED_OPS:
            if isinstance(self.value, bool) or not isinstance(self.value, (int, float, str)):
                raise ConditionError(
                    f"operator {self.op} requires an orderable value, got {self.value!r}"
                )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def matches(self, row: dict) -> bool:
        """Evaluate this atomic condition against ``row`` (attr -> value).

        A missing attribute evaluates to ``False`` (the tuple cannot
        satisfy a condition on an attribute it does not have).
        """
        if self.attribute not in row:
            return False
        actual = row[self.attribute]
        if actual is None:
            return False
        op = self.op
        if op is Op.EQ:
            return actual == self.value
        if op is Op.NE:
            return actual != self.value
        if op is Op.CONTAINS:
            return isinstance(actual, str) and self.value.lower() in actual.lower()
        if op is Op.IN:
            return actual in self.value
        # Ordered comparisons: guard against cross-type comparisons, which
        # raise TypeError in Python 3.
        if isinstance(actual, str) != isinstance(self.value, str):
            return False
        try:
            if op is Op.LT:
                return actual < self.value
            if op is Op.LE:
                return actual <= self.value
            if op is Op.GT:
                return actual > self.value
            if op is Op.GE:
                return actual >= self.value
        except TypeError:
            return False
        raise AssertionError(f"unhandled operator {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Render as the textual condition syntax (parseable back)."""
        return f"{self.attribute} {self.op.value} {format_value(self.value)}"

    def __str__(self) -> str:
        return self.to_text()


def format_value(value: Value) -> str:
    """Render a constant the way the condition text parser expects it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    return repr(value)
