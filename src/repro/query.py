"""Target queries: what the user asks the mediator.

A target query is ``SP(C, A, R)`` -- a select-project query with an
unrestricted condition expression over one source (Section 3; the paper
focuses on selection queries, which "form the building blocks of more
complex queries").

``parse_query`` accepts a small SQL-ish syntax::

    SELECT model, year FROM car_guide
    WHERE make = 'BMW' and price <= 40000 and (color = 'red' or color = 'black')
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from repro.conditions.fingerprint import Fingerprint
from repro.conditions.parser import parse_condition
from repro.conditions.tree import TRUE, Condition
from repro.errors import ConditionParseError


@dataclass(frozen=True)
class TargetQuery:
    """``SP(condition, attributes, source)``."""

    condition: Condition
    attributes: frozenset[str]
    source: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", frozenset(self.attributes))

    # The query is frozen, so what derives from its fields is computed
    # at most once per instance and only when something asks
    # (``cached_property`` writes the instance dict directly; dataclass
    # equality and hashing only see the fields).
    @cached_property
    def fingerprint(self) -> Fingerprint:
        """The condition's identity: exact key, skeleton, leaf vector."""
        return Fingerprint(self.condition)

    @cached_property
    def condition_attributes(self) -> frozenset[str]:
        """``Attr(C)`` of the query's condition."""
        return self.condition.attributes()

    @cached_property
    def text(self) -> str:
        """:meth:`to_text`, rendered once."""
        return self.to_text()

    def to_text(self) -> str:
        cond = "true" if self.condition.is_true else str(self.condition)
        return (
            f"SELECT {', '.join(sorted(self.attributes))} "
            f"FROM {self.source} WHERE {cond}"
        )

    def __str__(self) -> str:
        return self.text


_QUERY_RE = re.compile(
    r"^\s*select\s+(?P<attrs>.+?)\s+from\s+(?P<source>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\s+where\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)


def parse_query(text: str) -> TargetQuery:
    """Parse the SQL-ish target-query syntax."""
    match = _QUERY_RE.match(text)
    if match is None:
        raise ConditionParseError(
            "expected 'SELECT <attrs> FROM <source> [WHERE <condition>]'"
        )
    attrs = frozenset(a.strip() for a in match.group("attrs").split(",") if a.strip())
    if not attrs:
        raise ConditionParseError("the SELECT list is empty")
    where = match.group("where")
    condition = parse_condition(where) if where else TRUE
    return TargetQuery(condition, attrs, match.group("source"))
