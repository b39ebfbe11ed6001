"""Target queries: what the user asks the mediator.

A target query is ``SP(C, A, R)`` -- a select-project query with an
unrestricted condition expression over one source (Section 3; the paper
focuses on selection queries, which "form the building blocks of more
complex queries").

``parse_query`` accepts a small SQL-ish syntax::

    SELECT model, year FROM car_guide
    WHERE make = 'BMW' and price <= 40000 and (color = 'red' or color = 'black')

``prepare_query`` parses the same syntax through a memo of *spellings*:
a text that differs from an earlier one only in its numbers and strings
is not parsed again (see :class:`Spelling`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.conditions.fingerprint import Fingerprint, SkeletonBinder
from repro.conditions.parser import _tokenize, parse_condition, parse_tokens
from repro.conditions.tree import TRUE, Condition
from repro.errors import ConditionParseError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.cache import BoundedCache


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


#: The WHERE group runs to the end; :func:`_split` trims the optional
#: ``\s*;?\s*`` tail in Python instead of trying it after every
#: character of a lazy group (the condition is most of a query).
_QUERY_RE = re.compile(
    r"^\s*select\s+(?P<attrs>.+?)\s+from\s+(?P<source>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\s+where\s+(?P<where>.+)|\s*;?\s*)$",
    re.IGNORECASE | re.DOTALL,
)


def _split(text: str) -> tuple[str, str, str | None]:
    r"""The SELECT list, FROM source and WHERE text of a query text.

    The WHERE text is the shortest non-empty one whose rest is
    whitespace around at most one ``;`` -- what a lazy group followed
    by ``\s*;?\s*$`` captures (``str.rstrip`` strips what ``\s``
    matches)."""
    match = _QUERY_RE.match(text)
    if match is None:
        raise ConditionParseError(
            "expected 'SELECT <attrs> FROM <source> [WHERE <condition>]'"
        )
    attrs, source, where = match.group("attrs", "source", "where")
    if where is not None:
        body = where.rstrip()
        if body.endswith(";"):
            body = body[:-1].rstrip()
        where = where[:max(len(body), 1)]
    return attrs, source, where


def _select_list(text: str) -> frozenset[str]:
    attrs = frozenset(a.strip() for a in text.split(",") if a.strip())
    if not attrs:
        raise ConditionParseError("the SELECT list is empty")
    return attrs


def parse_query(text: str) -> TargetQuery:
    """Parse the SQL-ish target-query syntax."""
    attrs, source, where = _split(text)
    attributes = _select_list(attrs)
    condition = parse_condition(where) if where else TRUE
    return TargetQuery(condition, attributes, source)


# ----------------------------------------------------------------------
# Prepared queries: one spelling, parsed once
# ----------------------------------------------------------------------

class Spelling:
    """What every query text of one *spelling* shares, compiled once.

    A spelling is a text's SELECT list, FROM source and WHERE tokens
    with each number and string replaced by its class (the tokenizer
    derives it): texts that spell alike differ only in those constants,
    so they share the condition's shape, its skeleton and which
    constants fill which atom (the slot program).  :meth:`bind` builds a
    text's query from its constant vector without parsing: the condition
    and its fingerprint in one pass (:class:`SkeletonBinder`), with
    ``Attr(C)`` already set.
    """

    __slots__ = ("attributes", "source", "binder", "condition_attributes")

    def __init__(self, query: TargetQuery, slots: list):
        skeleton = query.fingerprint.skeleton
        self.attributes = query.attributes
        self.source = query.source
        self.binder = SkeletonBinder(skeleton, slots)
        self.condition_attributes = query.condition_attributes

    def bind(self, constants: list) -> TargetQuery:
        """The query of the text whose tokenizer gave ``constants``."""
        condition, fingerprint = self.binder.bind(constants)
        query = TargetQuery(condition, self.attributes, self.source)
        # What the cached properties would compute, stored where they
        # keep it (the instance dict).
        query.__dict__.update(fingerprint=fingerprint,
                              condition_attributes=self.condition_attributes)
        return query


def prepare_query(text: str, spellings: "BoundedCache") -> TargetQuery:
    """:func:`parse_query` through a memo of spellings (a
    :class:`~repro.cache.BoundedCache` of :class:`Spelling`\\ s).

    The text is tokenized once.  A spelling seen before binds the
    constants into its compiled skeleton; a new one is parsed from the
    same tokens, and its :class:`Spelling` stored.  The query equals
    :func:`parse_query`'s, fingerprint and all; a text it rejects raises
    the same error.
    """
    attrs, source, where = _split(text)
    tokens, spelling, constants = None, None, []
    if where:
        try:
            tokens, spelling, constants = _tokenize(where)
        except ConditionParseError:
            _select_list(attrs)  # parse_query reports an empty list first
            raise
    key = (attrs, source, spelling)
    prepared = spellings.get(key)
    if prepared is not None:
        return prepared.bind(constants)
    attributes = _select_list(attrs)
    condition, slots = (TRUE, []) if tokens is None else parse_tokens(
        tokens, constants)
    query = TargetQuery(condition, attributes, source)
    spellings.put(key, Spelling(query, slots))
    return query
