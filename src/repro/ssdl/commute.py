"""Commutation closure of source descriptions and source-query "fixing".

Section 6.1: instead of firing the commutativity rewrite rule on every
target query, GenCompact rewrites the *source description once*, when
the source joins the system, so the grammar appears order insensitive.
At execution time the mediator then "fixes" each source query of the one
chosen plan -- reordering its conjuncts/disjuncts into an order the
*native* (original, order-sensitive) grammar accepts.

:func:`commutation_closure` adds, for every production alternative whose
top level is a pure ``and``- (or pure ``or``-) separated sequence, all
permutations of its segments.  A segment is a maximal symbol run between
top-level connector keywords (parenthesized groups count as one
segment).  For recursive rules this closes the rule set, which is a
superset of the single-rule languages but still only accepts
commutative rearrangements of natively acceptable strings.  It also
decides, syntactically and conservatively, whether the closed
description is *order-free* -- ``Check`` sees each connector node's
children only as a multiset -- so GenCompact plans one CT per
commutation class (DESIGN.md, "Planner hot path").

:func:`fix_condition` searches the commutative orbit of a condition for
an ordering the native description supports -- the paper's "fix the
query" step, whose cost is low because only the queries of the single
plan that will execute are fixed.
"""

from __future__ import annotations

from itertools import islice, permutations
from typing import Sequence

from repro.conditions.rewrite import enumerate_orderings
from repro.conditions.tree import Condition
from repro.errors import QueryFixingError
from repro.ssdl.description import SourceDescription
from repro.ssdl.symbols import (
    AND_SYM,
    LPAREN_SYM,
    NT,
    OR_SYM,
    RPAREN_SYM,
    TRUE_SYM,
    KeywordSym,
    Symbol,
    Template,
)

#: Do not permute sequences with more segments than this (k! blow-up guard).
DEFAULT_MAX_SEGMENTS = 6


def _split_segments(
    alternative: tuple[Symbol, ...], connector: KeywordSym
) -> list[list[Symbol]] | None:
    """Split an alternative into top-level segments around ``connector``.

    Returns None when the alternative is not a pure top-level sequence of
    that connector (mixed connectors at the top level, unbalanced parens,
    or fewer than two segments).
    """
    other = OR_SYM if connector is AND_SYM else AND_SYM
    segments: list[list[Symbol]] = [[]]
    depth = 0
    for symbol in alternative:
        if symbol == LPAREN_SYM:
            depth += 1
            segments[-1].append(symbol)
        elif symbol == RPAREN_SYM:
            depth -= 1
            if depth < 0:
                return None
            segments[-1].append(symbol)
        elif depth == 0 and symbol == connector:
            segments.append([])
        elif depth == 0 and symbol == other:
            return None  # mixed top-level connectors: leave untouched
        else:
            segments[-1].append(symbol)
    if depth != 0 or len(segments) < 2 or any(not seg for seg in segments):
        return None
    return segments


def _is_segment(symbols: Sequence[Symbol]) -> bool:
    """One template, one nonterminal, or one parenthesised nonterminal."""
    if len(symbols) == 1:
        return isinstance(symbols[0], (Template, NT))
    return (len(symbols) == 3 and symbols[0] == LPAREN_SYM
            and isinstance(symbols[1], NT) and symbols[2] == RPAREN_SYM)


def _order_free(
    productions: dict[str, tuple[tuple[Symbol, ...], ...]], max_segments: int
) -> bool:
    """Does the closure of ``productions`` see every connector node's
    children only as a multiset?

    Yes when every alternative is ``true``, one segment, or a pure
    top-level ``and``/``or`` sequence of at most ``max_segments``
    segments (so the closure holds all its permutations), and no
    nonterminal used bare as a segment of an X-sequence derives a bare
    X-sequence (through unit alternatives).  Every derived string is then
    balanced, an X-sequence alternative lines its segments up one to one
    with the children of an X node, and permuting the children permutes
    the segments: DESIGN.md, "Planner hot path", has the induction.
    """
    units: dict[str, set[str]] = {}
    heads = {AND_SYM: set(), OR_SYM: set()}
    segments_of = {AND_SYM: set(), OR_SYM: set()}
    for head, alternatives in productions.items():
        for alternative in alternatives:
            if AND_SYM not in alternative and OR_SYM not in alternative:
                if alternative != (TRUE_SYM,) and not _is_segment(alternative):
                    return False
                if len(alternative) == 1 and isinstance(alternative[0], NT):
                    units.setdefault(head, set()).add(alternative[0].name)
                continue
            for connector in (AND_SYM, OR_SYM):
                segments = _split_segments(alternative, connector)
                if segments is not None:
                    break
            else:
                return False
            if len(segments) > max_segments or not all(map(_is_segment, segments)):
                return False
            heads[connector].add(head)
            segments_of[connector].update(
                segment[0].name for segment in segments
                if isinstance(segment[0], NT))
    for connector, bare in heads.items():
        # Close "derives a bare X-sequence" under unit alternatives.
        grown = True
        while grown:
            grown = False
            for head, targets in units.items():
                if head not in bare and targets & bare:
                    bare.add(head)
                    grown = True
        if bare & segments_of[connector]:
            return False
    return True


def commutation_closure(
    description: SourceDescription, max_segments: int = DEFAULT_MAX_SEGMENTS
) -> SourceDescription:
    """A description accepting all commutative reorderings of each rule.

    Rules whose top-level connector sequence exceeds ``max_segments``
    segments are left unpermuted (the factorial closure would be too
    large); fixing falls back to searching orderings of the query
    instead.  The returned description shares attribute associations
    with the original, and its ``order_free`` says whether ``Check``
    against it is blind to the order of every node's children.
    """
    new_productions: dict[str, list[tuple[Symbol, ...]]] = {}
    for head, alternatives in description.productions.items():
        seen: dict[tuple[Symbol, ...], None] = {}
        for alternative in alternatives:
            seen.setdefault(tuple(alternative))
            for connector in (AND_SYM, OR_SYM):
                segments = _split_segments(tuple(alternative), connector)
                if segments is None or len(segments) > max_segments:
                    continue
                joined_connector = connector
                for order in permutations(range(len(segments))):
                    permuted: list[Symbol] = []
                    for position, seg_index in enumerate(order):
                        if position:
                            permuted.append(joined_connector)
                        permuted.extend(segments[seg_index])
                    seen.setdefault(tuple(permuted))
        new_productions[head] = list(seen)
    closed = SourceDescription(
        condition_nonterminals=description.condition_nonterminals,
        productions=new_productions,
        attributes=description.attributes,
        name=f"{description.name}+commuted" if description.name else "commuted",
    )
    closed.order_free = _order_free(description.productions, max_segments)
    return closed


def fix_condition(
    condition: Condition,
    native: SourceDescription,
    attributes: frozenset[str] | None = None,
    limit: int = 5000,
) -> Condition:
    """Reorder ``condition`` so the native description supports it.

    Searches the commutative orbit (permutations of every connector
    node's children, at most ``limit`` orderings).  ``attributes`` is
    the projection the fixed query must be able to export; when None
    only grammatical acceptance is required.

    Raises :class:`QueryFixingError` when no ordering is accepted --
    this indicates the commutation-closed description accepted a query
    whose orbit the native grammar rejects entirely (possible only when
    closure was truncated by ``max_segments``).
    """
    wanted = attributes if attributes is not None else frozenset()

    def accepted(candidate: Condition) -> bool:
        result = native.check(candidate)
        if not result:
            return False
        if attributes is None:
            return True
        return result.supports(wanted)

    if accepted(condition):
        return condition
    for candidate in islice(enumerate_orderings(condition, limit), limit):
        if accepted(candidate):
            return candidate
    raise QueryFixingError(
        f"no commutative reordering of {condition} is accepted by the native "
        f"description {native.name or '<anonymous>'!r}"
    )
