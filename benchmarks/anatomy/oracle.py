"""The correctness oracle: ``SP(C, A, R)`` evaluated by the benchmark.

The program answers a condition by scanning rows through
``Condition.evaluate``; the oracle answers it from per-attribute
indexes with set algebra, so the two share no code below the condition
tree's public shape (``is_leaf`` / ``is_and`` / ``children`` /
``atom``).  Index look-ups also keep the check cheaper than the ask it
checks, which matters on workloads that send a new constant vector
with every request.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.conditions.atoms import Atom, Op
from repro.conditions.tree import Condition
from repro.data.relation import Relation
from repro.query import TargetQuery


class Oracle:
    """Reference answers over one relation."""

    def __init__(self, relation: Relation):
        self._order = relation.schema.attribute_names
        self._rows = [{a: row[a] for a in self._order} for row in relation]
        self._all = frozenset(range(len(self._rows)))
        self._equal: dict[str, dict[object, set[int]]] = {}
        self._sorted: dict[str, tuple[list, list[int]]] = {}
        for name in self._order:
            by_value: dict[object, set[int]] = {}
            for index, row in enumerate(self._rows):
                by_value.setdefault(row[name], set()).add(index)
            self._equal[name] = by_value
            pairs = sorted((row[name], index)
                           for index, row in enumerate(self._rows))
            self._sorted[name] = ([v for v, _ in pairs], [i for _, i in pairs])
        self._memo: dict[TargetQuery, frozenset] = {}

    def _atom(self, atom: Atom) -> set[int] | frozenset[int]:
        op = atom.op
        if op is Op.EQ:
            return self._equal[atom.attribute].get(atom.value, frozenset())
        values, ids = self._sorted[atom.attribute]
        if op is Op.LE:
            return set(ids[:bisect_right(values, atom.value)])
        if op is Op.LT:
            return set(ids[:bisect_left(values, atom.value)])
        if op is Op.GE:
            return set(ids[bisect_left(values, atom.value):])
        if op is Op.GT:
            return set(ids[bisect_right(values, atom.value):])
        raise ValueError(f"the oracle has no index for operator {op.value!r}")

    def _ids(self, condition: Condition) -> set[int] | frozenset[int]:
        if condition.is_true:
            return self._all
        if condition.is_leaf:
            return self._atom(condition.atom)
        parts = [self._ids(child) for child in condition.children]
        if condition.is_and:
            return set.intersection(*map(set, parts))
        return set().union(*parts)

    def expected(self, query: TargetQuery) -> frozenset:
        """The answer's rows as ``Relation.as_row_set()`` spells them."""
        cached = self._memo.get(query)
        if cached is None:
            order = [a for a in self._order if a in query.attributes]
            rows = self._rows
            cached = frozenset(
                tuple(rows[index][a] for a in order)
                for index in self._ids(query.condition)
            )
            if len(self._memo) < 4096:
                self._memo[query] = cached
        return cached
