"""Statistics and result-size estimation for the cost model.

The paper's cost model (Eq. 1, Section 6.2) charges
``k1 + k2 * (result size of sq)`` per source query.  The optimizer needs
*estimated* result sizes before execution; this module supplies them
from per-attribute statistics under the textbook attribute-independence
assumption:

* selectivity(AND) = product of child selectivities,
* selectivity(OR)  = 1 - product of (1 - child selectivities).

Both combinators are monotone -- dropping a conjunct (or adding a
disjunct) never shrinks the estimate -- which is exactly the property
pruning rule PR1's soundness argument relies on ("impure plans ...
transfer at least as much data as the pure plan").
"""

from __future__ import annotations

import bisect
import random
from array import array
from collections import Counter
from dataclasses import dataclass

from repro.conditions.atoms import Atom, Op
from repro.conditions.tree import Condition
from repro.data.relation import Relation

#: Selectivity assumed for an equality against a never-seen value.
UNSEEN_EQ_SELECTIVITY = 0.0005
#: Selectivity floor so no condition is estimated as impossible.
MIN_SELECTIVITY = 1e-6


@dataclass
class _AttributeStats:
    """Value distribution of one attribute.

    An orderable column keeps its distinct values sorted beside the
    running row count before each (``below[i]`` rows hold a value less
    than ``values[i]``): equality and range estimates are bisections,
    and the column costs two machine words per *distinct* value.  A
    column whose values cannot be ordered keeps a value -> count map
    and estimates no range.
    """

    values: list
    below: array | None
    counts: dict | None
    n_rows: int

    @classmethod
    def of(cls, column, n_rows: int) -> "_AttributeStats":
        counts = Counter(column)
        counts.pop(None, None)
        try:
            values = sorted(counts)
        except TypeError:
            # Mixed types in one column cannot be totally ordered.
            return cls(list(counts), None, dict(counts), n_rows)
        below = array("q", [0])
        for value in values:
            below.append(below[-1] + counts[value])
        return cls(values, below, None, n_rows)

    @property
    def distinct(self) -> int:
        return len(self.values)

    def _count(self, value) -> int | None:
        if self.counts is not None:
            return self.counts.get(value)
        try:
            index = bisect.bisect_left(self.values, value)
        except TypeError:
            return None
        if index < len(self.values) and self.values[index] == value:
            return self.below[index + 1] - self.below[index]
        return None

    def eq_selectivity(self, value) -> float:
        if self.n_rows == 0:
            return 0.0
        count = self._count(value)
        if count is None:
            return UNSEEN_EQ_SELECTIVITY
        return count / self.n_rows

    def range_selectivity(self, op: Op, value) -> float:
        """Fraction of rows with ``row.attr op value`` for ordered ops."""
        below = self.below
        if not below or below[-1] == 0:
            return 0.0
        values = self.values
        n = below[-1]
        try:
            if op is Op.LT:
                k = below[bisect.bisect_left(values, value)]
            elif op is Op.LE:
                k = below[bisect.bisect_right(values, value)]
            elif op is Op.GT:
                k = n - below[bisect.bisect_right(values, value)]
            else:  # GE
                k = n - below[bisect.bisect_left(values, value)]
        except TypeError:
            # Cross-type comparison (e.g. number vs string column).
            return 0.0
        return k / self.n_rows

    def contains_selectivity(self, needle: str) -> float:
        if self.n_rows == 0:
            return 0.0
        needle = needle.lower()
        if self.counts is not None:
            pairs = self.counts.items()
        else:
            below = self.below
            pairs = ((value, below[index + 1] - below[index])
                     for index, value in enumerate(self.values))
        hits = sum(
            count
            for value, count in pairs
            if isinstance(value, str) and needle in value.lower()
        )
        return hits / self.n_rows


class TableStats:
    """Statistics over a relation, built once and queried by the planner.

    ``from_relation`` scans every row (the datasets are laptop-scale);
    a production system would sample, but exact statistics make the
    benchmark shapes reproducible.
    """

    def __init__(self, n_rows: int, per_attribute: dict[str, _AttributeStats]):
        self.n_rows = n_rows
        self._per_attribute = per_attribute
        # Planners evaluate the same (sub-)conditions many times while
        # comparing sub-plans; cache selectivities per condition tree.
        self._selectivity_cache: dict = {}

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        sample_size: int | None = None,
        seed: int = 0,
    ) -> "TableStats":
        """Build statistics by scanning the relation.

        With ``sample_size`` set, statistics are built from a uniform
        sample of that many rows -- what a production mediator does when
        full scans are unaffordable.  Selectivities are fractions of the
        sample (unbiased); only the table cardinality used by
        ``estimated_rows`` stays exact.
        """
        tuples = relation.tuples
        n = len(tuples)
        if sample_size is not None and 0 < sample_size < n:
            tuples = random.Random(seed).sample(tuples, sample_size)
        n_sample = len(tuples)
        names = relation.schema.attribute_names
        # zip(*) transposes row tuples into columns in one pass; an
        # empty relation has no row to take columns from.
        columns = zip(*tuples) if tuples else [()] * len(names)
        per_attribute = {
            attr: _AttributeStats.of(column, n_sample)
            for attr, column in zip(names, columns)
        }
        return cls(n, per_attribute)

    # ------------------------------------------------------------------
    def atom_selectivity(self, atom: Atom) -> float:
        stats = self._per_attribute.get(atom.attribute)
        if stats is None:
            return UNSEEN_EQ_SELECTIVITY
        op = atom.op
        if op is Op.EQ:
            sel = stats.eq_selectivity(atom.value)
        elif op is Op.NE:
            sel = 1.0 - stats.eq_selectivity(atom.value)
        elif op is Op.IN:
            sel = min(1.0, sum(stats.eq_selectivity(v) for v in atom.value))
        elif op is Op.CONTAINS:
            sel = stats.contains_selectivity(atom.value)
        else:
            sel = stats.range_selectivity(op, atom.value)
        return max(MIN_SELECTIVITY, min(1.0, sel))

    def selectivity(self, condition: Condition) -> float:
        """Estimated selectivity of an arbitrary condition tree (cached)."""
        cached = self._selectivity_cache.get(condition)
        if cached is not None:
            return cached
        if condition.is_true:
            out = 1.0
        elif condition.is_leaf:
            out = self.atom_selectivity(condition.atom)
        else:
            child_sels = [self.selectivity(c) for c in condition.children]
            if condition.is_and:
                out = 1.0
                for sel in child_sels:
                    out *= sel
            else:
                out = 1.0
                for sel in child_sels:
                    out *= 1.0 - sel
                out = 1.0 - out
        self._selectivity_cache[condition] = out
        return out

    def estimated_rows(self, condition: Condition) -> float:
        """Estimated result size of σ_condition over the table."""
        return self.selectivity(condition) * self.n_rows
