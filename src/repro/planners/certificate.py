"""Certificates before search (DESIGN.md has the proofs).

Every plan a planner here can emit -- over any rewriting of the target
condition ``C`` -- is a ∪/∩/σ combination of source queries that is
*propositionally* equivalent to ``C``: rewrite rules are Boolean
identities and plan generation never looks inside an atom.  Each of
those source queries is a sentence of the description over ``C``'s own
atoms, exporting at least the target projection.  A description's
compiled :class:`~repro.ssdl.compiled.SignatureTable` lists every such
sentence by template multiset, so two questions can be answered from
it before any rewriting, ``Check`` or plan generation:

* **Is there a plan at all?**  Take a DNF term ``T`` of ``C`` and make
  exactly its atoms true.  ``C`` holds, so the plan's formula holds, so
  -- ∪/∩/σ being monotone -- at least one of its source queries holds.
  If no usable signature can be true under that assignment, no plan
  exists and ``T`` is the :attr:`Certificate.witness`.
* **How cheap can a plan be?**  Under the independence estimator a
  sentence selects at least the product of its atoms' selectivities
  (:meth:`Certificate.least_selectivity`), and an additive (Eq. 1) plan
  costs at least its cheapest source query
  (:meth:`repro.plans.cost.CostModel.source_query_floor`).

Both are one-sided: no witness does not mean a plan exists, and the
floor need not be attained.
"""

from __future__ import annotations

from repro.conditions.normal_forms import dnf_terms
from repro.conditions.tree import Condition, conjunction
from repro.data.stats import TableStats
from repro.errors import ConditionError
from repro.query import TargetQuery
from repro.ssdl.description import SourceDescription

#: DNF budget, as for ``is_definitely_unsatisfiable``: a condition with
#: more terms gets no certificate and is searched as before.
MAX_TERMS = 256

#: Relative slack of the floor comparison: the floor and a plan's cost
#: may multiply the same selectivities in a different order.
FLOOR_SLACK = 1e-9


class Certificate:
    """What one description's signatures say about one target query."""

    __slots__ = ("witness", "_leaves", "_live")

    def __init__(self, witness: Condition | None,
                 leaves: list[Condition],
                 live: list[tuple[bool, list[int]]]):
        #: A DNF term of the condition no source query can return rows
        #: for with the projection -- the query is infeasible -- or None.
        self.witness = witness
        self._leaves = leaves
        #: ``(has_or, per template the mask of leaves it matches)`` of
        #: every signature a source query of this query could instantiate.
        self._live = live

    def least_selectivity(self, stats: TableStats) -> float:
        """The least share of the table any source query of any plan of
        any rewriting can select: per live signature, each template
        bound to its most selective atom (under the independence
        estimator a sentence selects at least the product of its atom
        occurrences' selectivities)."""
        selectivity = [stats.selectivity(leaf) for leaf in self._leaves]
        smallest = float("inf")
        for _, masks in self._live:
            product = 1.0
            for mask in masks:
                product *= min(
                    sel for bit, sel in enumerate(selectivity)
                    if mask >> bit & 1
                )
            smallest = min(smallest, product)
        return smallest


def certify(query: TargetQuery,
            description: SourceDescription) -> Certificate | None:
    """The certificate of ``query`` against ``description``, or None
    when there is none to be had: no complete signature table, or a
    condition over the DNF budget."""
    table = description.signatures
    if table is None:
        return None
    try:
        # ``true`` has no term to dnf_terms; to a plan it is one empty one.
        terms = dnf_terms(query.condition, MAX_TERMS) or [[]]
    except ConditionError:
        return None
    bit_of: dict[Condition, int] = {}
    term_masks = []
    for term in terms:
        mask = 0
        for leaf in term:
            mask |= 1 << bit_of.setdefault(leaf, len(bit_of))
        term_masks.append(mask)
    leaves = list(bit_of)
    matched = table.matching([leaf.atom for leaf in leaves])
    exports = description.attributes
    wanted = query.attributes
    live: list[tuple[bool, list[int]]] = []
    for templates, has_or, nonterminals in table.signatures:
        masks = [matched[index] for index in templates]
        if all(masks) and any(wanted <= exports[nt] for nt in nonterminals):
            live.append((has_or, masks))
    witness = None
    for term, term_mask in zip(terms, term_masks):
        for has_or, masks in live:
            # A conjunction holds when every atom does, anything with an
            # ``or`` needs at least one; ``true`` (no masks) always holds.
            if (any if has_or else all)(mask & term_mask for mask in masks):
                break
        else:
            witness = conjunction(term)
            break
    return Certificate(witness, leaves, live)
