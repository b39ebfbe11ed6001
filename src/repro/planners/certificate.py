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

Two sharper answers read the *minimal* DNF terms and are computed only
where the search would otherwise go on: a plan's source queries must
hit every minimal term, so it costs at least the cheapest cover of the
terms (:meth:`Certificate.cover_floor`); and an atom of a term that no
query true under it holds or exports for a mediator-side σ can flip the
condition without flipping any plan (:meth:`Certificate.refute_by_atom`).

All are one-sided: no witness does not mean a plan exists, and no
floor need be attained.
"""

from __future__ import annotations

from itertools import product
from math import inf, prod

from repro.conditions.normal_forms import dnf_terms
from repro.conditions.tree import Condition, conjunction
from repro.data.stats import TableStats
from repro.errors import ConditionError
from repro.planners.mcsc import CoverCandidate, solve_dp
from repro.query import TargetQuery
from repro.ssdl.description import SourceDescription

#: DNF budget, as for ``is_definitely_unsatisfiable``: a condition with
#: more terms gets no certificate and is searched as before.
MAX_TERMS = 256

#: Minimal terms up to which the term-cover floor is the exact minimum
#: cover; beyond, it is the cheapest hitter of the costliest term.
MAX_COVER_TERMS = 12

#: Template-to-atom bindings the term-cover floor may enumerate; over
#: this budget there is no such floor and the search runs as before.
MAX_BINDINGS = 4096

#: Relative slack of the floor comparison: the floor and a plan's cost
#: may multiply the same selectivities in a different order.
FLOOR_SLACK = 1e-9


def _bits(mask: int) -> list[int]:
    return [bit for bit in range(mask.bit_length()) if mask >> bit & 1]


class Certificate:
    """What one description's signatures say about one target query."""

    __slots__ = ("witness", "atom", "_leaves", "_live", "_terms")

    def __init__(self, witness: Condition | None,
                 leaves: list[Condition],
                 live: list[tuple[bool, list[int], frozenset[str]]],
                 terms: list[int]):
        #: A DNF term of the condition no source query can return rows
        #: for with the projection -- the query is infeasible -- or None.
        self.witness = witness
        #: The witness's atom no query can push or filter on, when
        #: :meth:`refute_by_atom` found the witness.
        self.atom: Condition | None = None
        self._leaves = leaves
        #: ``(has_or, per template the mask of leaves it matches, what
        #: its nonterminals exporting the projection export)`` of every
        #: signature a source query of this query could instantiate.
        self._live = live
        #: The DNF terms, as leaf masks.
        self._terms = terms

    def _minimal_terms(self) -> list[int]:
        """The DNF terms no other term is a proper subset of, once each."""
        terms = self._terms
        return [term for term in dict.fromkeys(terms)
                if not any(other != term and other & term == other
                           for other in terms)]

    def least_selectivity(self, stats: TableStats) -> float:
        """The least share of the table any source query of any plan of
        any rewriting can select: per live signature, each template
        bound to its most selective atom (under the independence
        estimator a sentence selects at least the product of its atom
        occurrences' selectivities)."""
        selectivity = [stats.selectivity(leaf) for leaf in self._leaves]
        return min((_least_product(masks, selectivity)
                    for _, masks, _ in self._live), default=inf)

    def cover_floor(self, stats: TableStats, price) -> float | None:
        """The least cost of a cover of the minimal terms by the queries
        the live signatures can ask -- a conjunctive one, per binding of
        its templates to atoms of a term, hits the terms holding those
        atoms; an ``or`` one hits every term -- each priced by ``price``
        at its least product of selectivities.  None over
        :data:`MAX_BINDINGS`."""
        selectivity = [stats.selectivity(leaf) for leaf in self._leaves]
        terms = self._minimal_terms()
        least: dict[int, float] = {}  # atoms asked -> least product
        budget = MAX_BINDINGS
        for has_or, masks, _ in self._live:
            if has_or:  # hits every term, as asking no atom does
                value = _least_product(masks, selectivity)
                least[0] = min(value, least.get(0, inf))
                continue
            for term in terms:
                choices = [_bits(mask & term) for mask in masks]
                budget -= prod(map(len, choices))
                if budget < 0:
                    return None
                for binding in product(*choices):
                    atoms = sum(1 << bit for bit in set(binding))
                    value = prod((selectivity[bit] for bit in binding),
                                 start=1.0)
                    least[atoms] = min(value, least.get(atoms, inf))
        cheapest: dict[int, float] = {}  # terms hit -> least cost
        for atoms, value in least.items():
            hit = sum(1 << index for index, term in enumerate(terms)
                      if atoms & term == atoms)
            cheapest[hit] = min(price(value), cheapest.get(hit, inf))
        if len(terms) > MAX_COVER_TERMS:
            floor = max(min((cost for hit, cost in cheapest.items()
                             if hit >> index & 1), default=inf)
                        for index in range(len(terms)))
            return floor if floor < inf else None
        cover = solve_dp(len(terms), [
            CoverCandidate(frozenset(_bits(hit)), cost, None)
            for hit, cost in cheapest.items()])
        return None if cover is None else cover.cost

    def refute_by_atom(self) -> bool:
        """Find a minimal term ``T`` and an atom ``x`` of it that no
        query true under exactly ``T`` holds, or exports with the
        projection for a mediator-side σ, and record them as
        :attr:`witness` and :attr:`atom`.  Off when an ``or`` signature
        is live: such a query can hold under ``T`` with atoms outside it."""
        if any(has_or for has_or, _, _ in self._live):
            return False
        for term in self._minimal_terms():
            held, filterable = 0, set()
            for _, masks, exported in self._live:
                if all(mask & term for mask in masks):
                    for mask in masks:
                        held |= mask
                    filterable |= exported
            for bit in _bits(term & ~held):
                if self._leaves[bit].atom.attribute not in filterable:
                    self.witness = conjunction(
                        [self._leaves[index] for index in _bits(term)])
                    self.atom = self._leaves[bit]
                    return True
        return False


def _least_product(masks: list[int], selectivity: list[float]) -> float:
    """Each template bound to its most selective matching atom."""
    return prod((min(selectivity[bit] for bit in _bits(mask))
                 for mask in masks), start=1.0)


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
    live: list[tuple[bool, list[int], frozenset[str]]] = []
    for templates, has_or, nonterminals in table.signatures:
        masks = [matched[index] for index in templates]
        usable = [exports[nt] for nt in nonterminals if wanted <= exports[nt]]
        if all(masks) and usable:
            live.append((has_or, masks, frozenset().union(*usable)))
    witness = None
    for term, term_mask in zip(terms, term_masks):
        for has_or, masks, _ in live:
            # A conjunction holds when every atom does, anything with an
            # ``or`` needs at least one; ``true`` (no masks) always holds.
            if (any if has_or else all)(mask & term_mask for mask in masks):
                break
        else:
            witness = conjunction(term)
            break
    return Certificate(witness, leaves, live, term_masks)
