"""Value-level simplification of condition trees.

The rewrite rules of Section 5.1 are pure Boolean-algebra identities.
This module adds the *value-level* reasoning a production mediator
needs on top: implication and contradiction between atomic conditions
on the same attribute (``price < 10`` implies ``price < 20``;
``make = 'BMW'`` contradicts ``make = 'Toyota'``), and the
simplifications they license:

* dropping implied conjuncts / implying disjuncts,
* absorption (``x OR (x AND y)`` → ``x``),
* duplicate-child elimination,
* sound (but incomplete) unsatisfiability detection, which lets the
  mediator answer provably empty queries without contacting the source.

All transformations preserve logical equivalence on every relation.
"""

from __future__ import annotations

from itertools import combinations

from repro.conditions.atoms import Atom, Op
from repro.conditions.canonical import canonicalize
from repro.conditions.normal_forms import dnf_terms
from repro.conditions.tree import And, Condition, Or
from repro.errors import ConditionError

#: dnf_terms budget for unsatisfiability checking.
_UNSAT_MAX_TERMS = 256
#: The bounding operators (tuples: membership is an identity scan, with
#: no Python-level ``Enum.__hash__`` call).
_UPPER_BOUNDS = (Op.LT, Op.LE)
_LOWER_BOUNDS = (Op.GT, Op.GE)


def _comparable(left, right) -> bool:
    """Can the two constants be ordered meaningfully?"""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, str) != isinstance(right, str):
        return False
    return isinstance(left, (int, float, str)) and isinstance(
        right, (int, float, str)
    )


def implies(premise: Atom, conclusion: Atom) -> bool:
    """Sound, incomplete test: does ``premise`` imply ``conclusion``?

    Only atoms on the same attribute can be related.  Covers the
    order/equality/membership/substring interactions; anything not
    recognized returns False (never unsound).
    """
    if premise.attribute != conclusion.attribute:
        return False
    if premise == conclusion:
        return True
    p_op, c_op = premise.op, conclusion.op
    pv, cv = premise.value, conclusion.value

    # From an equality premise, evaluate the conclusion directly.
    if p_op is Op.EQ:
        return conclusion.matches({conclusion.attribute: pv})

    if p_op is Op.IN:
        # Every member must satisfy the conclusion.
        return all(
            conclusion.matches({conclusion.attribute: member}) for member in pv
        )
    if p_op is Op.CONTAINS and c_op is Op.CONTAINS:
        # Containing a longer needle implies containing any substring
        # of it.
        return cv.lower() in pv.lower()
    if not _comparable(pv, cv):
        # Range reasoning needs comparable constants.
        return False

    try:
        if p_op is Op.LT:
            if c_op in (Op.LT, Op.LE):
                return pv <= cv
            if c_op is Op.NE:
                return cv >= pv
        if p_op is Op.LE:
            if c_op is Op.LE:
                return pv <= cv
            if c_op is Op.LT:
                return pv < cv
            if c_op is Op.NE:
                return cv > pv
        if p_op is Op.GT:
            if c_op is Op.GT:
                return pv >= cv
            if c_op is Op.GE:
                return pv >= cv
            if c_op is Op.NE:
                return cv <= pv
        if p_op is Op.GE:
            if c_op is Op.GE:
                return pv >= cv
            if c_op is Op.GT:
                return pv > cv
            if c_op is Op.NE:
                return cv < pv
        if p_op is Op.NE and c_op is Op.NE:
            return pv == cv
    except TypeError:
        return False
    return False


def contradicts(left: Atom, right: Atom) -> bool:
    """Sound, incomplete test: can no value satisfy both atoms?"""
    if left.attribute != right.attribute:
        return False
    for premise, conclusion in ((left, right), (right, left)):
        if premise.op is Op.EQ and not conclusion.matches(
            {conclusion.attribute: premise.value}
        ):
            return True
        if premise.op is Op.IN and not any(
            conclusion.matches({conclusion.attribute: member})
            for member in premise.value
        ):
            return True
    lv, rv = left.value, right.value
    if not _comparable(lv, rv):
        return False
    try:
        if left.op in _UPPER_BOUNDS and right.op in _LOWER_BOUNDS:
            upper, lower = left, right
        elif left.op in _LOWER_BOUNDS and right.op in _UPPER_BOUNDS:
            upper, lower = right, left
        else:
            return False
        strict = upper.op is Op.LT or lower.op is Op.GT
        if strict:
            return lower.value >= upper.value
        return lower.value > upper.value
    except TypeError:
        return False


def simplify(condition: Condition) -> Condition:
    """An equivalent, usually smaller condition tree.

    Canonicalizes, removes duplicate children, applies absorption, and
    drops conjuncts implied by a sibling (dually, disjuncts that imply a
    sibling).  The result is canonical.
    """
    condition = canonicalize(condition)
    return _simplify(condition)


def _simplify(condition: Condition) -> Condition:
    if not condition.children:
        return condition
    children = [_simplify(child) for child in condition.children]
    # Deduplicate structurally.
    unique: list[Condition] = []
    seen: set[Condition] = set()
    for child in children:
        if child not in seen:
            seen.add(child)
            unique.append(child)
    unique = _absorb(condition, unique)
    unique = _prune_by_implication(condition, unique)
    if len(unique) == 1:
        return unique[0]
    rebuilt = And(unique) if condition.is_and else Or(unique)
    return canonicalize(rebuilt)


def _members(child: Condition, inner_kind: type) -> frozenset[Condition]:
    if isinstance(child, inner_kind):
        return frozenset(child.children)
    return frozenset([child])


def _absorb(parent: Condition, children: list[Condition]) -> list[Condition]:
    """Absorption: under OR, drop (x AND y) when x is a sibling; dually
    under AND, drop (x OR y) when x is a sibling."""
    inner_kind = And if parent.is_or else Or
    atoms_like = set(children)
    kept: list[Condition] = []
    for child in children:
        members = _members(child, inner_kind)
        if len(members) > 1 and any(
            m in atoms_like and m != child for m in members
        ):
            continue
        kept.append(child)
    return kept if kept else children[:1]


def _prune_by_implication(
    parent: Condition, children: list[Condition]
) -> list[Condition]:
    """Under AND drop children implied by a sibling; under OR drop
    children that imply a sibling.  Only leaf-to-leaf implications are
    used (sound and cheap)."""
    drop: set[int] = set()
    for (i, a), (j, b) in combinations(enumerate(children), 2):
        if i in drop or j in drop:
            continue
        if not (a.is_leaf and b.is_leaf):
            continue
        if parent.is_and:
            # a implies b  =>  b is redundant in the conjunction.
            if implies(a.atom, b.atom):
                drop.add(j)
            elif implies(b.atom, a.atom):
                drop.add(i)
        else:
            # a implies b  =>  a is redundant in the disjunction.
            if implies(a.atom, b.atom):
                drop.add(i)
            elif implies(b.atom, a.atom):
                drop.add(j)
    return [c for k, c in enumerate(children) if k not in drop]


def is_definitely_unsatisfiable(condition: Condition) -> bool:
    """True only if the condition provably selects nothing.

    Sound and incomplete: converts to DNF (budgeted) and reports True
    when *every* term contains a contradicting atom pair.  Returns False
    when the DNF budget is exceeded or no contradiction is found.
    """
    if condition.is_true:
        return False
    attributes = [atom.attribute for atom in condition.atoms()]
    if len(set(attributes)) == len(attributes):
        # No attribute twice: no term holds a pair contradicts() can refute.
        return False
    if all(child.is_leaf for child in condition.children):
        # Flat: the DNF is this one term, or one leaf per term.
        if condition.is_or:
            return False
        terms = [condition.children]
    else:
        try:
            terms = dnf_terms(condition, max_terms=_UNSAT_MAX_TERMS)
        except ConditionError:
            return False
    if not terms:
        return False
    for term in terms:
        atoms = [leaf.atom for leaf in term]
        if not any(
            contradicts(a, b) for a, b in combinations(atoms, 2)
        ):
            return False
    return True
