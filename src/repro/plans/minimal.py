"""Minimal-answer mode: prune subsumed Union branches from a plan.

Disjunctive queries plan into Union nodes, and planners routinely emit
branches whose row sets are *contained* in a sibling's -- the paper's
rewrite space happily produces ``SP(a, ...) ∪ SP(a and b, ...)`` even
though the second branch can never contribute a row the first does not
already return.  Johnson's *Computing only minimal answers in
disjunctive deductive databases* makes the same observation for
disjunctive answers: the non-minimal members of an answer set are
redundant, and computing them is pure waste.  Here the waste is
concrete -- every redundant Union branch is one or more round-trips to
an autonomous Internet source.

:func:`prune_subsumed` removes a Union branch when a sibling *provably*
returns a superset of its rows.  The proof is syntactic and sound, never
complete:

* both branches must be **selection towers** over the *same* source --
  a chain of ``Postprocess`` selections/projections over one
  ``SourceQuery`` (anything containing a nested Union/Intersect/Choice
  is left alone);
* Union already guarantees both branches produce identical output
  attributes, so the row sets are ``π_A(σ_c(R))`` for the two effective
  conditions, and containment reduces to condition implication;
* :func:`condition_implies` decides implication with a sound recursive
  tableau over the connectors plus value-level implication between
  atoms (``price <= 100`` implies ``price <= 200``; ``make = 'BMW'``
  implies ``make != 'Audi'``; ``a in (1, 2)`` implies ``a <= 5``),
  which is :func:`repro.conditions.simplify.implies`.

Because implication is checked on the *bound* constants, pruning is an
execution-time step (:class:`~repro.mediator.Mediator` applies it per
ask under ``minimal_answers=True``): a pruned plan must never be stored
as a template, since rebinding the constants can invalidate the very
implication that justified the prune.
"""

from __future__ import annotations

from repro.conditions.simplify import implies
from repro.conditions.tree import And, Condition
from repro.plans.nodes import (
    ChoicePlan,
    IntersectPlan,
    Plan,
    Postprocess,
    SourceQuery,
    UnionPlan,
)

#: Refuse implication checks beyond this many nodes per side (the check
#: is worst-case quadratic in the tree sizes; plans are tiny in practice).
MAX_IMPLICATION_NODES = 256


def condition_implies(a: Condition, b: Condition) -> bool:
    """Does every row satisfying ``a`` satisfy ``b``?  Sound, incomplete:
    a ``True`` answer is a proof; ``False`` means "could not prove"."""
    if a.size() > MAX_IMPLICATION_NODES or b.size() > MAX_IMPLICATION_NODES:
        return False
    return _implies(a, b)


def _implies(a: Condition, b: Condition) -> bool:
    if b.is_true:
        return True
    if a.is_true:
        return False
    if a.is_or:
        # A disjunction implies b iff every disjunct does.
        return all(_implies(child, b) for child in a.children)
    if b.is_and:
        # a implies a conjunction iff it implies every conjunct.
        return all(_implies(a, child) for child in b.children)
    if b.is_or and any(_implies(a, child) for child in b.children):
        return True
    if a.is_and:
        # A conjunction implies b when some single conjunct already does.
        return any(_implies(child, b) for child in a.children)
    if a.is_leaf and b.is_leaf:
        return implies(a.atom, b.atom)
    return False


# ----------------------------------------------------------------------
# Branch profiles and Union pruning
# ----------------------------------------------------------------------

def branch_profile(plan: Plan) -> tuple[str, Condition] | None:
    """``(source, effective condition)`` of a selection tower, or None.

    A tower is a chain of Postprocess nodes over one SourceQuery; its
    row set is ``π_A(σ_c(R))`` where ``c`` conjoins every condition on
    the chain (Postprocess guarantees each condition's attributes are
    available where it is applied, so σ/π commute into this form).
    """
    conditions: list[Condition] = []
    node = plan
    while isinstance(node, Postprocess):
        if not node.condition.is_true:
            conditions.append(node.condition)
        node = node.input
    if not isinstance(node, SourceQuery):
        return None
    if not node.condition.is_true:
        conditions.append(node.condition)
    if not conditions:
        from repro.conditions.tree import TRUE

        return node.source, TRUE
    if len(conditions) == 1:
        return node.source, conditions[0]
    return node.source, And(conditions)


def branch_subsumes(keeper: Plan, candidate: Plan) -> bool:
    """Is ``candidate``'s row set provably contained in ``keeper``'s?

    Union guarantees equal output attributes, so containment holds when
    both are towers over one source and the candidate's effective
    condition implies the keeper's.
    """
    kept = branch_profile(keeper)
    cand = branch_profile(candidate)
    if kept is None or cand is None or kept[0] != cand[0]:
        return False
    return condition_implies(cand[1], kept[1])


def prune_subsumed(plan: Plan) -> tuple[Plan, int]:
    """A row-set-equivalent plan with subsumed Union branches removed.

    Returns ``(pruned_plan, branches_dropped)``; the input plan is
    untouched (plan nodes are immutable), and nodes are rebuilt only on
    the paths where something was actually dropped.
    """
    dropped = [0]
    pruned = _prune(plan, dropped)
    return pruned, dropped[0]


def _prune(plan: Plan, dropped: list[int]) -> Plan:
    if isinstance(plan, SourceQuery):
        return plan
    if isinstance(plan, Postprocess):
        inner = _prune(plan.input, dropped)
        if inner is plan.input:
            return plan
        return Postprocess(plan.condition, plan.attrs, inner)
    if isinstance(plan, (IntersectPlan, ChoicePlan)):
        children = [_prune(child, dropped) for child in plan.children]
        if all(new is old for new, old in zip(children, plan.children)):
            return plan
        return type(plan)(children)
    if isinstance(plan, UnionPlan):
        children = [_prune(child, dropped) for child in plan.children]
        kept = _minimal_branches(children, dropped)
        if len(kept) == 1:
            return kept[0]
        if len(kept) == len(plan.children) and all(
            new is old for new, old in zip(kept, plan.children)
        ):
            return plan
        return UnionPlan(kept)
    return plan


def _minimal_branches(children: list[Plan], dropped: list[int]) -> list[Plan]:
    """The minimal sub-list of Union branches covering the same rows.

    A branch goes when a *different* branch provably covers it; between
    mutually-subsuming (equivalent) branches the earliest survives, so
    the result never empties and is deterministic in the input order.
    """
    kept: list[Plan] = []
    for index, child in enumerate(children):
        redundant = False
        for other_index, other in enumerate(children):
            if other_index == index:
                continue
            if branch_subsumes(other, child) and (
                other_index < index or not branch_subsumes(child, other)
            ):
                redundant = True
                break
        if redundant:
            dropped[0] += 1
        else:
            kept.append(child)
    return kept
