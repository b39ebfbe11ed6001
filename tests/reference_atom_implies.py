"""Minimal-answer atom implication as it stood before
``repro.plans.minimal`` delegated to
:func:`repro.conditions.simplify.implies`: the reference
``tests/test_atom_implication.py`` checks the kept function against.

Kept verbatim -- its own ``_ordered`` guard, ``IN`` decomposed into
equalities, ``NE`` implying only itself -- because every pair it proved
is a Union branch minimal-answer mode pruned, and the kept function
must prove it too.
"""

from __future__ import annotations

from repro.conditions.atoms import Atom, Op


def _ordered(a, b) -> bool:
    """Can ``a`` and ``b`` be compared with <= without a TypeError?"""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, str) != isinstance(b, str):
        return False
    return isinstance(a, (int, float, str)) and isinstance(b, (int, float, str))


def atom_implies(a, b) -> bool:
    """Does satisfying atom ``a`` imply satisfying atom ``b``?  Sound:
    only ``True`` when the implication holds for every row."""
    if a == b:
        return True
    if a.attribute != b.attribute:
        return False
    av, bv = a.value, b.value
    if a.op is Op.IN:
        # a in (v1..vk) implies b  iff  every vi (as an equality) does.
        return all(
            atom_implies(Atom(a.attribute, Op.EQ, v), b) for v in av
        )
    if a.op is Op.EQ:
        # The row's value *is* av: evaluate b at av directly.
        if b.op is Op.EQ:
            return av == bv
        if b.op is Op.NE:
            return av != bv
        if b.op is Op.IN:
            return isinstance(bv, tuple) and av in bv
        if b.op is Op.CONTAINS:
            return (
                isinstance(av, str) and isinstance(bv, str)
                and bv.lower() in av.lower()
            )
        if not _ordered(av, bv):
            return False
        return {
            Op.LT: av < bv, Op.LE: av <= bv,
            Op.GT: av > bv, Op.GE: av >= bv,
        }[b.op]
    if a.op in (Op.LT, Op.LE):
        if not _ordered(av, bv):
            return False
        if b.op is Op.LE:
            return av <= bv
        if b.op is Op.LT:
            # v < av <= bv  or  v <= av < bv: both give v < bv.
            return av <= bv if a.op is Op.LT else av < bv
        if b.op is Op.NE:
            # Everything below av is != bv when bv sits at/above the bound.
            return bv > av or (bv == av and a.op is Op.LT)
        return False
    if a.op in (Op.GT, Op.GE):
        if not _ordered(av, bv):
            return False
        if b.op is Op.GE:
            return av >= bv
        if b.op is Op.GT:
            # v > av >= bv  or  v >= av > bv: both give v > bv.
            return av >= bv if a.op is Op.GT else av > bv
        if b.op is Op.NE:
            return bv < av or (bv == av and a.op is Op.GT)
        return False
    if a.op is Op.CONTAINS:
        # "dreams of x" contains-implies every substring of the needle.
        return (
            b.op is Op.CONTAINS
            and isinstance(av, str) and isinstance(bv, str)
            and bv.lower() in av.lower()
        )
    # NE implies nothing but itself (handled by the a == b fast path).
    return False
