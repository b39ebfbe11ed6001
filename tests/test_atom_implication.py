"""One atom-implication table: :func:`repro.conditions.simplify.implies`
is what simplification, unsatisfiability and minimal-answer pruning all
ask.  A hypothesis battery over mixed-type atom pairs (int, float, bool
and str constants, all eight operators) checks that it is sound against
:meth:`Atom.matches` on a value grid, and that it proves every pair the
minimal-answer module's former table proved (kept in
``tests/reference_atom_implies.py``)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditions.atoms import ORDERED_OPS, Atom, Op
from repro.conditions.simplify import implies
from tests.reference_atom_implies import atom_implies as reference_implies

NUMBERS = (-1, 0, 1, 2, 5, 0.5, 1.0, 2.5)
STRINGS = ("a", "ab", "B", "ba", "dreams", "Dreams of X")
CONSTANTS = NUMBERS + STRINGS + (True, False)

orderable = st.sampled_from(NUMBERS + STRINGS)
constant = st.sampled_from(CONSTANTS)


@st.composite
def atoms(draw, attributes=("x", "x", "x", "y")):
    attribute = draw(st.sampled_from(attributes))
    op = draw(st.sampled_from(list(Op)))
    if op in ORDERED_OPS:
        value = draw(orderable)
    elif op is Op.CONTAINS:
        value = draw(st.sampled_from(STRINGS))
    elif op is Op.IN:
        value = tuple(draw(st.lists(constant, min_size=1, max_size=3)))
    else:
        value = draw(constant)
    return Atom(attribute, op, value)


def _grid(*atoms_: Atom) -> list:
    """Every pool constant, each atom's constants and their neighbours
    (just above and below a number, a longer or recased string)."""
    values = list(CONSTANTS)
    for atom in atoms_:
        members = atom.value if atom.op is Op.IN else (atom.value,)
        for value in members:
            values.append(value)
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                values += [value - 0.5, value + 0.5, value - 1, value + 1]
            else:
                values += [value + "z", "z" + value, value.upper(),
                           value.lower(), value[:-1]]
    return values


@settings(max_examples=600, deadline=None)
@given(atoms(), atoms())
def test_implication_is_sound_on_the_value_grid(premise, conclusion):
    if not implies(premise, conclusion):
        return
    assert premise.attribute == conclusion.attribute
    for value in _grid(premise, conclusion):
        row = {premise.attribute: value}
        assert not premise.matches(row) or conclusion.matches(row), (
            premise, conclusion, value)


@settings(max_examples=600, deadline=None)
@given(atoms(), atoms())
def test_every_pair_the_former_table_proved_is_proved(premise, conclusion):
    if reference_implies(premise, conclusion):
        assert implies(premise, conclusion), (premise, conclusion)


@settings(max_examples=300, deadline=None)
@given(atoms(attributes=("x",)))
def test_every_atom_implies_itself(atom):
    assert implies(atom, atom)
