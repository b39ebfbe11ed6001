"""Condition trees compiled to one select-project pass over row tuples.

:meth:`Condition.evaluate` interprets a tree per row: a method call per
node, a dict probe and an operator dispatch per atom.  The data plane
(:mod:`repro.data.relation`) stores rows as tuples in schema order, so
a condition can instead be translated **once** into one Python
expression over ``t[i]`` -- the same compile-offline,
evaluate-at-query-time move the SSDL token tries make for ``Check``.
The expression is the filter of a *kernel*,
``(tuples, g) -> [g(t) for t in tuples if <expression>]``: σ and the
projection of an ``SP`` query run as one pass with no Python call per
row, and the projection ``g`` (an ``itemgetter``) is an argument, so
it never multiplies the compiled shapes.

:meth:`Atom.matches` stays the one definition of atom semantics.  Each
atom becomes the cheapest expression that is equal to it on the values
it names, and calls it for anything else:

===========  ============================  ===========================
atom         row value                     compiled as
===========  ============================  ===========================
any          attribute not in the order    ``False``
``=``        anything (``None`` never      ``t[i] == c``
             equals a scalar constant)
``!=``       ``None`` is ``False``         ``t[i] is not None and t[i] != c``
``!=``       column proven N or S          ``t[i] != c``
``in``       ``None`` is ``False``         ``t[i] is not None and t[i] in c``
``in``       column proven N or S          ``t[i] in c``
``contains`` non-strings are ``False``,    ``isinstance(t[i], str) and c in t[i].lower()``
             case-insensitive              (``c`` lowered once)
``contains`` column proven S               ``c in t[i].lower()``
``< <= > >=``  exactly int/float/bool for a  ``t[i] < c`` if the class
             numeric ``c``, exactly str    test passes, else
             for a string ``c``            ``Atom.matches``
``< <= > >=``  column proven N (numeric      ``t[i] < c``
             ``c``) or S (string ``c``)
``< <= > >=``  any other class (``None``,    ``Atom.matches``
             str-vs-number, subclasses)
any          constant that is not a str,   ``Atom.matches``
             int, float or bool
===========  ============================  ===========================

A *column proof* (:attr:`repro.data.relation.Relation.column_classes`)
is a fact about the stored rows, checked once when they are built:
:data:`NUMBERS` when every value of a column is exactly an int, float
or bool, :data:`STRINGS` when every value is exactly a str.  Such a
column holds no ``None`` and no subclass, so the "column proven" rows
above drop the guards the other rows pay on every tuple.  The proof is
part of the shape, so an unproven column keeps its guarded text.

The generated source holds positions and the names ``c0, c1, ...``
only; constants are passed as arguments, never spliced into text, and
attribute names never appear.  Compiled code is therefore keyed by the
condition's *shape*: one walk of the tree yields the shape -- per atom
its position and the row of the table above it falls in, per connector
its kind and its children's shapes -- and the constants, in the order
the text binds them.  A hit binds the constants into cached code; only
a miss renders the text, from the shape.  Shape and text determine each
other, so each generated expression is compiled once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.conditions.atoms import Atom
from repro.conditions.tree import TRUE, Condition, Leaf

#: A compiled condition as one pass: ``(tuples, g)`` -> the list of
#: ``g(t)`` for every tuple ``t`` satisfying it, in input order.
Kernel = Callable[[Sequence[tuple], Callable[[tuple], tuple]], list]

#: The projection that keeps every attribute: a full slice of a tuple
#: is the tuple itself, at C speed.
KEEP_ALL = itemgetter(slice(None))

#: Distinct condition shapes kept compiled (and attribute orders kept
#: mapped to positions).
MAX_COMPILED_SHAPES = 512

#: Column proofs: every value of the column is exactly an int, float or
#: bool (:data:`NUMBERS`), or exactly a str (:data:`STRINGS`).
NUMBERS = "N"
STRINGS = "S"

_SCALARS = (str, int, float, bool)


def _matches(atom: Atom, value) -> bool:
    """The reference semantics, for what no fast path covers."""
    return atom.matches({atom.attribute: value})


#: Everything generated code may name besides ``t`` and its constants.
_NAMESPACE = {
    "__builtins__": {},
    "isinstance": isinstance,
    "S": str,
    "N": (int, float, bool),
    "m": _matches,
}

#: An atom's text per variant: ``{v}`` is the row value, ``{c}`` its
#: constant and ``{a}`` the atom itself (bound second).
_TEXT = {
    "=": "{v} == {c}",
    "!=": "({v} is not None and {v} != {c})",
    "in": "({v} is not None and {v} in {c})",
    "contains": "(isinstance({v}, S) and {c} in {v}.lower())",
    "m": "m({c}, {v})",
    "!= proven": "{v} != {c}",
    "in proven": "{v} in {c}",
    "contains proven": "{c} in {v}.lower()",
}
_ORDERED = ("<", "<=", ">", ">=")
#: The ordered variants, by operator text: against a str or a number,
#: and over a column proven to hold the constant's class.
_VS_STR = {op: f"{op} str" for op in _ORDERED}
_VS_NUMBER = {op: f"{op} number" for op in _ORDERED}
_PROVEN = {op: f"{op} proven" for op in _ORDERED}
_TEXT.update({
    f"{op} {kind}":
        f"({{v}} {op} {{c}} if {{v}}.__class__ {guard} else m({{a}}, {{v}}))"
    for op in _ORDERED for kind, guard in (("str", "is S"), ("number", "in N"))
})
_TEXT.update({_PROVEN[op]: f"{{v}} {op} {{c}}" for op in _ORDERED})

#: The shape of an atom over an attribute the order lacks, and of TRUE.
_MISSING = (None, "False")
_TRUE = ("true", ())


def _shape(condition: Condition, columns: dict[str, tuple], consts: list):
    """``condition``'s shape over ``columns`` (attribute -> position and
    column proof), appending its constants to ``consts`` in the order
    :func:`_source` names them."""
    if condition.__class__ is Leaf:
        atom = condition.atom
        column = columns.get(atom.attribute)
        if column is None:
            return _MISSING
        position, proof = column
        # The operator's text, without Enum's Python-level accessors.
        op, const = atom.op._value_, atom.value
        if op == "in":
            if all(type(v) in _SCALARS for v in const):
                consts.append(const)
                return position, ("in proven" if proof else op)
        elif type(const) in _SCALARS:
            if op == "contains":
                consts.append(const.lower())
                return position, ("contains proven" if proof == STRINGS
                                  else op)
            consts.append(const)
            if op == "=":
                return position, op
            if op == "!=":
                return position, ("!= proven" if proof else op)
            kind = STRINGS if type(const) is str else NUMBERS
            if proof == kind:
                return position, _PROVEN[op]
            consts.append(atom)
            return position, (_VS_STR if kind == STRINGS else _VS_NUMBER)[op]
        consts.append(atom)
        return position, "m"
    if condition is TRUE:
        return _TRUE
    return condition.kind, tuple([_shape(child, columns, consts)
                                  for child in condition.children])


def _source(shape, names: Iterator[int]) -> str:
    """The Python expression of ``shape``, its constants named
    ``c{next(names)}`` in binding order."""
    head, rest = shape
    if head == "and" or head == "or":
        return "(" + f" {head} ".join(
            _source(child, names) for child in rest) + ")"
    if head == "true":
        return "True"
    if head is None:
        return "False"
    text = _TEXT[rest]
    fill = {"v": f"t[{head}]", "c": f"c{next(names)}"}
    if "{a}" in text:
        fill["a"] = f"c{next(names)}"
    return text.format(**fill)


@lru_cache(maxsize=MAX_COMPILED_SHAPES)
def _binder(shape) -> Callable[..., Kernel]:
    """``(c0, c1, ...) -> kernel`` for one shape, rendered on a miss."""
    names = count()
    source = _source(shape, names)
    params = ", ".join(f"c{i}" for i in range(next(names)))
    return eval(f"lambda {params}: lambda ts, g: [g(t) for t in ts if {source}]",
                _NAMESPACE)


@lru_cache(maxsize=MAX_COMPILED_SHAPES)
def _columns(attribute_names: tuple[str, ...], proofs: tuple | None,
             positions: tuple[int, ...] | None) -> dict[str, tuple]:
    """Attribute -> (position, column proof)."""
    if proofs is None:
        proofs = (None,) * len(attribute_names)
    if positions is None:
        positions = range(len(attribute_names))
    return {name: (position, proof) for name, position, proof
            in zip(attribute_names, positions, proofs)}


def compile_kernel(condition: Condition, attribute_names: Sequence[str],
                   column_classes: Sequence[str | None] | None = None,
                   positions: Sequence[int] | None = None) -> Kernel:
    """``condition`` as one σ-then-``g`` pass over row tuples laid out
    in ``attribute_names`` order: a tuple is kept iff
    ``condition.evaluate`` holds on the corresponding dict (an attribute
    the order lacks is a missing one), and ``g`` maps each kept tuple
    (:data:`KEEP_ALL` for none).

    ``column_classes`` gives each attribute's column proof
    (:data:`NUMBERS`, :data:`STRINGS` or ``None``); the caller vouches
    that every tuple the kernel sees satisfies it.  ``positions`` places
    the attributes in wider tuples (``attribute_names[i]`` is read at
    ``t[positions[i]]``): the kernel of a view runs over its base's rows
    and still reads an attribute the view dropped as missing.
    """
    consts: list = []
    shape = _shape(condition, _columns(
        tuple(attribute_names),
        None if column_classes is None else tuple(column_classes),
        None if positions is None else tuple(positions)), consts)
    try:
        binder = _binder(shape)
    except (SyntaxError, RecursionError, MemoryError):
        # Deeper nesting than the Python compiler takes (about 200
        # levels): interpret, as Condition.evaluate always has.
        names = tuple(attribute_names)
        where = tuple(range(len(names)) if positions is None else positions)
        evaluate = condition.evaluate
        return lambda ts, g: [
            g(t) for t in ts
            if evaluate({name: t[i] for name, i in zip(names, where)})]
    return binder(*consts)
