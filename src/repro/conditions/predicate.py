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
``in``       ``None`` is ``False``         ``t[i] is not None and t[i] in c``
``contains`` non-strings are ``False``,    ``isinstance(t[i], str) and c in t[i].lower()``
             case-insensitive              (``c`` lowered once)
``< <= > >=``  exactly int/float/bool for a  ``t[i] < c``
             numeric ``c``, exactly str
             for a string ``c``
``< <= > >=``  any other class (``None``,    ``Atom.matches``
             str-vs-number, subclasses)
any          constant that is not a str,   ``Atom.matches``
             int, float or bool
===========  ============================  ===========================

The generated source holds positions and the names ``c0, c1, ...``
only; constants are passed as arguments, never spliced into text, and
attribute names never appear.  Compiled code is therefore shared by
every condition of one *shape* (operators, positions, constant kinds):
fresh constants re-bind in a function call instead of re-compiling.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Sequence

from repro.conditions.atoms import Atom, Op
from repro.conditions.tree import Condition

#: A compiled condition as one pass: ``(tuples, g)`` -> the list of
#: ``g(t)`` for every tuple ``t`` satisfying it, in input order.
Kernel = Callable[[Sequence[tuple], Callable[[tuple], tuple]], list]

#: The projection that keeps every attribute: a full slice of a tuple
#: is the tuple itself, at C speed.
KEEP_ALL = itemgetter(slice(None))

#: Distinct condition shapes kept compiled.
MAX_COMPILED_SHAPES = 512

_SCALARS = (str, int, float, bool)
_ORDERED = {Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">="}


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


def _atom_source(atom: Atom, positions: dict[str, int], consts: list) -> str:
    position = positions.get(atom.attribute)
    if position is None:
        return "False"
    value = f"t[{position}]"

    def bind(const) -> str:
        consts.append(const)
        return f"c{len(consts) - 1}"

    op, const = atom.op, atom.value
    if op is Op.IN:
        if all(type(v) in _SCALARS for v in const):
            return f"({value} is not None and {value} in {bind(const)})"
    elif type(const) in _SCALARS:
        if op is Op.EQ:
            return f"{value} == {bind(const)}"
        if op is Op.NE:
            return f"({value} is not None and {value} != {bind(const)})"
        if op is Op.CONTAINS:
            return (f"(isinstance({value}, S) and "
                    f"{bind(const.lower())} in {value}.lower())")
        guard = "is S" if type(const) is str else "in N"
        return (f"({value} {_ORDERED[op]} {bind(const)} "
                f"if {value}.__class__ {guard} else m({bind(atom)}, {value}))")
    return f"m({bind(atom)}, {value})"


def _source(condition: Condition, positions: dict[str, int],
            consts: list) -> str:
    if condition.is_leaf:
        return _atom_source(condition.atom, positions, consts)
    if condition.is_true:
        return "True"
    joiner = " and " if condition.is_and else " or "
    return "(" + joiner.join(
        _source(child, positions, consts) for child in condition.children
    ) + ")"


@lru_cache(maxsize=MAX_COMPILED_SHAPES)
def _binder(source: str, n_consts: int) -> Callable[..., Kernel]:
    """``(c0, c1, ...) -> kernel`` for one generated expression."""
    params = ", ".join(f"c{i}" for i in range(n_consts))
    return eval(f"lambda {params}: lambda ts, g: [g(t) for t in ts if {source}]",
                _NAMESPACE)


def compile_kernel(condition: Condition,
                   attribute_names: Sequence[str]) -> Kernel:
    """``condition`` as one σ-then-``g`` pass over row tuples laid out
    in ``attribute_names`` order: a tuple is kept iff
    ``condition.evaluate`` holds on the corresponding dict (an attribute
    the order lacks is a missing one), and ``g`` maps each kept tuple
    (:data:`KEEP_ALL` for none).
    """
    positions = {name: i for i, name in enumerate(attribute_names)}
    consts: list = []
    source = _source(condition, positions, consts)
    try:
        binder = _binder(source, len(consts))
    except (SyntaxError, RecursionError, MemoryError):
        # Deeper nesting than the Python compiler takes (about 200
        # levels): interpret, as Condition.evaluate always has.
        names = tuple(attribute_names)
        evaluate = condition.evaluate
        return lambda ts, g: [g(t) for t in ts
                              if evaluate(dict(zip(names, t)))]
    return binder(*consts)
