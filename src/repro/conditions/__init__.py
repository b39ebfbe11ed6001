"""Condition expressions and condition trees (CTs).

Public surface of the ``repro.conditions`` package:

* :class:`Atom`, :class:`Op` -- atomic conditions.
* :class:`Condition` tree nodes: :class:`Leaf`, :class:`And`, :class:`Or`,
  and the :data:`TRUE` singleton.
* :func:`parse_condition` -- text to tree.
* :func:`canonicalize` / :func:`is_canonical` -- Section 6.4 canonical form.
* :func:`to_cnf` / :func:`to_dnf` -- normal forms for the baseline planners.
* :class:`RewriteEngine` and the rule sets -- Section 5.1 / 6.1.
* :func:`logically_equivalent` -- truth-table equivalence (testing aid).
* :func:`compile_kernel` -- a tree as one select-project pass over row
  tuples.
"""

from repro.conditions.atoms import Atom, Op, Value, format_value, op_from_text
from repro.conditions.canonical import canonicalize, is_canonical
from repro.conditions.normal_forms import cnf_clauses, dnf_terms, to_cnf, to_dnf
from repro.conditions.parser import parse_condition
from repro.conditions.predicate import compile_kernel
from repro.conditions.rewrite import (
    GENCOMPACT_RULES,
    GENMODULAR_RULES,
    RewriteEngine,
    RewriteResult,
    associative_rule,
    commutative_rule,
    copy_rule,
    distributive_rule,
    enumerate_orderings,
    factoring_rule,
)
from repro.conditions.semantics import logically_equivalent
from repro.conditions.simplify import (
    contradicts,
    implies,
    is_definitely_unsatisfiable,
    simplify,
)
from repro.conditions.tree import (
    TRUE,
    And,
    Condition,
    Leaf,
    Or,
    TrueCondition,
    conjunction,
    disjunction,
    leaf,
)

__all__ = [
    "Atom",
    "Op",
    "Value",
    "format_value",
    "op_from_text",
    "Condition",
    "Leaf",
    "And",
    "Or",
    "TRUE",
    "TrueCondition",
    "conjunction",
    "disjunction",
    "leaf",
    "parse_condition",
    "compile_kernel",
    "canonicalize",
    "is_canonical",
    "to_cnf",
    "to_dnf",
    "cnf_clauses",
    "dnf_terms",
    "RewriteEngine",
    "RewriteResult",
    "GENMODULAR_RULES",
    "GENCOMPACT_RULES",
    "commutative_rule",
    "associative_rule",
    "distributive_rule",
    "factoring_rule",
    "copy_rule",
    "enumerate_orderings",
    "logically_equivalent",
    "simplify",
    "implies",
    "contradicts",
    "is_definitely_unsatisfiable",
]
