"""The mediator plan algebra (Section 3).

A mediator query plan consists of source queries ``SP(C, A, R)`` plus
postprocessing at the mediator: selection, projection, union and
intersection.  We also carry the paper's **Choice** operator
(Section 5.3): a node standing for a set of alternative plans, resolved
later by the cost module.

Plan nodes are immutable and hashable.  ``None`` plays the role of the
paper's ∅ ("no feasible plan") throughout the planners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.conditions.tree import TRUE, Condition
from repro.errors import PlanExecutionError


class Plan:
    """Abstract base of all plan nodes."""

    __slots__ = ()

    #: Output attributes of the plan (set by subclasses as a property).
    @property
    def attributes(self) -> frozenset[str]:
        raise NotImplementedError

    @property
    def children(self) -> tuple["Plan", ...]:
        return ()

    def source_queries(self) -> Iterator["SourceQuery"]:
        """All source-query leaves of this plan (Choice branches included)."""
        for child in self.children:
            yield from child.source_queries()

    def sources(self) -> frozenset[str]:
        """Names of every source this plan (or any Choice branch) touches.

        Failover uses this to skip alternatives that depend on a source
        already known to be down.
        """
        return frozenset(sq.source for sq in self.source_queries())

    @property
    def is_concrete(self) -> bool:
        """True when no Choice node remains anywhere in the plan."""
        return all(child.is_concrete for child in self.children)

    def describe(self, indent: int = 0) -> str:
        """A readable multi-line rendering (see also plans.printer)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class SourceQuery(Plan):
    """``SP(condition, attributes, source)`` executed *at the source*."""

    condition: Condition
    attrs: frozenset[str]
    source: str

    @classmethod
    def _trusted(cls, condition: Condition, attrs: frozenset[str],
                 source: str) -> "SourceQuery":
        """``SourceQuery(condition, attrs, source)`` built the way the
        template store rebinds one: fields set, nothing run."""
        node = object.__new__(cls)
        node.__dict__.update(condition=condition, attrs=attrs, source=source)
        return node

    @property
    def attributes(self) -> frozenset[str]:
        return self.attrs

    def source_queries(self) -> Iterator["SourceQuery"]:
        yield self

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        return (
            f"{pad}SourceQuery[{self.source}]({self.condition} "
            f"-> {{{', '.join(sorted(self.attrs))}}})"
        )


@dataclass(frozen=True)
class Postprocess(Plan):
    """``SP(condition, attributes, input)`` evaluated *at the mediator*.

    Applies σ_condition then π_attributes to the input plan's result --
    the paper's nested-SP notation, e.g.
    ``SP(n2, A, SP(n1, A ∪ Attr(n2), R))``.
    """

    condition: Condition
    attrs: frozenset[str]
    input: Plan

    def __post_init__(self) -> None:
        needed = frozenset().union(
            self.attrs, () if self.condition.is_true else self.condition.attributes()
        )
        missing = needed - self.input.attributes
        if missing:
            raise PlanExecutionError(
                f"postprocessing needs attributes {sorted(missing)} that the "
                f"input plan does not produce"
            )

    @classmethod
    def _trusted(cls, condition: Condition, attrs: frozenset[str],
                 input: Plan) -> "Postprocess":
        """``Postprocess(condition, attrs, input)`` without the attribute
        check, for a rebinding of a checked node: the same attributes
        over an input that produces the same ones."""
        node = object.__new__(cls)
        node.__dict__.update(condition=condition, attrs=attrs, input=input)
        return node

    @property
    def attributes(self) -> frozenset[str]:
        return self.attrs

    @property
    def children(self) -> tuple[Plan, ...]:
        return (self.input,)

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        cond = "true" if self.condition.is_true else str(self.condition)
        return (
            f"{pad}Postprocess(σ {cond} ; π {{{', '.join(sorted(self.attrs))}}})\n"
            + self.input.describe(indent + 1)
        )


class _Combination(Plan):
    """Shared base of Union / Intersect (same-attribute n-ary nodes)."""

    __slots__ = ("_children", "_hash")
    op_name = ""

    def __init__(self, children: Sequence[Plan]):
        children = tuple(children)
        if len(children) < 2:
            raise PlanExecutionError(
                f"{self.op_name} requires at least two inputs, got {len(children)}"
            )
        first = children[0].attributes
        for child in children[1:]:
            if child.attributes != first:
                raise PlanExecutionError(
                    f"{self.op_name} inputs must produce the same attributes: "
                    f"{sorted(first)} vs {sorted(child.attributes)}"
                )
        object.__setattr__(self, "_children", children)

    def __setattr__(self, name, value):
        raise AttributeError("plan nodes are immutable")

    @property
    def attributes(self) -> frozenset[str]:
        return self._children[0].attributes

    @property
    def children(self) -> tuple[Plan, ...]:
        return self._children

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.op_name}"]
        lines.extend(child.describe(indent + 1) for child in self._children)
        return "\n".join(lines)

    def _key(self):
        return (self.op_name, self._children)

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h


class UnionPlan(_Combination):
    """Mediator union of same-attribute sub-results (∪)."""

    __slots__ = ()
    op_name = "Union"


class IntersectPlan(_Combination):
    """Mediator intersection of same-attribute sub-results (∩)."""

    __slots__ = ()
    op_name = "Intersect"


class ChoicePlan(_Combination):
    """The paper's Choice operator: alternative plans for the same query.

    Usually resolved before execution by the cost module
    (:func:`repro.plans.cost.resolve`).  An executor built with a
    ``cost_model`` resolves one at run time instead: it runs the
    cheapest alternative and fails over to the others in cost order.
    An executor without one raises
    :class:`~repro.errors.PlanExecutionError`.
    """

    __slots__ = ()
    op_name = "Choice"

    def __init__(self, alternatives: Sequence[Plan]):
        alternatives = tuple(alternatives)
        if len(alternatives) == 1:
            # A Choice of one is that plan; callers use `make_choice`.
            raise PlanExecutionError("Choice requires at least two alternatives")
        super().__init__(alternatives)

    @property
    def is_concrete(self) -> bool:
        return False


def make_choice(alternatives: Sequence[Plan]) -> Plan | None:
    """Build a Choice, collapsing singletons; None for no alternatives (∅)."""
    alternatives = [p for p in alternatives if p is not None]
    if not alternatives:
        return None
    # Deduplicate identical alternatives.
    unique: list[Plan] = []
    seen: set = set()
    for plan in alternatives:
        if plan not in seen:
            seen.add(plan)
            unique.append(plan)
    if len(unique) == 1:
        return unique[0]
    return ChoicePlan(unique)


def sp(condition: Condition, attributes, input_or_source) -> Plan:
    """The paper's ``SP(C, A, X)``: source query or mediator postprocessing.

    ``X`` a source name (str) gives a :class:`SourceQuery`; ``X`` a plan
    gives mediator postprocessing.  A TRUE condition with unchanged
    attributes collapses to the input plan.
    """
    attrs = frozenset(attributes)
    if isinstance(input_or_source, str):
        return SourceQuery(condition, attrs, input_or_source)
    plan: Plan = input_or_source
    if condition.is_true and attrs == plan.attributes:
        return plan
    return Postprocess(condition, attrs, plan)


def download_plan(condition: Condition, attributes, source: str) -> Plan:
    """The EPG/IPG download option: ``SP(C, A, SP(true, A ∪ Attr(C), R))``."""
    attrs = frozenset(attributes)
    fetch = attrs | (frozenset() if condition.is_true else condition.attributes())
    inner = SourceQuery(TRUE, fetch, source)
    return sp(condition, attrs, inner)
