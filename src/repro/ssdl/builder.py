"""Programmatic construction of SSDL descriptions.

The workload generator and the tests build many descriptions; this
builder offers a fluent API on top of the textual rule syntax::

    desc = (
        DescriptionBuilder("cars")
        .rule("s1", "make = $str and price < $num",
              attributes=["make", "model", "year", "color"])
        .rule("s2", "make = $str and color = $str",
              attributes=["make", "model", "year"])
        .build()
    )
"""

from __future__ import annotations

from repro.errors import SSDLError
from repro.ssdl.description import SourceDescription
from repro.ssdl.symbols import Symbol
from repro.ssdl.text import _lex_rhs, _parse_alternative


class DescriptionBuilder:
    """Accumulates condition rules and helper rules, then builds."""

    def __init__(self, name: str = ""):
        self.name = name
        self._condition_nts: list[str] = []
        self._productions: dict[str, list[tuple[Symbol, ...]]] = {}
        self._attributes: dict[str, list[str]] = {}

    def rule(self, nt: str, rhs: str, attributes: list[str] | None = None
             ) -> "DescriptionBuilder":
        """Add a condition nonterminal with its rule(s) and export set.

        ``rhs`` uses the textual SSDL syntax and may contain ``|`` for
        alternatives.  Calling ``rule`` again with the same ``nt``
        appends alternatives and attributes.
        """
        if nt not in self._condition_nts:
            self._condition_nts.append(nt)
        self._add_production(nt, rhs)
        if attributes:
            self._attributes.setdefault(nt, []).extend(attributes)
        return self

    def helper(self, nt: str, rhs: str) -> "DescriptionBuilder":
        """Add a helper nonterminal (no attribute association)."""
        if nt in self._condition_nts:
            raise SSDLError(f"{nt!r} is already a condition nonterminal")
        self._add_production(nt, rhs)
        return self

    def _add_production(self, nt: str, rhs: str) -> None:
        tokens = _lex_rhs(rhs, line_no=0)
        alternatives: list[list[tuple[str, str]]] = [[]]
        for token in tokens:
            if token[0] == "alt":
                alternatives.append([])
            else:
                alternatives[-1].append(token)
        parsed = [_parse_alternative(alt, line_no=0) for alt in alternatives]
        self._productions.setdefault(nt, []).extend(parsed)

    def build(self) -> SourceDescription:
        """Validate and return the :class:`SourceDescription`."""
        missing = [nt for nt in self._condition_nts if nt not in self._attributes]
        if missing:
            raise SSDLError(
                "condition nonterminals without attribute sets: "
                + ", ".join(missing)
            )
        return SourceDescription(
            condition_nonterminals=self._condition_nts,
            productions=self._productions,
            attributes=self._attributes,
            name=self.name,
        )
