"""The SSDL source description: the paper's triplet ⟨S, G, A⟩ (Section 4).

* ``S`` -- the condition nonterminals (the alternatives of the implicit
  start symbol ``s``);
* ``G`` -- the CFG productions describing acceptable condition
  expressions;
* ``A`` -- for each condition nonterminal, the set of attributes the
  source exports when a query parses under it.

:meth:`SourceDescription.check` implements the paper's ``Check(C, R)``
function.  One deliberate generalization (documented in DESIGN.md): a
condition may parse under *several* condition nonterminals, each with a
different export set; :class:`CheckResult` therefore carries the family
of exportable attribute sets, and a source query ``SP(C, A, R)`` is
supported iff some member of the family contains ``A``.  With a single
matching nonterminal this is exactly the paper's definition.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.cache import BoundedCache
from repro.conditions.atoms import Atom, Op
from repro.conditions.tree import Condition
from repro.errors import GrammarError
from repro.observability.metrics import get_metrics
from repro.ssdl.compiled import (
    DEFAULT_MAX_SEQUENCES,
    DEFAULT_MAX_TOKENS,
    CompilationReport,
    CompiledChecker,
    SignatureTable,
    compile_productions,
)
from repro.ssdl.earley import EarleyRecognizer
from repro.ssdl.symbols import (
    ConstClass,
    Keyword,
    Symbol,
    Template,
    tokenize_condition,
)


@dataclass(frozen=True)
class CheckResult:
    """Result of ``Check(C, R)``.

    ``attribute_sets`` is the family of attribute sets exportable for the
    condition (one per matching condition nonterminal, deduplicated);
    ``matched`` names the matching condition nonterminals.  An empty
    family means the condition is not supported at all.
    """

    attribute_sets: frozenset[frozenset[str]]
    matched: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.attribute_sets)

    def supports(self, attributes: Iterable[str]) -> bool:
        """Is ``SP(C, attributes, R)`` a supported source query?"""
        wanted = frozenset(attributes)
        for exported in self.attribute_sets:
            if wanted <= exported:
                return True
        return False

    @property
    def exported(self) -> frozenset[str]:
        """The union of exportable attributes (the paper's single set when
        only one nonterminal matches; an over-approximation otherwise)."""
        out: frozenset[str] = frozenset()
        for attrs in self.attribute_sets:
            out |= attrs
        return out

    def best_set_for(self, attributes: Iterable[str]) -> frozenset[str] | None:
        """A smallest exportable set containing ``attributes``, or None."""
        wanted = frozenset(attributes)
        candidates = [s for s in self.attribute_sets if wanted <= s]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (len(s), sorted(s)))


#: The empty Check result (condition not supported).
EMPTY_CHECK = CheckResult(frozenset())

#: Bound of every description's Check cache (LRU): a description
#: fielding an unbounded stream of distinct conditions holds a bounded
#: number of results.  The hits are reuse within one planning run, so
#: the bound is sized for that: X18 reads the same hit ratio at 2 048 as
#: at 8 192 on all five workloads.
CHECK_CACHE_ENTRIES = 2048


class SourceDescription:
    """An SSDL description ⟨S, G, A⟩ with a prebuilt recognizer and cache.

    Parameters
    ----------
    condition_nonterminals:
        The paper's S -- names of the start alternatives, in order.
    productions:
        The paper's G -- every nonterminal's alternatives (must include
        each condition nonterminal; helper nonterminals are allowed and
        carry no attribute sets, per Section 4).
    attributes:
        The paper's A -- exported attribute set per condition nonterminal.
    name:
        Optional label used in error messages.
    """

    def __init__(
        self,
        condition_nonterminals: Sequence[str],
        productions: Mapping[str, Sequence[Sequence[Symbol]]],
        attributes: Mapping[str, Iterable[str]],
        name: str = "",
    ):
        self.name = name
        self.condition_nonterminals = tuple(condition_nonterminals)
        self.productions: dict[str, tuple[tuple[Symbol, ...], ...]] = {
            head: tuple(tuple(alt) for alt in alts)
            for head, alts in productions.items()
        }
        self.attributes: dict[str, frozenset[str]] = {
            nt: frozenset(attrs) for nt, attrs in attributes.items()
        }
        self._validate()
        self._recognizer = EarleyRecognizer(self.productions)
        #: (attribute, op) -> (constant classes, literal constants) of the
        #: grammar's template terminals: what :meth:`atom_matchable` probes.
        self._template_index = self._index_templates()
        #: condition -> CheckResult, bounded at :data:`CHECK_CACHE_ENTRIES`.
        self._cache = BoundedCache(CHECK_CACHE_ENTRIES)
        #: Guards the counters: Check is called from the parallel
        #: executor's worker threads and the serving layer at once, and
        #: an unguarded ``+= 1`` under free threading would lose updates.
        self._cache_lock = threading.Lock()
        #: The compiled token-trie checker (None until :meth:`compile`,
        #: or when compilation exceeded its budget).
        self._compiled: CompiledChecker | None = None
        #: The report of the last :meth:`compile` attempt.
        self.compilation: CompilationReport | None = None
        #: Number of Check invocations that missed the cache (stats hook).
        self.check_calls = 0
        #: Cache-missing Checks answered by the compiled recognizer.
        self.check_compiled = 0
        #: Cache-missing Checks that fell back to Earley although a
        #: compiled form exists (condition longer than the horizon of an
        #: incomplete enumeration).
        self.check_fallbacks = 0
        #: Cache-missing Checks answered ∅ before either recognizer ran:
        #: the condition holds an atom no template can match.
        self.check_prefiltered = 0
        #: Does ``Check`` see each connector node's children only as a
        #: multiset?  Set by :func:`~repro.ssdl.commute.commutation_closure`
        #: from a syntactic test; False for any other description.
        self.order_free = False

    def _validate(self) -> None:
        if not self.condition_nonterminals:
            raise GrammarError("a description needs at least one condition nonterminal")
        for nt in self.condition_nonterminals:
            if nt not in self.productions:
                raise GrammarError(f"condition nonterminal {nt!r} has no productions")
            if nt not in self.attributes:
                raise GrammarError(
                    f"condition nonterminal {nt!r} has no attribute association"
                )
        for nt in self.attributes:
            if nt not in self.condition_nonterminals:
                raise GrammarError(
                    f"attribute association for {nt!r}, which is not a condition "
                    "nonterminal (Section 4 associates attributes only with "
                    "condition nonterminals)"
                )

    # ------------------------------------------------------------------
    def compile(
        self,
        max_tokens: int = DEFAULT_MAX_TOKENS,
        max_sequences: int = DEFAULT_MAX_SEQUENCES,
    ) -> CompilationReport:
        """Compile the grammar into a token-trie recognizer (offline).

        The registration-time analogue of the paper's build-the-parser
        step, pushed further per the knowledge-compilation tradeoff:
        after a successful compile, :meth:`check` walks the token
        stream instead of running an Earley parse.  Grammars exceeding
        the budget (and conditions longer than an incomplete horizon)
        keep using the Earley recognizer; the report says which
        happened.
        """
        checker, report = compile_productions(
            self.productions,
            self.condition_nonterminals,
            max_tokens=max_tokens,
            max_sequences=max_sequences,
        )
        if not report.compiled:
            get_metrics().counter("ssdl.compile.budget_exceeded").inc()
        self._compiled = checker
        self.compilation = report
        return report

    def invalidate_compiled(self) -> None:
        """Drop the compiled form (capabilities changed): Check falls
        back to the Earley recognizer until :meth:`compile` runs again."""
        self._compiled = None
        self.compilation = None

    @property
    def compiled(self) -> bool:
        """Is a compiled recognizer active?"""
        return self._compiled is not None

    @property
    def signatures(self) -> SignatureTable | None:
        """The compiled signature table: every sentence of the grammar
        by template multiset.  None unless a compiled form exists *and*
        its enumeration was complete -- an uncompiled, over-budget or
        recursive grammar certifies nothing."""
        compiled = self._compiled
        return None if compiled is None else compiled.signatures

    def _index_templates(
        self,
    ) -> dict[tuple[str, Op], tuple[tuple[ConstClass, ...], tuple]]:
        index: dict[tuple[str, Op], tuple[list, list]] = {}
        for alternatives in self.productions.values():
            for alternative in alternatives:
                for symbol in alternative:
                    if not isinstance(symbol, Template):
                        continue
                    classes, literals = index.setdefault(
                        (symbol.attribute, symbol.op), ([], []))
                    constant = symbol.constant
                    bucket = classes if isinstance(constant, ConstClass) else literals
                    if constant not in bucket:
                        bucket.append(constant)
        return {
            key: (tuple(classes), tuple(literals))
            for key, (classes, literals) in index.items()
        }

    def atom_matchable(self, atom: Atom) -> bool:
        """Can some template terminal of the grammar match ``atom``?

        The same test as :meth:`Template.matches`, against an index
        built with the description.  An atom token is only ever matched
        by a template, so a condition holding an unmatchable atom has no
        derivation under any nonterminal: ``Check`` is ∅ for it, and for
        every condition containing it.
        """
        entry = self._template_index.get((atom.attribute, atom.op))
        if entry is None:
            return False
        classes, literals = entry
        value = atom.value
        for const_class in classes:
            if const_class.admits(value):
                return True
        return value in literals

    def literal_free(self, atoms: Iterable[Atom]) -> bool:
        """Does no literal template (``style = 'sedan'``) share an atom's
        ``(attribute, op)``?  Then every template that can match one of
        these atoms is a constant class, and ``Check`` of a condition
        over them depends on each constant only through the classes
        admitting it."""
        index = self._template_index
        for atom in atoms:
            entry = index.get((atom.attribute, atom.op))
            if entry is not None and entry[1]:
                return False
        return True

    def check(self, condition: Condition) -> CheckResult:
        """The paper's ``Check(C, R)``: exportable attributes for ``C``.

        Results are cached (bounded LRU) per condition tree; the
        recognizer itself was built when the description was
        constructed (the paper's build-parser-at-integration-time
        story), and :meth:`compile` upgrades it to a token-trie walk.
        A condition with an atom no template can match is answered ∅
        without tokenizing it (see :meth:`atom_matchable`).
        """
        cached = self._cache.get(condition)
        if cached is not None:
            return cached
        prefiltered = not all(map(self.atom_matchable, condition.atoms()))
        if prefiltered:
            get_metrics().counter("ssdl.check.prefiltered").inc()
            result = EMPTY_CHECK
        else:
            result = self._recognize(condition)
        with self._cache_lock:
            self.check_calls += 1
            self.check_prefiltered += prefiltered
        self._cache.put(condition, result)
        return result

    def _recognize(self, condition: Condition) -> CheckResult:
        """Run the compiled recognizer, or Earley, over ``condition``."""
        tokens = tokenize_condition(condition)
        # Outer parentheses are semantically transparent: a grammar rule
        # written as a parenthesized group (e.g. ``( size_list )``, usable
        # inside conjunctions) must also accept the same expression when
        # it *is* the whole condition, where the serializer emits no
        # surrounding parens.  So connector conditions are matched both
        # bare and wrapped -- on the compiled path and the Earley path
        # alike (nested connectors are always parenthesized by the
        # serializer, so only the outermost node needs the dual form).
        wrapped: tuple | None = None
        if condition.is_and or condition.is_or:
            wrapped = (Keyword.LPAREN,) + tokens + (Keyword.RPAREN,)
        result = None
        compiled = self._compiled
        if compiled is not None:
            result = self._check_compiled(compiled, tokens, wrapped)
        if result is None:
            if compiled is not None:
                # A compiled form exists but could not answer (condition
                # longer than an incomplete horizon): observable fallback.
                get_metrics().counter("ssdl.check.fallback").inc()
                with self._cache_lock:
                    self.check_fallbacks += 1
            result = self._check_earley(tokens, wrapped)
        return result

    def _check_compiled(
        self,
        compiled: CompiledChecker,
        tokens: tuple,
        wrapped: tuple | None,
    ) -> CheckResult | None:
        """Answer a Check with the compiled recognizer (None = too long)."""
        accepted = compiled.match(tokens)
        if accepted is None:
            return None
        if wrapped is not None:
            wrapped_accepted = compiled.match(wrapped)
            if wrapped_accepted is None:
                return None
            accepted |= wrapped_accepted
        with self._cache_lock:
            self.check_compiled += 1
        if not accepted:
            return EMPTY_CHECK
        matched = tuple(
            nt for nt in self.condition_nonterminals if nt in accepted
        )
        sets = frozenset(self.attributes[nt] for nt in matched)
        return CheckResult(sets, matched)

    def _check_earley(self, tokens: tuple, wrapped: tuple | None) -> CheckResult:
        """Answer a Check with the Earley recognizer (always possible)."""
        matched: list[str] = []
        sets: set[frozenset[str]] = set()
        for nt in self.condition_nonterminals:
            if self._recognizer.accepts(tokens, nt) or (
                wrapped is not None and self._recognizer.accepts(wrapped, nt)
            ):
                matched.append(nt)
                sets.add(self.attributes[nt])
        return CheckResult(frozenset(sets), tuple(matched)) if matched else EMPTY_CHECK

    def supports(self, condition: Condition, attributes: Iterable[str]) -> bool:
        """Is the source query ``SP(condition, attributes, R)`` supported?"""
        return self.check(condition).supports(attributes)

    @property
    def check_cache_hits(self) -> int:
        """Number of Check invocations answered from the cache."""
        return self._cache.stats.hits

    def check_cache_size(self) -> int:
        """How many Check results are currently cached."""
        return len(self._cache)

    # ------------------------------------------------------------------
    def all_attributes(self) -> frozenset[str]:
        """Every attribute exported by any condition nonterminal."""
        out: frozenset[str] = frozenset()
        for attrs in self.attributes.values():
            out |= attrs
        return out

    def templates(self) -> frozenset[Template]:
        """Every atomic-condition template appearing in the grammar."""
        out: set[Template] = set()
        for alts in self.productions.values():
            for alt in alts:
                for symbol in alt:
                    if isinstance(symbol, Template):
                        out.add(symbol)
        return frozenset(out)

    def rule_count(self) -> int:
        """Total number of alternatives across all productions."""
        return sum(len(alts) for alts in self.productions.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or "<anonymous>"
        return (
            f"SourceDescription({label}: {len(self.condition_nonterminals)} "
            f"condition nonterminals, {self.rule_count()} rules)"
        )
