"""Offline compilation of SSDL grammars into token-trie recognizers.

The paper builds the parser for a source *at integration time* so that
``Check(C, R)`` is cheap at planning time.  The Earley recognizer
(:mod:`repro.ssdl.earley`) already amortizes the parser build, but every
Check still runs a chart parse -- and X11 showed that planning (which is
almost entirely Check calls) dominates a cold ask by ~100x.  Following
the knowledge-compilation playbook ("A Knowledge Compilation Map"): pay
*more* at registration time to make the online operation near-free.

The compiled form is a **token trie / DFA over grammar terminals**:

1. The grammar's language is *enumerated* up to a bounded token horizon
   -- for every nonterminal, the exact set of terminal-symbol sequences
   of length <= ``max_tokens`` it derives, computed as a monotone
   fixpoint over the productions.  SSDL grammars are overwhelmingly
   finite (form rules are fixed conjunctions; commutation closure only
   multiplies alternatives), and the recursive ones (``size_list``-style
   lists) grow strictly with each recursion, so the bounded enumeration
   is exact for every condition that fits the horizon.
2. The sequences of *all* condition nonterminals are merged into one
   acyclic automaton whose construction memoizes shared suffixes (a
   DAWG): accepting states carry the set of condition nonterminals that
   accept there, so one walk answers "which nonterminals match" -- the
   whole Check result -- at once.
3. Matching a condition is then a walk over its token stream.  Edges
   are bucketed per state: keyword edges are an exact dict lookup,
   template edges are keyed by ``(attribute, op)`` with only the
   constant class left to test.  Overlapping templates (a ``$str``
   class *and* a ``'sedan'`` literal) make the walk a small state-set
   simulation rather than a strict DFA step; in practice the frontier
   stays at a handful of states.

Compilation is **budgeted**: a grammar whose enumeration exceeds
``max_sequences`` (deeply ambiguous closures, adversarial recursion)
is not compiled, and a condition longer than the horizon cannot be
answered -- both cases fall back to the Earley recognizer, and
:class:`~repro.ssdl.description.SourceDescription` records the
``ssdl.check.fallback`` metric so the tradeoff is observable.

Everything here is immutable after :func:`compile_productions` returns,
so a compiled checker is safe to share across threads with no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.ssdl.symbols import (
    ConstClass,
    Keyword,
    KeywordSym,
    NT,
    Symbol,
    Template,
    Token,
)

#: Longest token stream the compiled form answers exactly.  32 tokens
#: covers the E3 mix's 8-atom trees *including* the outer-paren wrapped
#: form (+2 tokens); longer conditions fall back to Earley.
DEFAULT_MAX_TOKENS = 32

#: Budget on enumerated terminal sequences across the whole grammar.
#: Exceeding it abandons compilation (the grammar stays Earley-only).
DEFAULT_MAX_SEQUENCES = 20_000


@dataclass(frozen=True)
class CompilationReport:
    """What compiling one description produced (or why it did not)."""

    compiled: bool
    reason: str = ""
    #: Distinct terminal sequences enumerated across all nonterminals.
    sequences: int = 0
    #: States in the suffix-shared automaton.
    states: int = 0
    #: Token horizon the compiled form answers exactly.
    horizon: int = 0

    def __str__(self) -> str:  # pragma: no cover - debug aid
        if not self.compiled:
            return f"not compiled ({self.reason})"
        return (
            f"compiled: {self.sequences} sequences, {self.states} states, "
            f"horizon {self.horizon}"
        )


class _BudgetExceeded(Exception):
    """Internal: the enumeration outgrew ``max_sequences``."""


class _Node:
    """One automaton state: bucketed out-edges plus accepting labels."""

    __slots__ = ("keyword_edges", "atom_edges", "accepts")

    def __init__(
        self,
        keyword_edges: dict[Keyword, "_Node"],
        atom_edges: dict[tuple[str, object], tuple[tuple[object, "_Node"], ...]],
        accepts: frozenset[str],
    ):
        self.keyword_edges = keyword_edges
        self.atom_edges = atom_edges
        self.accepts = accepts


class CompiledChecker:
    """The compiled recognizer: one walk answers every condition NT.

    :meth:`match` returns the set of condition nonterminals accepting
    the token stream, or ``None`` when the stream is longer than the
    compiled horizon (the caller must fall back to Earley).
    """

    __slots__ = ("_root", "report")

    def __init__(self, root: _Node, report: CompilationReport):
        self._root = root
        self.report = report

    @property
    def horizon(self) -> int:
        return self.report.horizon

    def match(self, tokens: Sequence[Token]) -> frozenset[str] | None:
        """Condition nonterminals accepting ``tokens`` (None = too long)."""
        if len(tokens) > self.report.horizon:
            return None
        states: list[_Node] = [self._root]
        for token in tokens:
            next_states: list[_Node] = []
            if isinstance(token, Keyword):
                for state in states:
                    child = state.keyword_edges.get(token)
                    if child is not None:
                        next_states.append(child)
            else:
                atom = token.atom
                bucket = (atom.attribute, atom.op)
                value = atom.value
                for state in states:
                    for constant, child in state.atom_edges.get(bucket, ()):
                        if (
                            constant.admits(value)
                            if isinstance(constant, ConstClass)
                            else constant == value
                        ):
                            next_states.append(child)
            if not next_states:
                return frozenset()
            if len(next_states) > 1:
                # Suffix sharing can converge distinct frontier states
                # onto one node; dedupe to keep the frontier minimal.
                seen: set[int] = set()
                states = [
                    s for s in next_states
                    if id(s) not in seen and not seen.add(id(s))  # type: ignore[func-returns-value]
                ]
            else:
                states = next_states
        accepted: frozenset[str] = frozenset()
        for state in states:
            accepted |= state.accepts
        return accepted


# ----------------------------------------------------------------------
# Enumeration: the bounded language of every nonterminal
# ----------------------------------------------------------------------

def _intern_terminals(
    productions: Mapping[str, Sequence[Sequence[Symbol]]],
) -> tuple[dict[str, list[tuple]], list]:
    """The productions with every terminal replaced by a small int, and
    the terminals those ints index (keywords as :class:`Keyword`).

    Enumeration and automaton construction hash the same few terminals
    hundreds of thousands of times inside sequence tuples; a
    ``Template`` hash is a Python-level dataclass hash over an Enum, an
    int's is free.  Ids follow first appearance in ``productions``, so
    they -- and every set order below -- are the same on every run.
    """
    ids: dict[object, int] = {}
    encoded = {
        head: [
            tuple(
                symbol if isinstance(symbol, NT) else ids.setdefault(
                    symbol.keyword if isinstance(symbol, KeywordSym)
                    else symbol, len(ids))
                for symbol in alternative
            )
            for alternative in alternatives
        ]
        for head, alternatives in productions.items()
    }
    return encoded, list(ids)


def _enumerate_languages(
    productions: Mapping[str, Sequence[Sequence[NT | int]]],
    max_tokens: int,
    max_sequences: int,
) -> dict[str, set[tuple[int, ...]]]:
    """For each nonterminal, all terminal sequences of length <= horizon
    (terminals as interned ints).

    A monotone fixpoint: each pass re-expands every alternative against
    the languages known so far; convergence is guaranteed because the
    sets only grow and are bounded by the (finite) sequences over the
    grammar's terminal alphabet up to ``max_tokens``.  The result is
    *exact* for the bounded language: a sequence of length <= horizon is
    derivable iff it appears (concatenation never shrinks, so pruning
    overlong partials loses only overlong sentences).
    """
    languages: dict[str, set[tuple[int, ...]]] = {
        head: set() for head in productions
    }
    total = 0
    changed = True
    while changed:
        changed = False
        for head, alternatives in productions.items():
            known = languages[head]
            for alternative in alternatives:
                for sequence in _expand(
                    alternative, languages, max_tokens, max_sequences
                ):
                    if sequence not in known:
                        known.add(sequence)
                        total += 1
                        if total > max_sequences:
                            raise _BudgetExceeded(
                                f"more than {max_sequences} sequences"
                            )
                        changed = True
    return languages


def _expand(
    alternative: Sequence[NT | int],
    languages: dict[str, set[tuple[int, ...]]],
    max_tokens: int,
    max_sequences: int,
) -> list[tuple[int, ...]]:
    """All bounded terminal sequences of one alternative, given the
    currently known sub-languages."""
    partials: list[tuple[int, ...]] = [()]
    for symbol in alternative:
        if isinstance(symbol, NT):
            expansions = languages[symbol.name]
            if not expansions:
                return []
            grown: list[tuple[int, ...]] = []
            for partial in partials:
                room = max_tokens - len(partial)
                for suffix in expansions:
                    if len(suffix) <= room:
                        grown.append(partial + suffix)
                if len(grown) > max_sequences:
                    raise _BudgetExceeded(
                        f"more than {max_sequences} partial expansions"
                    )
            partials = grown
        else:
            partials = [
                partial + (symbol,)
                for partial in partials
                if len(partial) < max_tokens
            ]
        if not partials:
            return []
    return partials


# ----------------------------------------------------------------------
# Automaton construction with shared-suffix memoization
# ----------------------------------------------------------------------

def _build_automaton(
    tagged: dict[tuple[int, ...], frozenset[str]],
    terminals: Sequence[Keyword | Template],
) -> tuple[_Node, int]:
    """Merge tagged sequences into a suffix-shared acyclic automaton."""
    memo: dict[frozenset, _Node] = {}
    counter = [0]

    def build(items: frozenset) -> _Node:
        cached = memo.get(items)
        if cached is not None:
            return cached
        accepts: frozenset[str] = frozenset()
        buckets: dict[int, list[tuple[tuple[int, ...], frozenset[str]]]] = {}
        for sequence, tags in items:
            if not sequence:
                accepts |= tags
                continue
            buckets.setdefault(sequence[0], []).append((sequence[1:], tags))
        keyword_edges: dict[Keyword, _Node] = {}
        atom_buckets: dict[tuple[str, object], list[tuple[object, _Node]]] = {}
        for first_id, rest in buckets.items():
            child = build(frozenset(rest))
            first = terminals[first_id]
            if isinstance(first, Keyword):
                keyword_edges[first] = child
            else:
                assert isinstance(first, Template)
                atom_buckets.setdefault((first.attribute, first.op), []).append(
                    (first.constant, child)
                )
        node = _Node(
            keyword_edges,
            {key: tuple(edges) for key, edges in atom_buckets.items()},
            accepts,
        )
        memo[items] = node
        counter[0] += 1
        return node

    root = build(frozenset(tagged.items()))
    return root, counter[0]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def compile_productions(
    productions: Mapping[str, Sequence[Sequence[Symbol]]],
    condition_nonterminals: Sequence[str],
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> tuple[CompiledChecker | None, CompilationReport]:
    """Compile a grammar into a :class:`CompiledChecker`.

    Returns ``(checker, report)``; ``checker`` is ``None`` when the
    enumeration exceeded ``max_sequences`` (the report says why), in
    which case callers keep using the Earley recognizer.
    """
    encoded, terminals = _intern_terminals(productions)
    try:
        languages = _enumerate_languages(encoded, max_tokens, max_sequences)
    except _BudgetExceeded as exc:
        return None, CompilationReport(compiled=False, reason=str(exc))
    tagged: dict[tuple[int, ...], frozenset[str]] = {}
    total = 0
    for nonterminal in condition_nonterminals:
        for sequence in languages[nonterminal]:
            existing = tagged.get(sequence, frozenset())
            tagged[sequence] = existing | {nonterminal}
        total += len(languages[nonterminal])
    root, states = _build_automaton(tagged, terminals)
    report = CompilationReport(
        compiled=True,
        sequences=total,
        states=states,
        horizon=max_tokens,
    )
    return CompiledChecker(root, report), report
