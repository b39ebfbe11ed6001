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
is not compiled, and a condition longer than the horizon of an
incomplete (recursive) enumeration cannot be answered -- both cases
fall back to the Earley recognizer, and
:class:`~repro.ssdl.description.SourceDescription` records the
``ssdl.check.fallback`` metric so the tradeoff is observable.

Everything here is immutable after :func:`compile_productions` returns,
so a compiled checker is safe to share across threads with no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

from repro.conditions.atoms import Atom
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
    #: Did the enumeration reach every sentence of the grammar -- no
    #: partial sentence dropped at the horizon?  False for recursive
    #: (list) grammars, whose language is infinite.
    complete: bool = False
    #: Distinct sentence signatures (see :class:`SignatureTable`; only a
    #: complete enumeration is reduced to one).
    signatures: int = 0

    def __str__(self) -> str:  # pragma: no cover - debug aid
        if not self.compiled:
            return f"not compiled ({self.reason})"
        return (
            f"compiled: {self.sequences} sequences, {self.states} states, "
            f"{self.signatures} signatures, horizon {self.horizon}"
            f"{'' if self.complete else ' (incomplete)'}"
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


def _admitting(edges: Sequence[tuple[object, Any]], value: object) -> list:
    """The targets of the ``(template constant, target)`` edges -- all
    of one ``(attribute, op)`` bucket -- whose constant admits an atom's
    ``value``: the constant half of :meth:`Template.matches`, and the
    one place the compiled forms spell it."""
    return [
        target for constant, target in edges
        if (
            constant.admits(value)
            if isinstance(constant, ConstClass)
            else constant == value
        )
    ]


class Signature(NamedTuple):
    """What the enumerated sentences sharing a template multiset have
    in common, whatever their conjunct order and parentheses."""

    #: The sentences' atom templates, as sorted indices into
    #: :attr:`SignatureTable.templates` (repeated when a template is).
    templates: tuple[int, ...]
    #: Do the sentences contain ``or``?  Without it a sentence is a
    #: conjunction: true only when every one of its atoms is.
    has_or: bool
    #: The condition nonterminals accepting some such sentence.
    nonterminals: frozenset[str]


class SignatureTable:
    """Every sentence of a description, reduced to its signature.

    The planners consult it *before* searching (DESIGN.md,
    "Certificates before search"): a source query is a sentence over
    the target query's own atoms, so what no signature can express no
    plan can ask.  That inference needs every sentence to be listed,
    so a table exists only for a *complete* enumeration: one that
    dropped nothing at its token horizon (``CompilationReport.complete``).
    """

    __slots__ = ("templates", "signatures", "_buckets")

    def __init__(
        self,
        templates: Sequence[Template],
        signatures: Sequence[Signature],
    ):
        self.templates = tuple(templates)
        self.signatures = tuple(signatures)
        buckets: dict[tuple[str, object], list[tuple[object, int]]] = {}
        for index, template in enumerate(self.templates):
            buckets.setdefault(
                (template.attribute, template.op), []
            ).append((template.constant, index))
        self._buckets = {key: tuple(edges) for key, edges in buckets.items()}

    def matching(self, atoms: Sequence[Atom]) -> list[int]:
        """Per template, the bitmask of the positions in ``atoms`` it
        matches (the edge test of :meth:`CompiledChecker.match`)."""
        masks = [0] * len(self.templates)
        for position, atom in enumerate(atoms):
            for index in _admitting(
                    self._buckets.get((atom.attribute, atom.op), ()),
                    atom.value):
                masks[index] |= 1 << position
        return masks


class CompiledChecker:
    """The compiled recognizer: one walk answers every condition NT.

    :meth:`match` returns the set of condition nonterminals accepting
    the token stream, or ``None`` when the stream is longer than the
    horizon of an incomplete enumeration (the caller must fall back to
    Earley).  A complete enumeration dropped no partial sentence, so no
    sentence is longer than its horizon: a longer stream is rejected.
    """

    __slots__ = ("_root", "report", "signatures")

    def __init__(self, root: _Node, report: CompilationReport,
                 signatures: SignatureTable | None = None):
        self._root = root
        self.report = report
        #: None when the enumeration was not complete.
        self.signatures = signatures

    @property
    def horizon(self) -> int:
        return self.report.horizon

    def match(self, tokens: Sequence[Token]) -> frozenset[str] | None:
        """Condition nonterminals accepting ``tokens`` (None = too long)."""
        if len(tokens) > self.report.horizon:
            return frozenset() if self.report.complete else None
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
                    edges = state.atom_edges.get(bucket)
                    if edges:
                        next_states += _admitting(edges, value)
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
) -> tuple[dict[str, set[tuple[int, ...]]], bool]:
    """For each nonterminal, all terminal sequences of length <= horizon
    (terminals as interned ints), and whether that is *every* sequence:
    no expansion had to drop an overlong partial.

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
    complete = True
    changed = True
    while changed:
        changed = False
        for head, alternatives in productions.items():
            known = languages[head]
            for alternative in alternatives:
                sequences, dropped = _expand(
                    alternative, languages, max_tokens, max_sequences
                )
                if dropped:
                    complete = False
                for sequence in sequences:
                    if sequence not in known:
                        known.add(sequence)
                        total += 1
                        if total > max_sequences:
                            raise _BudgetExceeded(
                                f"more than {max_sequences} sequences"
                            )
                        changed = True
    return languages, complete


def _expand(
    alternative: Sequence[NT | int],
    languages: dict[str, set[tuple[int, ...]]],
    max_tokens: int,
    max_sequences: int,
) -> tuple[list[tuple[int, ...]], bool]:
    """All bounded terminal sequences of one alternative, given the
    currently known sub-languages, and whether a partial sequence was
    dropped for outgrowing the horizon."""
    partials: list[tuple[int, ...]] = [()]
    dropped = False
    for symbol in alternative:
        kept = len(partials)
        if isinstance(symbol, NT):
            expansions = languages[symbol.name]
            if not expansions:
                return [], dropped
            kept *= len(expansions)
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
        if len(partials) != kept:
            dropped = True
        if not partials:
            return [], dropped
    return partials, dropped


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
# Signatures: the sentences with order and parentheses forgotten
# ----------------------------------------------------------------------

def _signature_table(
    tagged: dict[tuple[int, ...], frozenset[str]],
    terminals: Sequence[Keyword | Template],
) -> SignatureTable:
    """Reduce the tagged sentences to their distinct signatures.

    ``true`` only ever reaches a source alone (the download query), and
    a condition always holds an atom otherwise, so sentences mixing
    ``true`` with anything, or holding no template, match nothing and
    are left out.
    """
    template_index: dict[int, int] = {}
    templates: list[Template] = []
    or_id = true_id = -1
    for terminal_id, terminal in enumerate(terminals):
        if isinstance(terminal, Template):
            template_index[terminal_id] = len(templates)
            templates.append(terminal)
        elif terminal is Keyword.OR:
            or_id = terminal_id
        elif terminal is Keyword.TRUE:
            true_id = terminal_id
    merged: dict[tuple[tuple[int, ...], bool], frozenset[str]] = {}
    for sequence, tags in tagged.items():
        if sequence != (true_id,):
            if true_id in sequence:
                continue
            members = tuple(sorted(
                template_index[terminal_id] for terminal_id in sequence
                if terminal_id in template_index
            ))
            if not members:
                continue
            key = (members, or_id in sequence)
        else:
            key = ((), False)
        merged[key] = merged.get(key, frozenset()) | tags
    return SignatureTable(
        templates,
        [Signature(*key, merged[key]) for key in sorted(merged)],
    )


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
        languages, complete = _enumerate_languages(
            encoded, max_tokens, max_sequences)
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
    signatures = _signature_table(tagged, terminals) if complete else None
    report = CompilationReport(
        compiled=True,
        sequences=total,
        states=states,
        horizon=max_tokens,
        signatures=len(signatures.signatures) if complete else 0,
        complete=complete,
    )
    return CompiledChecker(root, report, signatures), report
