"""Adversarial SSDL: ambiguous grammars and huge commutation closures.

The compiled token-trie recognizer (``repro.ssdl.compiled``) is an
*optimization* with two escape hatches -- a compile-time sequence budget
(grammars too large keep their Earley recognizer) and a token horizon
(conditions too long fall back to Earley per call).  Both hatches are
easy to never hit with friendly grammars, which is exactly why this
workload builds hostile ones:

* **deep ambiguity** -- several condition nonterminals accepting the
  same token language with *different* export sets, plus helper-chain
  and right-recursive rules, so a single condition matches many
  nonterminals through many derivations;
* **huge commutation closures** -- order-sensitive conjunctive rules at
  the closure's ``max_segments`` width, so the commutation-closed
  grammar carries factorially many permuted rules (6 segments = 720
  permutations per rule) and compilation genuinely fights its budget.

The battery proves two things.  **Parity**: for every generated
condition, a compiled description and its never-compiled twin produce
*identical* ``Check`` results -- the optimization is invisible.
**Accounting**: the registry counters ``ssdl.compile.budget_exceeded``,
``ssdl.check.fallback`` and ``ssdl.check.prefiltered`` reconcile
*exactly* with the per-description ``check_compiled``/
``check_fallbacks``/``check_prefiltered`` counters, and for every
compiled description ``cache-missing checks == compiled answers +
fallbacks + prefiltered`` (a condition with an atom no template matches
is answered before either recognizer) -- no Check is ever silently
unaccounted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.conditions.atoms import Atom, Op
from repro.conditions.tree import And, Condition, Leaf, Or
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.ssdl.builder import DescriptionBuilder
from repro.ssdl.commute import commutation_closure
from repro.ssdl.description import SourceDescription
from repro.workloads.named import (
    Workload,
    WorkloadReport,
    derive_seed,
    register,
)

#: (attribute, op, rhs-template) pools the generator draws segments from.
_STRING_OPS = ((Op.EQ, "$str"), (Op.CONTAINS, "$str"))
_NUMERIC_OPS = ((Op.LT, "$num"), (Op.GT, "$num"), (Op.EQ, "$num"))


@dataclass
class AdversarialGrammar:
    """A reproducible hostile grammar: rebuild as many twins as needed.

    ``build()`` constructs a *fresh* :class:`SourceDescription` each
    call (twins share no recognizer, cache or compiled state -- the
    parity battery needs a compiled copy and an untouched copy of the
    same grammar).  ``wide_specs`` lists each order-sensitive
    conjunctive rule's segments, so condition generators can produce
    exact permutations of them (the inputs that exercise the
    commutation closure hardest).
    """

    seed: int
    n_attributes: int = 6
    ambiguity: int = 3
    chain_depth: int = 4
    wide_rules: int = 2
    segments: int = 6
    wide_specs: list[list[tuple[str, Op]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        attrs = [f"a{i}" for i in range(self.n_attributes)]
        self._attrs = attrs
        #: (attr, op, rhs template) for every single-atom rule.
        self._atom_rules: list[tuple[str, Op, str]] = []
        for index, attr in enumerate(attrs):
            pool = _STRING_OPS if index % 2 == 0 else _NUMERIC_OPS
            op, template = pool[rng.randrange(len(pool))]
            self._atom_rules.append((attr, op, template))
        self.wide_specs = []
        for _ in range(self.wide_rules):
            picks = rng.sample(range(len(self._atom_rules)),
                               min(self.segments, len(self._atom_rules)))
            self.wide_specs.append(
                [(self._atom_rules[i][0], self._atom_rules[i][1])
                 for i in picks]
            )
            # Remember the template text per segment for the RHS.
            self._wide_rhs = getattr(self, "_wide_rhs", [])
            self._wide_rhs.append(" and ".join(
                f"{self._atom_rules[i][0]} {self._atom_rules[i][1].value} "
                f"{self._atom_rules[i][2]}"
                for i in picks
            ))

    def build(self) -> SourceDescription:
        attrs = self._attrs
        builder = DescriptionBuilder(f"adversarial{self.seed}")
        base_attr, base_op, base_template = self._atom_rules[0]
        base_rhs = f"{base_attr} {base_op.value} {base_template}"
        # Deep ambiguity: identical languages, different export sets --
        # one condition, many matching nonterminals.
        for index in range(self.ambiguity):
            exported = [attrs[0]] + attrs[1:2 + index]
            builder.rule(f"amb{index}", base_rhs, attributes=exported)
        # A helper chain ending in a condition nonterminal: every parse
        # threads the whole chain (ambiguous with the amb* rules too,
        # since the chain's bottom alternative is the same base atom).
        builder.helper("h0", base_rhs)
        for depth in range(1, self.chain_depth):
            attr, op, template = self._atom_rules[
                depth % len(self._atom_rules)]
            builder.helper(
                f"h{depth}",
                f"h{depth - 1} | {attr} {op.value} {template}",
            )
        builder.rule("chain", f"h{self.chain_depth - 1}",
                     attributes=attrs[:2])
        # Right-recursive disjunction list (unbounded language: the
        # compiler must truncate enumeration at its token horizon).
        rec_attr, rec_op, rec_template = self._atom_rules[
            1 % len(self._atom_rules)]
        rec_rhs = f"{rec_attr} {rec_op.value} {rec_template}"
        builder.helper("orlist", f"{rec_rhs} | {rec_rhs} or orlist")
        builder.rule("disj", "orlist", attributes=attrs[:1])
        # Order-sensitive wide conjunctions: the commutation closure
        # expands each into segments! permuted rules.
        for index, rhs in enumerate(self._wide_rhs):
            builder.rule(f"wide{index}", rhs, attributes=attrs)
        return builder.build()

    # ------------------------------------------------------------------
    def _atom(self, rng: random.Random, spec: tuple[str, Op]) -> Atom:
        attr, op = spec
        if op in (Op.EQ, Op.CONTAINS) and attr in self._attrs \
                and self._attrs.index(attr) % 2 == 0:
            return Atom(attr, op, f"v{rng.randrange(50)}")
        if op is Op.CONTAINS:
            return Atom(attr, op, f"v{rng.randrange(50)}")
        return Atom(attr, op, rng.randrange(1000))

    def conditions(self, seed: int, count: int) -> list[Condition]:
        """A seeded adversarial condition pool: supported atoms,
        unsupported operators, wide-rule permutations (native order and
        shuffled -- the closure-only inputs), flat and nested
        connectors, and beyond-horizon conjunctions."""
        rng = random.Random(seed)
        out: list[Condition] = []
        specs = [(attr, op) for attr, op, _ in self._atom_rules]
        while len(out) < count:
            shape = rng.randrange(7)
            if shape == 0:  # single supported atom
                out.append(Leaf(self._atom(rng, rng.choice(specs))))
            elif shape == 1:  # single unsupported atom (wrong op)
                attr, op = rng.choice(specs)
                wrong = Op.NE if op is not Op.NE else Op.LT
                out.append(Leaf(Atom(attr, wrong, 7)))
            elif shape == 2 and self.wide_specs:  # wide rule, native order
                spec = rng.choice(self.wide_specs)
                out.append(And([Leaf(self._atom(rng, s)) for s in spec]))
            elif shape == 3 and self.wide_specs:  # wide rule, permuted
                spec = list(rng.choice(self.wide_specs))
                rng.shuffle(spec)
                out.append(And([Leaf(self._atom(rng, s)) for s in spec]))
            elif shape == 4:  # flat disjunction (orlist shape)
                width = rng.randrange(2, 6)
                spec = specs[1 % len(specs)]
                out.append(Or([Leaf(self._atom(rng, spec))
                               for _ in range(width)]))
            elif shape == 5:  # nested connector
                inner = Or([Leaf(self._atom(rng, rng.choice(specs)))
                            for _ in range(2)])
                out.append(And([Leaf(self._atom(rng, rng.choice(specs))),
                                inner]))
            else:  # beyond any horizon: token count > 2 * atoms - 1
                width = rng.randrange(17, 22)
                out.append(And([Leaf(self._atom(rng, rng.choice(specs)))
                                for _ in range(width)]))
        return out


@register
class AdversarialSSDLWorkload(Workload):
    """Hostile grammars: compiled≡Earley parity + exact accounting."""

    name = "adversarial_ssdl"
    description = (
        "ambiguous grammars with factorial commutation closures; "
        "compiled vs Earley parity and exact budget/fallback accounting"
    )

    def __init__(
        self,
        seed: int = 1999,
        n_grammars: int = 6,
        conditions_per_grammar: int = 48,
        segments: int = 6,
        tight_sequences: int = 40,
        tight_tokens: int = 9,
    ):
        """Every third grammar compiles with ``tight_sequences`` (to
        force ``budget_exceeded``); every third with ``tight_tokens``
        (to force per-call fallbacks); the rest with the defaults."""
        super().__init__(seed)
        self.n_grammars = n_grammars
        self.conditions_per_grammar = conditions_per_grammar
        self.segments = segments
        self.tight_sequences = tight_sequences
        self.tight_tokens = tight_tokens

    # ------------------------------------------------------------------
    def _execute(self) -> dict:
        """One full pass under an isolated metrics registry; returns the
        deterministic accounting the run report and battery share."""
        registry = MetricsRegistry()
        totals = {
            "grammars": self.n_grammars,
            "parity_checks": 0,
            "parity_mismatches": 0,
            "compiled_ok": 0,
            "budget_exceeded": 0,
            "compiled_answers": 0,
            "fallbacks": 0,
            "prefiltered": 0,
            "native_rules": 0,
            "closure_rules": 0,
            "sequences": 0,
            "accounting_exact": True,
        }
        compile_attempts = 0
        with use_metrics(registry):
            for index in range(self.n_grammars):
                grammar = AdversarialGrammar(
                    derive_seed(self.seed, f"grammar:{index}"),
                    segments=self.segments,
                )
                compiled_native = grammar.build()
                twin_native = grammar.build()
                compiled_closed = commutation_closure(compiled_native)
                twin_closed = commutation_closure(twin_native)
                totals["native_rules"] += compiled_native.rule_count()
                totals["closure_rules"] += compiled_closed.rule_count()
                kwargs: dict = {}
                if index % 3 == 1:
                    kwargs["max_sequences"] = self.tight_sequences
                elif index % 3 == 2:
                    kwargs["max_tokens"] = self.tight_tokens
                for description in (compiled_native, compiled_closed):
                    report = description.compile(**kwargs)
                    compile_attempts += 1
                    if report.compiled:
                        totals["compiled_ok"] += 1
                        totals["sequences"] += report.sequences
                    else:
                        totals["budget_exceeded"] += 1
                pool = grammar.conditions(
                    derive_seed(self.seed, f"conditions:{index}"),
                    self.conditions_per_grammar,
                )
                for condition in pool:
                    for left, right in (
                        (compiled_native, twin_native),
                        (compiled_closed, twin_closed),
                    ):
                        totals["parity_checks"] += 1
                        if left.check(condition) != right.check(condition):
                            totals["parity_mismatches"] += 1
                for description in (compiled_native, compiled_closed):
                    totals["compiled_answers"] += description.check_compiled
                    totals["fallbacks"] += description.check_fallbacks
                    if description.compiled and (
                        description.check_calls
                        != description.check_compiled
                        + description.check_fallbacks
                        + description.check_prefiltered
                    ):
                        totals["accounting_exact"] = False
                for description in (compiled_native, compiled_closed,
                                    twin_native, twin_closed):
                    totals["prefiltered"] += description.check_prefiltered
        registry_budget = registry.counter(
            "ssdl.compile.budget_exceeded").value
        registry_fallbacks = registry.counter("ssdl.check.fallback").value
        registry_prefiltered = registry.counter(
            "ssdl.check.prefiltered").value
        totals["registry_budget_exceeded"] = int(registry_budget)
        totals["registry_fallbacks"] = int(registry_fallbacks)
        totals["registry_prefiltered"] = int(registry_prefiltered)
        if registry_budget != totals["budget_exceeded"]:
            totals["accounting_exact"] = False
        if registry_fallbacks != totals["fallbacks"]:
            totals["accounting_exact"] = False
        if registry_prefiltered != totals["prefiltered"]:
            totals["accounting_exact"] = False
        totals["compile_attempts"] = compile_attempts
        return totals

    def run(self) -> WorkloadReport:
        return self._report(self._execute())

    def battery(self) -> dict:
        """Parity + reconciliation, hard-asserted (see module docstring)."""
        totals = self._execute()
        assert totals["parity_mismatches"] == 0, (
            f"compiled/Earley divergence: "
            f"{totals['parity_mismatches']} of {totals['parity_checks']}"
        )
        assert totals["parity_checks"] > 0
        assert totals["budget_exceeded"] > 0, (
            "adversarial closures never exhausted the compile budget -- "
            "the workload is not adversarial enough"
        )
        assert totals["fallbacks"] > 0, (
            "no beyond-horizon fallbacks -- the workload is not "
            "adversarial enough"
        )
        assert totals["registry_budget_exceeded"] == totals["budget_exceeded"]
        assert totals["registry_fallbacks"] == totals["fallbacks"]
        assert totals["registry_prefiltered"] == totals["prefiltered"]
        assert totals["prefiltered"] > 0, (
            "no condition was answered before the recognizers -- the "
            "pool's unsupported-operator atoms are gone"
        )
        assert totals["accounting_exact"], (
            "per-description counters do not reconcile with the registry"
        )
        assert totals["closure_rules"] > totals["native_rules"], (
            "commutation closure did not expand the grammars"
        )
        return totals
