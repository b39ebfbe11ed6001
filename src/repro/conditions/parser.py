"""Textual parser for condition expressions.

Accepts the syntax the rest of the library prints, e.g.::

    make = 'BMW' and price <= 40000 and (color = 'red' or color = 'black')
    style = 'sedan' and size in ('compact', 'midsize')
    title contains 'dreams'

``and`` binds tighter than ``or``; parentheses override and are preserved
as explicit tree structure (the condition tree shape matters to
order-sensitive and structure-sensitive SSDL grammars, so the parser
never reassociates what the user wrote).
"""

from __future__ import annotations

import re

from repro.conditions.atoms import Atom, Op, op_from_text
from repro.conditions.tree import TRUE, And, Condition, Leaf, Or
from repro.errors import ConditionError, ConditionParseError

# One scanner pass: every alternative skips the whitespace before its
# token, keywords are their own (ASCII case-insensitive) alternatives,
# the end of input is a token and ``bad`` catches any other character --
# so ``finditer`` never skips a position and ``lastgroup`` is the kind.
_KEYWORDS = ("and", "or", "in", "contains", "true", "false")
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<op><=|>=|!=|<>|==|=|<|>)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,)"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"""|(?P<string>'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")"""
    + "".join(
        "|(?P<%s>%s(?![A-Za-z_0-9]))" % (
            word, "".join(f"[{c}{c.upper()}]" for c in word))
        for word in _KEYWORDS
    )
    + r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.)"
    r")",
    re.DOTALL,
)

#: The kinds whose tokens carry a constant (``true`` also as a factor).
_CONSTANT_KINDS = frozenset(("number", "string", "true", "false"))


def _tokenize(text: str, spelled: bool = True
              ) -> tuple[list[re.Match], tuple[str, ...] | None, list]:
    """One scan of ``text``: its tokens, its *spelling* and its constants.

    The tokens are the scanner's matches (``lastgroup`` is the kind).
    The spelling is every token's text with each number or string
    replaced by its class (``$num`` / ``$str``, which no token spells),
    so two texts differing only in such constants spell alike (None
    unless ``spelled``); the constants are the typed values of the
    number, string, ``true`` and ``false`` tokens, left to right.
    """
    tokens = list(_TOKEN_RE.finditer(text))
    spelling: list[str] = []
    constants: list = []
    spell, constant = spelling.append, constants.append
    for match in tokens:
        kind = match.lastgroup
        token = match[kind]
        if kind in _CONSTANT_KINDS:
            if kind == "number":
                constant(float(token) if "." in token else int(token))
                token = "$num"
            elif kind == "string":
                body = token[1:-1]
                constant(body if "\\" not in body else _unescape(token))
                token = "$str"
            else:
                constant(kind == "true")
        elif kind == "bad":
            pos = match.start(kind)
            raise ConditionParseError(
                f"unexpected character {text[pos]!r} at position {pos}", pos
            )
        if spelled:
            spell(token)
    return tokens, tuple(spelling) if spelled else None, constants


def _position(token: re.Match) -> int:
    return token.start(token.lastgroup)


def _found(token: re.Match) -> str:
    """How an error message quotes a token (keywords in lower case)."""
    kind = token.lastgroup
    return repr((kind if kind in _KEYWORDS else token[kind]) or "end of input")


def _unescape(quoted: str) -> str:
    body = quoted[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


class _Parser:
    """Recursive descent over the token list; ``index`` is the cursor.

    Constants are read from the tokenizer's vector: ``constant`` counts
    the constant tokens consumed, and ``slots`` records, per atom left to
    right, which constants filled it: an index into the vector, or a
    tuple of them for an ``in`` list -- the slot program a spelling's
    later texts bind by.
    """

    def __init__(self, tokens: list[re.Match], constants: list):
        self.tokens = tokens
        self.constants = constants
        self.index = 0
        self.constant = 0
        self.slots: list[int | tuple[int, ...]] = []

    def expect(self, kind: str) -> re.Match:
        token = self.tokens[self.index]
        if token.lastgroup != kind:
            raise ConditionParseError(
                f"expected {kind} but found {_found(token)} "
                f"at position {_position(token)}",
                _position(token),
            )
        self.index += 1
        return token

    # -- grammar -----------------------------------------------------------
    def parse(self) -> Condition:
        try:
            expr = self.parse_or()
        except ConditionParseError:
            raise
        except ConditionError as exc:
            # What was spelled parses, but an atom refuses its constant
            # (``price < true``) or a connector its ``true`` operand.
            pos = _position(self.tokens[self.index - 1])
            raise ConditionParseError(f"{exc} at position {pos}",
                                      pos) from None
        token = self.tokens[self.index]
        if token.lastgroup != "eof":
            raise ConditionParseError(
                f"trailing input {_found(token)} at position "
                f"{_position(token)}",
                _position(token),
            )
        return expr

    def parse_or(self) -> Condition:
        parts = [self.parse_and()]
        while self.tokens[self.index].lastgroup == "or":
            self.index += 1
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        return Or(parts)

    def parse_and(self) -> Condition:
        parts = [self.parse_factor()]
        while self.tokens[self.index].lastgroup == "and":
            self.index += 1
            parts.append(self.parse_factor())
        if len(parts) == 1:
            return parts[0]
        return And(parts)

    def parse_factor(self) -> Condition:
        token = self.tokens[self.index]
        kind = token.lastgroup
        if kind == "ident":
            return self.parse_atom()
        if kind == "lparen":
            self.index += 1
            inner = self.parse_or()
            self.expect("rparen")
            return inner
        if kind == "true":
            self.index += 1
            self.constant += 1
            return TRUE
        raise ConditionParseError(
            f"expected a condition but found {_found(token)} "
            f"at position {_position(token)}",
            _position(token),
        )

    def parse_atom(self) -> Leaf:
        """``ident op value`` with the cursor on the ``ident``."""
        attr = self.tokens[self.index]["ident"]
        self.index += 1
        token = self.tokens[self.index]
        kind = token.lastgroup
        if kind == "op":
            self.index += 1
            atom = Atom(attr, op_from_text(token["op"]), self.parse_value())
            self.slots.append(self.constant - 1)
            return Leaf(atom)
        if kind == "contains":
            self.index += 1
            self.expect("string")
            self.constant += 1
            atom = Atom(attr, Op.CONTAINS, self.constants[self.constant - 1])
            self.slots.append(self.constant - 1)
            return Leaf(atom)
        if kind == "in":
            self.index += 1
            self.expect("lparen")
            first = self.constant
            values = [self.parse_value()]
            while self.tokens[self.index].lastgroup == "comma":
                self.index += 1
                values.append(self.parse_value())
            self.expect("rparen")
            atom = Atom(attr, Op.IN, tuple(values))
            self.slots.append(tuple(range(first, self.constant)))
            return Leaf(atom)
        raise ConditionParseError(
            f"expected an operator after {attr!r} at position "
            f"{_position(token)}",
            _position(token),
        )

    def parse_value(self):
        token = self.tokens[self.index]
        self.index += 1
        if token.lastgroup in _CONSTANT_KINDS:
            self.constant += 1
            return self.constants[self.constant - 1]
        raise ConditionParseError(
            f"expected a constant but found {_found(token)} "
            f"at position {_position(token)}",
            _position(token),
        )


def parse_tokens(tokens: list[re.Match], constants: list
                 ) -> tuple[Condition, list]:
    """The condition :func:`_tokenize`'s output spells, and its slot
    program (see :class:`_Parser`)."""
    parser = _Parser(tokens, constants)
    return parser.parse(), parser.slots


def parse_condition(text: str) -> Condition:
    """Parse a condition expression into a :class:`Condition` tree."""
    tokens, _, constants = _tokenize(text, spelled=False)
    return parse_tokens(tokens, constants)[0]
