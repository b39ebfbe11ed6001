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
from repro.errors import ConditionParseError

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

#: A token: ``(kind, text, position)``.
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            pos = match.start(kind)
            raise ConditionParseError(
                f"unexpected character {text[pos]!r} at position {pos}", pos
            )
        append((kind, match[kind], match.start(kind)))
    return tokens


def _found(token: _Token) -> str:
    """How an error message quotes a token (keywords in lower case)."""
    kind, text, _ = token
    return repr((kind if kind in _KEYWORDS else text) or "end of input")


def _unescape(quoted: str) -> str:
    body = quoted[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


class _Parser:
    """Recursive descent over the token list; ``index`` is the cursor."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def expect(self, kind: str) -> _Token:
        token = self.tokens[self.index]
        if token[0] != kind:
            raise ConditionParseError(
                f"expected {kind} but found {_found(token)} "
                f"at position {token[2]}",
                token[2],
            )
        self.index += 1
        return token

    # -- grammar -----------------------------------------------------------
    def parse(self) -> Condition:
        expr = self.parse_or()
        token = self.tokens[self.index]
        if token[0] != "eof":
            raise ConditionParseError(
                f"trailing input {_found(token)} at position {token[2]}",
                token[2],
            )
        return expr

    def parse_or(self) -> Condition:
        parts = [self.parse_and()]
        while self.tokens[self.index][0] == "or":
            self.index += 1
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        return Or(parts)

    def parse_and(self) -> Condition:
        parts = [self.parse_factor()]
        while self.tokens[self.index][0] == "and":
            self.index += 1
            parts.append(self.parse_factor())
        if len(parts) == 1:
            return parts[0]
        return And(parts)

    def parse_factor(self) -> Condition:
        token = self.tokens[self.index]
        kind = token[0]
        if kind == "ident":
            return self.parse_atom()
        if kind == "lparen":
            self.index += 1
            inner = self.parse_or()
            self.expect("rparen")
            return inner
        if kind == "true":
            self.index += 1
            return TRUE
        raise ConditionParseError(
            f"expected a condition but found {_found(token)} "
            f"at position {token[2]}",
            token[2],
        )

    def parse_atom(self) -> Leaf:
        """``ident op value`` with the cursor on the ``ident``."""
        attr = self.tokens[self.index][1]
        self.index += 1
        token = self.tokens[self.index]
        kind = token[0]
        if kind == "op":
            self.index += 1
            return Leaf(Atom(attr, op_from_text(token[1]), self.parse_value()))
        if kind == "contains":
            self.index += 1
            return Leaf(Atom(attr, Op.CONTAINS,
                             _unescape(self.expect("string")[1])))
        if kind == "in":
            self.index += 1
            self.expect("lparen")
            values = [self.parse_value()]
            while self.tokens[self.index][0] == "comma":
                self.index += 1
                values.append(self.parse_value())
            self.expect("rparen")
            return Leaf(Atom(attr, Op.IN, tuple(values)))
        raise ConditionParseError(
            f"expected an operator after {attr!r} at position {token[2]}",
            token[2],
        )

    def parse_value(self):
        token = self.tokens[self.index]
        self.index += 1
        kind, text, _ = token
        if kind == "number":
            return float(text) if "." in text else int(text)
        if kind == "string":
            return _unescape(text)
        if kind == "true":
            return True
        if kind == "false":
            return False
        raise ConditionParseError(
            f"expected a constant but found {_found(token)} "
            f"at position {token[2]}",
            token[2],
        )


def parse_condition(text: str) -> Condition:
    """Parse a condition expression into a :class:`Condition` tree."""
    return _Parser(text).parse()
