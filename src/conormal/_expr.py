"""Recursive-descent parser for polynomial and differential-form expressions.

Grammar (whitespace-insensitive)::

    expression := ['+'|'-'] term { ('+'|'-') term }
    term       := factor { '*' factor }
    factor     := atom [ '^' INTEGER ]
    atom       := NUMBER | NAME | '(' expression ')'

NUMBER is an integer or a rational literal ``p/q``; NAME is either a ring
variable or ``d`` immediately followed by a ring variable (a differential).
``^`` only applies to factors of degree zero.  All differentials in a term
are wedged in order of appearance, so a repeated differential makes the
term zero rather than raising.

The parse result is a "mixed form": a dict from strictly increasing index
tuples to polynomial coefficients, with the empty tuple holding the scalar
part.  ``poly.parse_polynomial`` and ``forms.parse_form`` are thin wrappers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, PolynomialRing, _norm


class ParseError(ValueError):
    """Syntax or name error; ``position`` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NUMBER = re.compile(r"\d+(?:\s*/\s*\d+)?")
_NAME = re.compile(r"[A-Za-z_]\w*")


def _tokenize(text: str):
    tokens = []
    pos, n = 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            raw = m.group().replace(" ", "")
            if "/" in raw:
                num, den = raw.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", pos)
                value = _norm(Fraction(int(num), int(den)))
            else:
                value = int(raw)
            tokens.append(("num", value, pos))
            pos = m.end()
            continue
        m = _NAME.match(text, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


def wedge_index_tuples(s: tuple, t: tuple):
    """Merge two strictly increasing index tuples.

    Returns ``(sign, merged)`` where sign is the parity of the shuffle, or
    ``None`` when the tuples share an index (the wedge is zero).
    """
    if set(s) & set(t):
        return None
    inversions = sum(1 for a in s for b in t if a > b)
    sign = -1 if inversions % 2 else 1
    return sign, tuple(sorted(s + t))


def _mixed_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, p in b.items():
        q = out.get(key)
        s = p if q is None else q + p
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def _mixed_neg(a: dict) -> dict:
    return {key: -p for key, p in a.items()}


def mixed_mul(a: dict, b: dict) -> dict:
    """Wedge product of two mixed forms (the loop behind ``forms.wedge``)."""
    out: dict = {}
    for s, p in a.items():
        for t, q in b.items():
            merged = wedge_index_tuples(s, t)
            if merged is None:
                continue
            sign, key = merged
            coeff = p * q if sign > 0 else -(p * q)
            prev = out.get(key)
            total = coeff if prev is None else prev + coeff
            if total:
                out[key] = total
            elif key in out:
                del out[key]
    return out


class _Parser:
    def __init__(self, tokens, ring: PolynomialRing, allow_differentials: bool):
        self.tokens = tokens
        self.ring = ring
        self.allow_differentials = allow_differentials
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> dict:
        mixed = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return mixed

    def expression(self) -> dict:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.advance()
            negate = value == "-"
        mixed = self.term()
        if negate:
            mixed = _mixed_neg(mixed)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                if value == "-":
                    rhs = _mixed_neg(rhs)
                mixed = _mixed_add(mixed, rhs)
            else:
                return mixed

    def term(self) -> dict:
        mixed = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                mixed = mixed_mul(mixed, self.factor())
            else:
                return mixed

    def factor(self) -> dict:
        mixed = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num" or not isinstance(value, int) or value < 1:
                raise ParseError("exponent must be a positive integer", pos)
            self.advance()
            if any(key for key in mixed):
                raise ParseError("'^' applies only to polynomial factors", pos)
            base = mixed.get((), self.ring.zero)
            power = base**value
            return {(): power} if power else {}
        return mixed

    def atom(self) -> dict:
        kind, value, pos = self.advance()
        if kind == "num":
            p = self.ring.const(value)
            return {(): p} if p else {}
        if kind == "name":
            if value in self.ring._index:
                return {(): self.ring.var(self.ring._index[value])}
            if value.startswith("d") and value[1:] in self.ring._index:
                if not self.allow_differentials:
                    raise ParseError(
                        f"differential {value!r} is not allowed in a polynomial expression", pos
                    )
                return {(self.ring._index[value[1:]],): self.ring.one}
            raise ParseError(f"unknown variable {value!r}", pos)
        if kind == "op" and value == "(":
            mixed = self.expression()
            self.expect_op(")")
            return mixed
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_mixed_text(text: str, ring: PolynomialRing, allow_differentials: bool) -> dict:
    """The mixed form of ``text``; its integral coefficients are ``int``s,
    even where the arithmetic of parsing left a ``Fraction`` (``2*1/2``)."""
    parser = _Parser(_tokenize(text), ring, allow_differentials)
    return {
        key: Polynomial(ring, {m: _norm(c) for m, c in p.terms.items()}, _clean=True)
        for key, p in parser.parse().items()
    }
