"""Recursive-descent parser for polynomial and differential-form expressions.

Grammar (whitespace-insensitive)::

    expression := ['+'|'-'] term { ('+'|'-') term }
    term       := factor { '*' factor }
    factor     := atom [ '^' INTEGER ]
    atom       := NUMBER | NAME | '(' expression ')'

NUMBER is an integer or a rational literal ``p/q``; NAME is either a ring
variable or ``d`` immediately followed by a ring variable (a differential).
An exponent is an integer literal: ``x^4/2`` is an error, not ``x^2``.
``^`` only applies to factors of degree zero.  All differentials in a term
are wedged in order of appearance, so a repeated differential makes the
term zero rather than raising.

The parse result is a "mixed form": a dict from strictly increasing index
tuples to polynomial coefficients, with the empty tuple holding the scalar
part.  ``poly.parse_polynomial`` and ``forms.parse_form`` are thin wrappers.

The parser works on raw mixed forms, ``{index tuple: {exponents:
coefficient}}``: a number, variable or differential is a one-term dict, and
products and sums go through the term-dict kernels of ``poly``.  Each
coefficient becomes a ``Polynomial`` once, at the end of
:func:`parse_mixed_text`.  :func:`mixed_mul` is the one wedge loop over raw
term dicts; ``forms.wedge`` calls it too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, PolynomialRing, _add_terms, _mul_terms, _norm


class ParseError(ValueError):
    """Syntax or name error; ``position`` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"(\d+(?:\s*/\s*\d+)?)|([A-Za-z_]\w*)|([-+*^()])|(\S)")
_KINDS = {2: "name", 3: "op"}  # token kind by the group of _TOKEN that matched


def _tokenize(text: str):
    """Tokens ``(kind, value, position)`` ending with an ``end`` token.

    A number is ``int`` (an integer literal, value ``int``) or ``ratio`` (a
    ``p/q`` literal, value normalized by :func:`_norm`).
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        group, value, pos = m.lastindex, m.group(), m.start()
        if group == 1:
            num, slash, den = value.partition("/")
            if not slash:
                tokens.append(("int", int(num), pos))
                continue
            if int(den) == 0:
                raise ParseError("zero denominator", pos)
            tokens.append(("ratio", _norm(Fraction(int(num), int(den))), pos))
        elif group == 4:
            raise ParseError(f"unexpected character {value!r}", pos)
        else:
            tokens.append((_KINDS[group], value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


def wedge_index_tuples(s: tuple, t: tuple):
    """Merge two strictly increasing index tuples.

    Returns ``(sign, merged)`` where sign is the parity of the shuffle, or
    ``None`` when the tuples share an index (the wedge is zero).
    """
    if not s or not t:
        return 1, s or t
    if set(s) & set(t):
        return None
    inversions = sum(1 for a in s for b in t if a > b)
    sign = -1 if inversions % 2 else 1
    return sign, tuple(sorted(s + t))


def _neg_terms(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _mixed_neg(a: dict) -> dict:
    return {key: _neg_terms(p) for key, p in a.items()}


def _mixed_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, q in b.items():
        p = out.get(key)
        s = q if p is None else _add_terms(p, q)
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def mixed_mul(a: dict, b: dict) -> dict:
    """Wedge product of two raw mixed forms (the loop behind ``forms.wedge``)."""
    out: dict = {}
    for s, p in a.items():
        for t, q in b.items():
            merged = wedge_index_tuples(s, t)
            if merged is None:
                continue
            sign, key = merged
            coeff = _mul_terms(p, q)
            if sign < 0:
                coeff = _neg_terms(coeff)
            prev = out.get(key)
            total = coeff if prev is None else _add_terms(prev, coeff)
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
        n = ring.nvars
        self.unit = (0,) * n  # the exponents of the monomial 1
        self.var_monomials = [self.unit[:i] + (1,) + self.unit[i + 1 :] for i in range(n)]

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
            if kind != "int" or value < 1:
                raise ParseError("exponent must be a positive integer", pos)
            self.advance()
            if any(key for key in mixed):
                raise ParseError("'^' applies only to polynomial factors", pos)
            base = mixed.get((), {})
            power = {self.unit: 1}
            for _ in range(value):
                power = _mul_terms(power, base)
            return {(): power} if power else {}
        return mixed

    def atom(self) -> dict:
        kind, value, pos = self.advance()
        if kind == "int" or kind == "ratio":
            return {(): {self.unit: value}} if value else {}
        if kind == "name":
            index = self.ring._index
            if value in index:
                return {(): {self.var_monomials[index[value]]: 1}}
            if value.startswith("d") and value[1:] in index:
                if not self.allow_differentials:
                    raise ParseError(
                        f"differential {value!r} is not allowed in a polynomial expression", pos
                    )
                return {(index[value[1:]],): {self.unit: 1}}
            raise ParseError(f"unknown variable {value!r}", pos)
        if kind == "op" and value == "(":
            mixed = self.expression()
            self.expect_op(")")
            return mixed
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_mixed_text(text: str, ring: PolynomialRing, allow_differentials: bool) -> dict:
    """The mixed form of ``text``, one ``Polynomial`` per nonzero coefficient.

    Its integral coefficients are ``int``s, even where the arithmetic of
    parsing left a ``Fraction`` (``2*1/2``).
    """
    parser = _Parser(_tokenize(text), ring, allow_differentials)
    return {
        key: Polynomial(ring, {m: _norm(c) for m, c in terms.items()}, _clean=True)
        for key, terms in parser.parse().items()
    }
