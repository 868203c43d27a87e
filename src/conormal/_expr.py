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

The parser works on raw mixed forms, ``{index tuple: {word:
coefficient}}``, with the packed monomial words of :mod:`conormal.poly`.
A term multiplies its numbers, variables and differentials, with their
powers, straight into one accumulated monomial (a coefficient, a word and
the differentials in order of appearance, whose order gives the wedge
sign); only a parenthesized factor is a mixed form of its own, wedged in
with :func:`mixed_mul`.  A total degree past ``poly.MAX_DEGREE`` is a
:class:`ParseError` at the factor that makes it.  An
expression adds its terms into one dict in place.  Each coefficient becomes
a ``Polynomial`` once, at the end of :func:`parse_mixed_text`.
:func:`mixed_mul` is the one wedge loop over raw term dicts;
``forms.wedge`` calls it too.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, PolynomialRing, _degree_error, _mul_terms, _norm


class ParseError(ValueError):
    """Syntax or name error; ``position`` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Each match is one token with the whitespace before it, so the offsets are
# running sums of the match lengths: the matches leave no gap in the text.
# Only trailing whitespace matches nothing; it is stripped first, because
# trying the pattern at each of its k offsets would take k^2 steps.
_TOKEN = re.compile(r"(\s*)(?:(\d+(?:\s*/\s*\d+)?)|([A-Za-z_]\w*)|([-+*^()])|(\S))")


def _tokenize(text: str):
    """Tokens ``(kind, value, position)`` ending with an ``end`` token.

    A number is ``int`` (an integer literal, value ``int``) or ``ratio`` (a
    ``p/q`` literal, value normalized by :func:`_norm`).
    """
    tokens = []
    pos = 0
    for space, number, name, op, other in _TOKEN.findall(text.rstrip()):
        pos += len(space)
        if op:
            tokens.append(("op", op, pos))
            pos += 1
        elif name:
            tokens.append(("name", name, pos))
            pos += len(name)
        elif number:
            num, slash, den = number.partition("/")
            if not slash:
                tokens.append(("int", int(num), pos))
            elif int(den) == 0:
                raise ParseError("zero denominator", pos)
            else:
                tokens.append(("ratio", _norm(Fraction(int(num), int(den))), pos))
            pos += len(number)
        else:
            raise ParseError(f"unexpected character {other!r}", pos)
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


# wedge_index_tuples(s, t) by (s, t), filled on first use; bounded by the
# pairs of increasing index tuples actually wedged.
_WEDGE: dict = {}


def _accumulate(out: dict, key: tuple, terms: dict, negate: bool = False) -> None:
    """Add the term dict ``terms``, negated if ``negate``, into ``out[key]``
    in place; a coefficient that sums to zero is dropped.  ``terms`` itself
    is not changed."""
    acc = out.get(key)
    if acc is None:
        if terms:
            out[key] = {m: -c for m, c in terms.items()} if negate else dict(terms)
        return
    for m, c in terms.items():
        s = acc.get(m, 0) - c if negate else acc.get(m, 0) + c
        if s:
            acc[m] = s
        else:
            del acc[m]
    if not acc:
        del out[key]


def mixed_mul(a: dict, b: dict, limit: int) -> dict:
    """Wedge product of two raw mixed forms (the loop behind ``forms.wedge``)
    over a ring with :attr:`~conormal.poly.PolynomialRing.limit` ``limit``."""
    out: dict = {}
    for s, p in a.items():
        for t, q in b.items():
            try:
                merged = _WEDGE[s, t]
            except KeyError:
                merged = _WEDGE[s, t] = wedge_index_tuples(s, t)
            if merged is not None:
                sign, key = merged
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                _mul_terms(p, q, limit, acc, sign < 0)
    return {key: terms for key, terms in out.items() if terms}


class _Parser:
    """Recursive descent over the token list.  An operator is recognized by
    its value alone: no other token's value is an operator character."""

    def __init__(self, tokens, ring: PolynomialRing, allow_differentials: bool):
        self.tokens = tokens
        self.index = ring._index
        self.units = ring.units
        self.limit = ring.limit
        self.degree = ring.degree
        self.allow_differentials = allow_differentials
        self.i = 0

    def expect_op(self, op: str):
        _, value, pos = self.tokens[self.i]
        if value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.i += 1

    def parse(self) -> dict:
        mixed = self.expression()
        kind, value, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return mixed

    def expression(self) -> dict:
        """The sum of the terms, added into one dict in place; a lone
        unsigned term is returned as it is."""
        tokens = self.tokens
        sign = tokens[self.i][1]
        if sign == "+" or sign == "-":
            self.i += 1
        mixed = self.term()
        value = tokens[self.i][1]
        if sign != "-" and value != "+" and value != "-":
            return mixed
        out: dict = {}
        while True:
            for key, terms in mixed.items():
                _accumulate(out, key, terms, sign == "-")
            sign = tokens[self.i][1]
            if sign != "+" and sign != "-":
                return out
            self.i += 1
            mixed = self.term()

    def power(self):
        """``(k, position)`` of the ``^k`` that starts at the current token."""
        kind, value, pos = self.tokens[self.i + 1]
        if kind != "int" or value < 1:
            raise ParseError("exponent must be a positive integer", pos)
        self.i += 2
        return value, pos

    def product(self, a: dict, b: dict, pos: int) -> dict:
        """``mixed_mul(a, b)``, with a degree past the limit reported at ``pos``."""
        try:
            return mixed_mul(a, b, self.limit)
        except ValueError as error:
            raise ParseError(str(error), pos) from None

    def term(self) -> dict:
        """A product: its numbers, variables and differentials multiply into
        one monomial ``coeff * word * d(diffs)``, with the differentials
        kept in order of appearance; the parenthesized factors wedge into
        ``product``, which the monomial then ends."""
        tokens, index, units, limit = self.tokens, self.index, self.units, self.limit
        coeff, word, diffs = 1, 0, []
        product = None
        start = tokens[self.i][2]
        while True:
            kind, value, pos = tokens[self.i]
            self.i += 1
            if kind == "name":
                i = index.get(value)
                if i is not None:
                    word += units[i] * self.power()[0] if tokens[self.i][1] == "^" else units[i]
                    if word >= limit:
                        raise ParseError(str(_degree_error(self.degree(word))), pos)
                elif value.startswith("d") and value[1:] in index:
                    if not self.allow_differentials:
                        raise ParseError(
                            f"differential {value!r} is not allowed in a polynomial expression", pos
                        )
                    if tokens[self.i][1] == "^":
                        raise ParseError("'^' applies only to polynomial factors", self.power()[1])
                    diffs.append(index[value[1:]])
                else:
                    raise ParseError(f"unknown variable {value!r}", pos)
            elif kind == "int" or kind == "ratio":
                coeff *= value ** self.power()[0] if tokens[self.i][1] == "^" else value
            elif value == "(":
                sub = self.group()
                if len(diffs) % 2:
                    # the group moves in front of an odd number of
                    # differentials: its odd-degree parts change sign
                    sub = {key: {m: -c for m, c in p.items()} if len(key) % 2 else p
                           for key, p in sub.items()}
                product = sub if product is None else self.product(product, sub, pos)
            else:
                raise ParseError(
                    f"unexpected token {value!r}" if value else "unexpected end of input", pos
                )
            if tokens[self.i][1] != "*":
                break
            self.i += 1
        if not coeff:
            return {}
        key = ()
        if diffs:
            key = tuple(sorted(diffs))
            if len(set(key)) < len(key):
                return {}
            if sum(1 for j, a in enumerate(diffs) for b in diffs[j + 1 :] if a > b) % 2:
                coeff = -coeff
        monomial = {key: {word: coeff}}
        if product is None:
            return monomial
        if coeff == 1 and not key and not word:
            return product
        return self.product(product, monomial, start)

    def group(self) -> dict:
        """A parenthesized expression after its ``(``, with its power."""
        mixed = self.expression()
        self.expect_op(")")
        if self.tokens[self.i][1] != "^":
            return mixed
        k, pos = self.power()
        if any(key for key in mixed):
            raise ParseError("'^' applies only to polynomial factors", pos)
        base = power = mixed.get((), {})
        try:
            for _ in range(k - 1):
                power = _mul_terms(power, base, self.limit)
        except ValueError as error:
            raise ParseError(str(error), pos) from None
        return {(): power} if power else {}


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
