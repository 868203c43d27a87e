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

The parse result is a raw mixed form ``{index tuple: {word: coefficient}}``:
strictly increasing index tuples map to the nonzero term dicts of their
coefficients, with the packed monomial words of :mod:`conormal.poly`, and
the empty tuple holds the scalar part.  It is the representation a
``forms.DifferentialForm`` keeps, and this module makes no ``Polynomial``:
``poly.parse_polynomial`` and ``forms.parse_form`` wrap the result once.

The parser works on raw mixed forms throughout.  A term multiplies its
numbers, variables and differentials, with their powers, straight into one
accumulated monomial (a coefficient, a word and an increasing index tuple:
each differential is wedged on at the right, with the sign
:func:`wedge_index_tuples` gives, and a repeated one makes the coefficient
zero).  A term without a parenthesized factor adds that monomial straight
into its expression's dict; a parenthesized factor is a mixed form of its
own, wedged in with :func:`mixed_mul`, and a term with one adds its product
into the dict in place.  ``(e)^k`` and a literal's ``c^k`` are
``poly._pow_terms``, which refuses a power past ``poly.MAX_DEGREE`` before
it multiplies, and a constant power past ``poly.MAX_POWER_BITS`` before it
computes it.  Any total degree past that bound is a :class:`ParseError` at
the factor that makes it, and a refused power is one at its exponent.  A
literal, exponent or denominator is read by ``poly._read_int``, and one of
more than ``poly.MAX_POWER_BITS`` bits is a :class:`ParseError` at its token.

The exterior algebra has one sign rule: the sign of ``dx_S ^ dx_T`` is
:func:`wedge_index_tuples`, kept per pair in ``_WEDGE``.  The parser,
:func:`mixed_mul` and, in :mod:`conormal.forms`, ``exterior_derivative``
and the vector-field map take their signs from it.  :func:`mixed_mul` is
the one product of raw mixed forms: the parser's parenthesized factors,
``forms.wedge``, ``d``, pullback and the rows dx_idx ^ df_1 ^ ... ^ df_m
of ``germs.Germ._conormal_table`` call it.  :func:`_accumulate` is their one sum: it adds a coefficient's
terms with the sum kernel ``poly._add_into`` and drops a key whose terms
cancel.  Form addition, ``d``, pullback and the checked form constructor
add through it.  Here one fast path keeps a loop of its own, the
one-monomial add of :func:`_sum`; :mod:`conormal.poly` lists the others.

The tokens are the plain strings of one ``findall``, and the parser walks
them with an index, one call of :func:`_sum` per parenthesized expression.
Their offsets in the text are found only for an error, by running
``finditer`` over the same pattern (:func:`_offset`); the end of the input
is at ``len(text)``, past any trailing whitespace.  A stray character or a
zero denominator is reported before any other error, wherever it is, as
when the whole text was tokenized first: :func:`_scan` finds it before the
parse.  Only a character outside the ASCII letters, digits, ``_``, the
operators and whitespace can make one, so a text without such a character
skips the scan; with no ``p/q`` literal, its arithmetic is on ``int``s
alone, and it also skips the pass that normalizes coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from .poly import (
    PolynomialRing,
    _add_into,
    _degree_error,
    _mul_terms,
    _norm,
    _pow_terms,
    _read_int,
)


class ParseError(ValueError):
    """Syntax or name error; ``position`` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Error(Exception):
    """A parse error at a token index, raised inside the parse; the entry
    point turns it into a :class:`ParseError` at that token's offset."""


# One match per token: a number (an integer or a ``p/q`` literal), a name,
# an operator, or any other non-space character, which is stray.  Only
# whitespace matches nothing, and the search steps over it in linear time.
_TOKEN = re.compile(r"\d+(?:\s*/\s*\d+)?|[A-Za-z_]\w*|[-+*^()]|\S")
# A one-character token that is stray: no digit, name or operator.
_STRAY = re.compile(r"[^\dA-Za-z_+\-*^()]")
# A character that can start a stray token or a ``p/q`` literal.  A text
# without one has neither, and needs no scan before the parse.
_ODD = re.compile(r"[^\sA-Za-z0-9_+\-*^()]")
# The tokens that cannot start a factor: the operators but '(', and the end.
_NOT_ATOMS = frozenset(("+", "-", "*", "^", ")", ""))


def _scan(text: str) -> None:
    """Raise at the first stray character or zero denominator of ``text``.

    The parse reads tokens in order, so without this scan a syntax error
    earlier in the text would win; these two are reported first.
    """
    for match in _TOKEN.finditer(text):
        token = match.group()
        if len(token) == 1:
            if _STRAY.match(token):
                raise ParseError(f"unexpected character {token!r}", match.start())
        elif "/" in token and not token.partition("/")[2].lstrip().lstrip("0"):
            raise ParseError("zero denominator", match.start())


def _offset(text: str, n: int) -> int:
    """The offset of token ``n`` of ``text``; ``len(text)`` for the end."""
    for match in islice(_TOKEN.finditer(text), n, None):
        return match.start()
    return len(text)


def _literal(tokens: list, i: int):
    """The value of the number token ``i``: an ``int``, or a ``p/q`` literal
    normalized by :func:`_norm`; its denominator is not zero.  A number past
    ``poly.MAX_POWER_BITS`` bits is an error at the token."""
    num, slash, den = tokens[i].partition("/")
    try:
        if slash:
            return _norm(Fraction(_read_int(num.rstrip()), _read_int(den.lstrip())))
        return _read_int(num)
    except ValueError as error:
        raise _Error(str(error), i) from None


def wedge_index_tuples(s: tuple, t: tuple):
    """Merge two strictly increasing index tuples.

    Returns ``(sign, merged)`` where sign is the parity of the shuffle, or
    ``None`` when the tuples share an index (the wedge is zero):
    ``dx_s ^ dx_t = sign * dx_merged``, the package's one sign rule.
    """
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
    in place with ``poly._add_into``, and drop the key if its terms cancel.
    A new key gets a fresh dict, so ``terms`` itself is neither changed nor
    shared with ``out``."""
    if not _add_into(out.setdefault(key, {}), terms, negate):
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


def _power(tokens: list, i: int) -> int:
    """The exponent at token ``i``, just after a ``^``."""
    token = tokens[i]
    try:
        k = _read_int(token) if token.isdecimal() else 0
    except ValueError as error:
        raise _Error(str(error), i) from None
    if k < 1:
        raise _Error("exponent must be a positive integer", i)
    return k


def _product(a: dict, b: dict, limit: int, at: int) -> dict:
    """``mixed_mul(a, b)``, with a degree past the limit reported at token ``at``."""
    try:
        return mixed_mul(a, b, limit)
    except ValueError as error:
        raise _Error(str(error), at) from None


def _sum(tokens: list, i: int, ring: PolynomialRing, allow_differentials: bool):
    """``(mixed, j)``: the expression that starts at token ``i``, and the
    index of the token after it.

    A term multiplies its numbers, variables and differentials into one
    monomial ``coeff * word * dx_key``, each differential wedged on at the
    right of ``key`` through :func:`wedge_index_tuples`; the parenthesized
    factors wedge into ``product``, which the monomial then ends.  A term
    without one adds its monomial straight into ``out``, a fast path that
    is :func:`_accumulate` of one term: through ``_accumulate`` a direct
    parse of the seed-1 ``decide`` benchmark texts read 5-10% slower.
    """
    index, units, limit = ring._index, ring.units, ring.limit
    out: dict = {}
    token = tokens[i]
    negate = token == "-"
    if negate or token == "+":
        i += 1
    while True:
        coeff, word, key, product = 1, 0, (), None
        start = i
        while True:
            token = tokens[i]
            i += 1
            k = index.get(token)
            if k is not None:
                if tokens[i] == "^":
                    word += units[k] * _power(tokens, i + 1)
                    i += 2
                else:
                    word += units[k]
                if word >= limit:  # reported at the name, before its ^k
                    power = _power(tokens, i - 1) if tokens[i - 2] == "^" else 1
                    at = i - 3 if tokens[i - 2] == "^" else i - 1
                    # A power may overflow its field: add it to the degree of the word before it.
                    degree = ring.degree(word - units[k] * power) + power
                    raise _Error(str(_degree_error(degree)), at)
            elif token == "(":
                at = i - 1
                sub, i = _sum(tokens, i, ring, allow_differentials)
                if tokens[i] != ")":
                    raise _Error("expected ')'", i)
                i += 1
                if tokens[i] == "^":
                    k = _power(tokens, i + 1)
                    if any(sub):
                        raise _Error("'^' applies only to polynomial factors", i + 1)
                    try:
                        power = _pow_terms(sub.get((), {}), k, limit)
                    except ValueError as error:
                        raise _Error(str(error), i + 1) from None
                    sub = {(): power} if power else {}
                    i += 2
                if len(key) % 2:
                    # the group moves in front of an odd number of
                    # differentials: its odd-degree parts change sign
                    sub = {idx: {m: -c for m, c in p.items()} if len(idx) % 2 else p
                           for idx, p in sub.items()}
                product = sub if product is None else _product(product, sub, limit, at)
            elif token.isdecimal() or "/" in token:  # after the scan, "/" is in numbers only
                value = _literal(tokens, i - 1)
                if tokens[i] == "^":
                    try:
                        value = _pow_terms({0: value}, _power(tokens, i + 1), limit)[0]
                    except ValueError as error:
                        raise _Error(str(error), i + 1) from None
                    i += 2
                coeff *= value
            elif token in _NOT_ATOMS:
                raise _Error(
                    f"unexpected token {token!r}" if token else "unexpected end of input", i - 1
                )
            elif token.startswith("d") and token[1:] in index:
                if not allow_differentials:
                    raise _Error(
                        f"differential {token!r} is not allowed in a polynomial expression", i - 1
                    )
                if tokens[i] == "^":
                    _power(tokens, i + 1)
                    raise _Error("'^' applies only to polynomial factors", i + 1)
                t = (index[token[1:]],)
                try:
                    merged = _WEDGE[key, t]
                except KeyError:
                    merged = _WEDGE[key, t] = wedge_index_tuples(key, t)
                if merged is None:  # a repeated differential: the term is zero
                    coeff = 0
                else:
                    sign, key = merged
                    coeff *= sign
            else:
                raise _Error(f"unknown variable {token!r}", i - 1)
            if tokens[i] != "*":
                break
            i += 1
        if product is None:
            if coeff:
                if negate:
                    coeff = -coeff
                terms = out.get(key)
                if terms is None:
                    out[key] = {word: coeff}
                else:
                    s = terms.get(word, 0) + coeff
                    if s:
                        terms[word] = s
                    else:
                        del terms[word]
                        if not terms:
                            del out[key]
        elif coeff:
            if coeff != 1 or key or word:
                product = _product(product, {key: {word: coeff}}, limit, start)
            if out or negate:
                for key, terms in product.items():
                    _accumulate(out, key, terms, negate)
            else:
                out = product  # a fresh dict that nothing else holds
        token = tokens[i]
        if token == "+":
            negate = False
        elif token == "-":
            negate = True
        else:
            return out, i
        i += 1


def parse_mixed_text(text: str, ring: PolynomialRing, allow_differentials: bool) -> dict:
    """The raw mixed form of ``text``, a fresh dict of fresh term dicts.

    Its integral coefficients are ``int``s, even where the arithmetic of
    parsing left a ``Fraction`` (``2*1/2``).  A text without a ``p/q``
    literal is parsed with ``int`` arithmetic alone, so it needs no pass
    that normalizes them.
    """
    odd = _ODD.search(text) is not None
    if odd:
        _scan(text)
    tokens = _TOKEN.findall(text)
    tokens.append("")
    try:
        mixed, i = _sum(tokens, 0, ring, allow_differentials)
        token = tokens[i]
        if token:
            shown = token if token[0].isdecimal() else repr(token)
            raise _Error(f"unexpected trailing input {shown}", i)
    except _Error as error:
        message, at = error.args
        raise ParseError(message, _offset(text, at)) from None
    if odd:
        return {key: {m: _norm(c) for m, c in terms.items()} for key, terms in mixed.items()}
    return mixed
