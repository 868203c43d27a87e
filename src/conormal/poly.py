"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent tuples to nonzero exact rational
coefficients, attached to a :class:`PolynomialRing` that fixes the variable
names and their order.  Values are immutable after construction and every
operation returns a fresh polynomial, so instances can be shared freely.

A coefficient is a plain ``int`` when it is integral and a ``Fraction``
otherwise, never a float: integer arithmetic skips the ``gcd`` that every
``Fraction`` operation pays.  Construction, ``scale``, ``monic``, :func:`_div`
and :func:`evaluate` give integral values as ``int`` (:func:`_norm`); sums
and products may keep a ``Fraction`` with denominator 1, which compares and
hashes equal to the ``int``.  Every division of coefficients goes through
:func:`_div`, because ``int / int`` is a float; two ints build a ``Fraction``
there only when the quotient is not integral.

Monomials are plain tuples of non-negative integers (one entry per ring
variable); the helpers below implement, on C-level ``map``, the little
divisibility lattice that the Groebner machinery needs.  A
:class:`MonomialOrder` picks its key function once and compares and hashes
by identity.  :func:`support_mask` packs the set of variables a monomial
involves into an int, a cheap necessary condition for divisibility
(Singular's "short exponent vector").

:func:`_mul_terms` and :func:`_add_terms` are the one product and sum kernel
over raw term dicts ``{exponents: coefficient}``.  ``Polynomial.__mul__`` and
``__add__`` call them, and so do ``Polynomial.substitute``, the expression
parser and ``forms.wedge``, which build a ``Polynomial`` only for each final
result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, le, neg, sub
from typing import Callable, Iterator, Mapping, Sequence, Union

Exponents = tuple  # tuple[int, ...]
Scalar = Union[int, Fraction]


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def support_mask(m: Exponents) -> int:
    """The int whose bit i is set iff x_i occurs in ``m``.

    If a divides b then ``support_mask(a) & ~support_mask(b) == 0``, and the
    mask of lcm(a, b) is the union of the two masks.
    """
    mask, bit = 0, 1
    for e in m:
        if e:
            mask |= bit
        bit <<= 1
    return mask


def _rational(value) -> Fraction:
    """``value`` as an exact ``Fraction``; a float raises ``TypeError``, as
    ``x * 0.1`` does, because its binary value is not the decimal it shows."""
    if isinstance(value, float):
        raise TypeError(f"coefficients are exact rationals, not floats: {value!r}")
    return Fraction(value)


def _norm(c: Scalar) -> Scalar:
    """``c`` as an ``int`` when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, normalized by :func:`_norm`."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _norm(Fraction(a) / b)


def _grevlex_key(exps: Exponents):
    # a > b iff deg a > deg b, or degrees tie and the last nonzero entry of
    # a - b is negative; encoded so that plain tuple comparison agrees.
    return (sum(exps), tuple(map(neg, reversed(exps))))


@dataclass(frozen=True, eq=False)
class MonomialOrder:
    """A multiplicative well-order on monomials (the constant 1 is minimal).

    ``kind`` is one of ``lex``, ``grevlex``, ``block`` or ``top``.  A block
    order compares the first ``split`` exponents by grevlex, breaking ties
    with grevlex on the rest, which makes the first block an elimination
    block.  ``top`` (term over position) encodes a vector (p_1, ..., p_r) of a
    free module as the polynomial sum e_i*p_i, with the ``split`` = r
    position variables e_i in front: it compares the rest by grevlex and
    breaks ties by position, the lower position winning.

    ``key`` is the sort key: ``key(a) > key(b)`` iff the monomial a is larger.
    Identity hashing lets a :meth:`Polynomial.divisor` cache hit run no Python.
    """

    kind: str
    split: int = 0
    key: Callable = field(init=False, repr=False)

    def __post_init__(self):
        split = self.split
        key = {
            "lex": tuple,  # the identity on a tuple
            "grevlex": _grevlex_key,
            "top": lambda e: (_grevlex_key(e[split:]), e[:split]),
        }.get(self.kind, lambda e: (_grevlex_key(e[:split]), _grevlex_key(e[split:])))
        object.__setattr__(self, "key", key)

    def __str__(self) -> str:
        if self.kind in ("block", "top"):
            return f"{self.kind}({self.split})"
        return self.kind


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(split: int) -> MonomialOrder:
    """Elimination order whose first ``split`` variables form the top block."""
    if split < 0:
        raise ValueError("block split must be non-negative")
    return MonomialOrder("block", split)


_NAME_OK = re.compile(r"[A-Za-z_]\w*\Z")


class PolynomialRing:
    """The ring Q[x_1, ..., x_n] with a fixed, ordered tuple of variable names.

    No name is ``d`` followed by another name of the ring: the parser reads
    ``d<var>`` as a differential, so ``dx`` beside ``x`` would be ambiguous.
    """

    __slots__ = ("variables", "_index")

    def __init__(self, variables: Sequence[str]):
        names = tuple(variables)
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for name in names:
            if not _NAME_OK.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        self.variables = names
        self._index = {name: i for i, name in enumerate(names)}
        for name in names:
            if name.startswith("d") and name[1:] in self._index:
                raise ValueError(
                    f"variable name {name!r} reads as the differential of {name[1:]!r}"
                )

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range for {self}")
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1}, _clean=True)

    def gens(self) -> tuple:
        return tuple(self.var(i) for i in range(self.nvars))

    def const(self, value: Scalar) -> "Polynomial":
        c = _norm(_rational(value))
        if c == 0:
            return Polynomial(self, {}, _clean=True)
        return Polynomial(self, {(0,) * self.nvars: c}, _clean=True)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {}, _clean=True)

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialRing) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"PolynomialRing({', '.join(self.variables)})"

    def __str__(self) -> str:
        return "(" + ", ".join(self.variables) + ")"


def same_ring(*objs) -> PolynomialRing:
    """Return the common ring of the arguments, raising on a mismatch."""
    ring = objs[0].ring
    for o in objs[1:]:
        if o.ring is not ring and o.ring != ring:
            raise ValueError(f"ring mismatch: {o.ring} vs {ring}")
    return ring


def _add_terms(p: Mapping, q: Mapping) -> dict:
    """The term dict of the sum of two term dicts; zero sums are dropped."""
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def _mul_terms(p: Mapping, q: Mapping) -> dict:
    """The term dict of the product of two term dicts; zero sums are dropped."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


class Polynomial:
    """An immutable sparse polynomial with exact rational coefficients.

    Each coefficient is nonzero, and an ``int`` or a ``Fraction``: see the
    module docstring.
    """

    __slots__ = ("ring", "_terms", "_lead")

    def __init__(self, ring: PolynomialRing, terms: Mapping, *, _clean: bool = False):
        self.ring = ring
        if _clean:
            self._terms = dict(terms) if not isinstance(terms, dict) else terms
        else:
            clean = {}
            n = ring.nvars
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 or not isinstance(e, int) for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for ring {ring}")
                c = _rational(coeff)
                if c != 0:
                    clean[exps] = clean.get(exps, 0) + c
            self._terms = {m: _norm(c) for m, c in clean.items() if c != 0}
        self._lead = {}

    @property
    def terms(self) -> Mapping:
        """The term dict (treat as read-only)."""
        return self._terms

    def items(self) -> Iterator:
        return iter(self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Total degree, with -1 as the degree of the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def leading(self, order: MonomialOrder):
        """The (monomial, coefficient) pair maximal under ``order``; None if zero."""
        if not self._terms:
            return None
        return self.divisor(order)[1:3]

    def divisor(self, order: MonomialOrder) -> tuple:
        """``(mask, lm, lc, tail)``: what division by this nonzero polynomial
        reads under ``order``.  ``lm`` and ``lc`` are the leading monomial and
        coefficient, ``mask`` is ``support_mask(lm)`` and ``tail`` holds the
        other terms as (monomial, coefficient) pairs.  Cached per order."""
        cached = self._lead.get(order)
        if cached is None:
            terms = self._terms
            lm = max(terms, key=order.key)
            tail = tuple(t for t in terms.items() if t[0] != lm)
            cached = self._lead[order] = (support_mask(lm), lm, terms[lm], tail)
        return cached

    def monic(self, order: MonomialOrder) -> "Polynomial":
        lead = self.leading(order)
        if lead is None or lead[1] == 1:
            return self
        c = lead[1]
        return Polynomial(self.ring, {m: _div(v, c) for m, v in self._terms.items()}, _clean=True)

    def scale(self, c: Scalar) -> "Polynomial":
        c = _norm(_rational(c))
        if c == 0:
            return self.ring.zero
        return Polynomial(
            self.ring, {m: _norm(v * c) for m, v in self._terms.items()}, _clean=True
        )

    def constant_coefficient(self) -> Scalar:
        return self._terms.get((0,) * self.ring.nvars, 0)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and not any(next(iter(self._terms))))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _add_terms(self._terms, other._terms), _clean=True)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self._terms.items()}, _clean=True)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        same_ring(self, other)
        return Polynomial(self.ring, _mul_terms(self._terms, other._terms), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = self.ring.one
        for _ in range(exp):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            same_ring(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._terms.items())))

    def substitute(self, ring: PolynomialRing, images: Sequence["Polynomial"]) -> "Polynomial":
        """Apply the ring map sending variable i to ``images[i]`` (all in ``ring``).

        This is the one ring map of the package.  It runs on raw term dicts
        through :func:`_mul_terms`: the powers of each image are built as
        they are needed, and every term adds into one accumulating dict.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("one image per variable required")
        if same_ring(*images) != ring:
            raise ValueError(f"ring mismatch: {images[0].ring} vs {ring}")
        one = {(0,) * ring.nvars: 1}
        powers = [[one, p._terms] for p in images]  # powers[i][e]: the terms of images[i]^e
        out: dict = {}
        for exps, c in self._terms.items():
            term = one
            for i, e in enumerate(exps):
                if e:
                    cache = powers[i]
                    while len(cache) <= e:
                        cache.append(_mul_terms(cache[-1], cache[1]))
                    term = cache[e] if term is one else _mul_terms(term, cache[e])
            for m, v in term.items():
                s = out.get(m, 0) + c * v
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Polynomial(ring, out, _clean=True)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)} over {self.ring}>"


def _format_coeff(c: Scalar) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Polynomial) -> str:
    """Canonical rendering: terms in descending grevlex, ``*`` and ``^`` explicit."""
    if not p.terms:
        return "0"
    chunks = []
    for exps in sorted(p.terms, key=GREVLEX.key, reverse=True):
        c = p.terms[exps]
        factors = []
        for name, e in zip(p.ring.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([_format_coeff(mag)] + factors)
        else:
            body = _format_coeff(mag)
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse an expression with ``+ - * ^``, integer/rational literals and
    ring variables into a canonical polynomial.

    Raises :class:`~conormal._expr.ParseError` (a ``ValueError``) with the
    offending position on syntax errors or unknown names.
    """
    from ._expr import parse_mixed_text

    return parse_mixed_text(text, ring, allow_differentials=False).get((), ring.zero)


def partial_derivative(p: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to the i-th ring variable."""
    n = p.ring.nvars
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range (ring has {n} variables)")
    out = {}
    for exps, c in p.terms.items():
        e = exps[i]
        if e:
            out[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
    return Polynomial(p.ring, out, _clean=True)


def evaluate(p: Polynomial, point: Sequence[Scalar]) -> Scalar:
    """Exact value of ``p`` at a rational point, normalized by :func:`_norm`."""
    if len(point) != p.ring.nvars:
        raise ValueError(f"point has {len(point)} coordinates, ring has {p.ring.nvars}")
    coords = [v if type(v) is int else _rational(v) for v in point]
    total = 0
    for exps, c in p.terms.items():
        v = c
        for x, e in zip(coords, exps):
            if e:
                v *= x**e
        total += v
    return _norm(total)
