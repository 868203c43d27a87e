"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial maps monomials to nonzero exact rational coefficients, and is
attached to a :class:`PolynomialRing` that fixes the variable names and
their order.  Values are immutable after construction and every operation
returns a fresh polynomial, so instances can be shared freely.

A coefficient is a plain ``int`` when it is integral and a ``Fraction``
otherwise, never a float: integer arithmetic skips the ``gcd`` that every
``Fraction`` operation pays.  Construction, ``scale``, ``substitute``,
:func:`_div` and :func:`evaluate` give integral values as ``int``
(:func:`_norm`); sums and products may keep a ``Fraction`` with denominator
1, which compares and hashes equal to the ``int``.  No coefficient is
divided with ``/``, because ``int / int`` is a float: a rational quotient
goes through :func:`_div`, where two ints build a ``Fraction`` only when
the quotient is not integral.  Integer code divides
exactly with ``//``: :func:`_integral`, the integer multiple of a term
dict, as which ``Polynomial.substitute`` raises an image of two or more
terms and from which :func:`_primitive_terms` starts;
:func:`_primitive_terms`, which gives the records of
:meth:`Polynomial.divisor` the primitive integer associate of a
polynomial; and the fraction-free division of :mod:`conormal.groebner`,
which reads those records.

Inside the package a monomial is one ``int``, a packed exponent word
(Bachmann-Schoenemann 1998, Monagan-Pearce 2007).  Its layout in a ring of
n variables:

* the exponent of variable i sits in field i, bits ``[i*WIDTH, (i+1)*WIDTH)``;
  the top bit of each field is a guard bit, never set in a monomial;
* the total degree sits in an unbounded field above them, from bit
  ``n*WIDTH`` on.

Every total degree is at most ``MAX_DEGREE`` = 2^(WIDTH-1) - 1: the
constructor, the parser and every product kernel refuse a larger one with a
``ValueError``.  Below that bound no field reaches its guard bit, and the
sum of two fields never carries into the next one.  So a product is
``a + b``, a quotient ``a - b``, and ``a`` divides ``b`` iff
``((b | G) - a) & G == G``, where G has every guard bit set.  The lcm is a
per-field maximum on the whole word (:meth:`PolynomialRing.lcm`); two
monomials are coprime iff their lcm is their product.  Ints compare by
total degree first, and the grevlex key is the word XOR-ed with the mask of
the variable fields, a C-level ``int.__xor__``; it is also the key of the
module order ``top``, and ``pot`` takes the block key (see
:class:`MonomialOrder`).  One width serves every ring, with no repacking
and no second representation; the layout depends only on the number of
variables, and :class:`MonomialOrder` builds its key per number.

The layout is this module's alone: no other module imports ``FIELD`` or
``WIDTH``.  A word moves into a ring with more variables through the one
word map :func:`_embedding`, which :mod:`conormal.groebner` uses for the
ring with the Rabinowitsch variable and for the position ring of a
submodule; a word is read back through ``unpack`` and ``pack``.

Tuples of exponents are the public boundary: ``Polynomial(ring, {exponent
tuple: coefficient})`` packs them (:meth:`PolynomialRing.pack`) and
:attr:`Polynomial.terms` unpacks them.  The parser reads ``x^k`` straight
into a word, and :func:`format_polynomial` unpacks each word it prints.

Raw term dicts ``{word: coefficient}`` have one product kernel,
:func:`_mul_terms`, which adds a product into a dict, and one sum kernel,
:func:`_add_into`, which adds a term dict into one in place.  Every sum of
term dicts in the package runs through one of the two: ``Polynomial``
arithmetic and its checked constructor, ``Polynomial.substitute`` (each
term is a product with its coefficient), the parser's sums
(``_expr._accumulate``) and every form operation of :mod:`conormal.forms`,
which keep forms as raw term dicts and build a ``Polynomial`` only when a
coefficient is read.  Six fast paths keep a loop of their own, each for
its reason: the division and S-combination kernels of
:mod:`conormal.groebner` (``_remainder`` and ``_s_terms``), which pair a
coefficient with the tuple tail of a divisor record; the parser's
one-monomial add in ``_expr._sum``; the sum of c*NF(m) in
``groebner.ideal_membership``, which scales the ``(word, coefficient)``
tuples of an ideal's table of normal forms; and the two sums of
``germs._Table`` (``_fill`` and ``normal_forms``), which add scaled
normal forms into dicts keyed by one int code per (key, word), not by
words.

:func:`_pow_terms` is the one power kernel, behind ``Polynomial.__pow__``
and the parser's powers ``(e)^k`` and ``c^k`` of a literal.  It refuses a
power past ``MAX_DEGREE`` before it makes any product, and a constant
power whose coefficient would have more than ``MAX_POWER_BITS`` bits before
it computes it.

:func:`_read_int` and :func:`_format_number` are the one pair that reads
and prints numbers: the parser's literals and exponents, and the
coefficients :func:`format_polynomial` prints.  Neither depends on
``sys.get_int_max_str_digits()``, and ``_read_int`` refuses a number of
more than ``MAX_POWER_BITS`` bits, so a long literal is bounded as a
literal's power is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

WIDTH = 16  # bits per exponent field, its guard bit included
FIELD = (1 << WIDTH) - 1
MAX_DEGREE = (1 << (WIDTH - 1)) - 1  # the largest total degree a monomial may have
MAX_POWER_BITS = 1 << 16  # bound on the bits of a constant power, checked before computing it


# int() and str() convert up to this many decimal digits under every
# sys.get_int_max_str_digits() setting (its least nonzero value is 640), and
# a number of at most _SHORT_BITS bits has no more digits than that.
_SHORT_DIGITS, _SHORT_BITS = 600, 1990
# The most decimal digits of a number of MAX_POWER_BITS bits.
_MAX_DIGITS = MAX_POWER_BITS * 30103 // 100000 + 1


def _read_int(digits: str) -> int:
    """The value of a string of decimal digits, at any
    ``sys.get_int_max_str_digits()``.  A value of more than
    ``MAX_POWER_BITS`` bits raises ``ValueError``, a long string before it
    is converted."""
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    digits = digits.lstrip("0")
    value = _digits_value(digits) if len(digits) <= _MAX_DIGITS else None
    if value is None or value.bit_length() > MAX_POWER_BITS:
        raise ValueError(f"number of {len(digits)} digits is past the limit {MAX_POWER_BITS} bits")
    return value


def _digits_value(digits: str) -> int:
    # Halve the string until int() takes each piece.
    if len(digits) <= _SHORT_DIGITS:
        return int(digits or "0")
    half = len(digits) // 2
    return _digits_value(digits[:-half]) * 10**half + _digits_value(digits[-half:])


def _format_number(c: Scalar) -> str:
    """``str(c)`` of an ``int`` or a ``Fraction``, at any
    ``sys.get_int_max_str_digits()``."""
    if type(c) is not int:
        num = _format_number(c.numerator)
        return num if c.denominator == 1 else f"{num}/{_format_number(c.denominator)}"
    if c.bit_length() <= _SHORT_BITS:
        return str(c)
    if c < 0:
        return "-" + _format_number(-c)
    half = c.bit_length() * 3 // 20  # about half of its digits
    high, low = divmod(c, 10**half)
    return _format_number(high) + _format_number(low).zfill(half)


def _degree_error(degree: int) -> ValueError:
    return ValueError(f"total degree {_format_number(degree)} is past the limit {MAX_DEGREE}")


def _check_degree(word: int, limit: int) -> None:
    """Raise unless ``word`` is below a ring's ``limit`` (see
    :attr:`PolynomialRing.limit`), i.e. its degree is at most MAX_DEGREE."""
    if word >= limit:
        raise _degree_error(word >> (limit.bit_length() - WIDTH))


def _ones(count: int) -> int:
    """The word with a one in each of fields 0 .. count-1."""
    return sum(1 << (i * WIDTH) for i in range(count))


def _reversed_fields(word: int, count: int) -> int:
    """Fields 0 .. count-1 of ``word`` in the opposite order."""
    out = 0
    for _ in range(count):
        out = (out << WIDTH) | (word & FIELD)
        word >>= WIDTH
    return out


def _rational(value) -> Fraction:
    """``value`` as an exact ``Fraction``; a float raises ``TypeError``, as
    ``x * 0.1`` does, because its binary value is not the decimal it shows."""
    if isinstance(value, float):
        raise TypeError(f"coefficients are exact rationals, not floats: {value!r}")
    return Fraction(value)


def _norm(c: Scalar) -> Scalar:
    """``c`` as an ``int`` when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def _scalar_terms(value) -> dict:
    """The term dict of the constant ``value``, normalized by :func:`_norm`."""
    c = _norm(_rational(value))
    return {0: c} if c else {}


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, normalized by :func:`_norm`."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _norm(Fraction(a) / b)


def _integral(terms: Mapping) -> tuple:
    """``(d, ints)``: d the lcm of the denominators of the coefficients of a
    term dict, and ints the integer term dict of d times it."""
    d = lcm(*[c.denominator for c in terms.values() if type(c) is not int])
    return d, {m: c * d if type(c) is int else c.numerator * (d // c.denominator)
               for m, c in terms.items()}


def _primitive_terms(terms: Mapping, lc: Scalar) -> dict:
    """The term dict of ``terms`` times the one rational u for which every
    coefficient is an integer, their gcd is 1 and ``lc`` times u is positive."""
    ints = _integral(terms)[1]
    k = gcd(*ints.values())
    if lc < 0:
        k = -k
    return ints if k == 1 else {m: c // k for m, c in ints.items()}


def _record(ints: Mapping, lm: int) -> tuple:
    """The divisor record ``(lm, a, tail, reach)`` of a primitive integer
    term dict whose leading word is ``lm`` (see :meth:`Polynomial.divisor`)."""
    tail = tuple((m, c) for m, c in ints.items() if m != lm)
    return lm, ints[lm], tail, max(tail)[0] if tail else 0


def _order_key(kind: str, split: int, n: int) -> Callable:
    """The sort key of an order on the words of a ring of ``n`` variables.

    A field sum below uses the multiplication by :func:`_ones`: field k of
    the product is the sum of fields 0 .. k, which stays below 2^WIDTH
    because a total degree does.
    """
    every = (1 << (n * WIDTH)) - 1
    if kind in ("grevlex", "top"):  # top is grevlex on module terms
        # Degree first, then the last variable's exponent, smaller winning.
        return every.__xor__
    if kind == "lex":
        return lambda m: _reversed_fields(m, n)
    # block and pot: [degree of the first s fields | those fields
    # complemented | degree of the rest | rest fields complemented], two
    # grevlex keys.
    s = min(split, n)
    low, bits, ones = (1 << (s * WIDTH)) - 1, s * WIDTH, _ones(s)
    sum_shift = (s - 1) * WIDTH if s else 0
    rest, rest_bits = (1 << ((n - s) * WIDTH)) - 1, (n - s) * WIDTH
    high_shift = rest_bits + WIDTH

    def block(m):
        p = m & low
        degree = (p * ones >> sum_shift) & FIELD
        head = (m >> bits) - (degree << rest_bits)
        return (((degree << bits) | (p ^ low)) << high_shift) | (head ^ rest)

    return block


@dataclass(frozen=True, eq=False)
class MonomialOrder:
    """A multiplicative well-order on monomials (the constant 1 is minimal).

    ``kind`` is one of ``lex``, ``grevlex``, ``block``, ``top`` or ``pot``.
    A block order compares the first ``split`` exponents by grevlex, breaking
    ties with grevlex on the rest, which makes the first block an elimination
    block.  The two module orders (Cox-Little-O'Shea, *Using Algebraic
    Geometry* ch. 5 sections 2 and 3) order the module terms x^a*e_i of R^r,
    r = ``split``, as words whose first r fields are the positions e_i.
    ``top`` (term over position) compares x^a by grevlex, then the lower
    position wins.  That is grevlex on such words, whose one position field
    is 1 and is compared last, so ``top`` takes grevlex's key; no code keys a
    word that is not a module term.  ``pot`` (position over term) compares
    the positions first, the lower one winning, then x^a by grevlex: the
    block key with the positions as the first block.

    ``key(ring)`` is the sort key on the ring's words: ``key(a) > key(b)``
    iff the monomial a is larger.  It is built once per number of variables.
    ``positions`` is the mask of the position fields under a module order,
    and 0 under the others.  Identity hashing lets a
    :meth:`Polynomial.divisor` cache hit run no Python.
    """

    kind: str
    split: int = 0
    positions: int = field(init=False, repr=False)
    _keys: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "block", "top", "pot"):
            raise ValueError(f"unknown order {self.kind!r}: use lex, grevlex, block, top or pot")
        module = self.kind in ("top", "pot")
        object.__setattr__(self, "positions", (1 << (self.split * WIDTH)) - 1 if module else 0)

    def key(self, ring: "PolynomialRing") -> Callable:
        n = len(ring.variables)
        key = self._keys.get(n)
        if key is None:
            key = self._keys[n] = _order_key(self.kind, self.split, n)
        return key

    def __str__(self) -> str:
        if self.kind in ("lex", "grevlex"):
            return self.kind
        return f"{self.kind}({self.split})"


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

    The ring also holds the constants of its word layout (see the module
    docstring): ``units[i]`` is the word of x_i, ``guards`` has every guard
    bit set, ``fields`` every bit of the variable fields, and ``limit`` is
    the smallest word whose total degree is past ``MAX_DEGREE``.
    """

    __slots__ = ("variables", "_index", "units", "guards", "fields", "limit", "_shift")

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
        n = len(names)
        self._shift = shift = n * WIDTH
        self.units = tuple((1 << (i * WIDTH)) | (1 << shift) for i in range(n))
        self.guards = _ones(n) << (WIDTH - 1)
        self.fields = (1 << shift) - 1
        self.limit = (MAX_DEGREE + 1) << shift

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def pack(self, exps: Sequence[int]) -> int:
        """The word of an exponent tuple; raises ``ValueError`` on a bad one."""
        if len(exps) != len(self.variables) or any(
            not isinstance(e, int) or e < 0 for e in exps
        ):
            raise ValueError(f"bad exponent tuple {tuple(exps)} for ring {self}")
        degree = sum(exps)
        if degree > MAX_DEGREE:
            raise _degree_error(degree)
        word = degree << self._shift
        for i, e in enumerate(exps):
            word |= e << (i * WIDTH)
        return word

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a word."""
        return tuple([(m >> shift) & FIELD for shift in range(0, self._shift, WIDTH)])

    def degree(self, m: int) -> int:
        """The total degree of a word."""
        return m >> self._shift

    def lcm(self, a: int, b: int) -> int:
        """The least common multiple: the larger exponent in each field.

        A field's guard bit survives ``(a | G) - b`` iff a's exponent there
        is the larger; the guards turn into masks of those fields, and the
        total degree is the field sum of the result.
        """
        guards, shift = self.guards, self._shift
        larger = ((a | guards) - b) & guards
        pick = larger - (larger >> (WIDTH - 1))
        word = (b ^ ((a ^ b) & pick)) & self.fields
        ones = guards >> (WIDTH - 1)
        return word | (((word * ones >> (shift - WIDTH)) & FIELD) << shift)

    def var(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range for {self}")
        return Polynomial(self, {self.units[i]: 1}, _clean=True)

    def gens(self) -> tuple:
        return tuple(self.var(i) for i in range(self.nvars))

    def const(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, _scalar_terms(value), _clean=True)

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


def _embedding(ring: PolynomialRing, target: PolynomialRing, first: int) -> Callable:
    """The word map of ``ring`` into ``target``, whose variables ``first``,
    ``first + 1``, ... are those of ``ring`` in order: the variable fields
    move up ``first`` fields, and the total degree moves to ``target``'s
    degree field.  It keeps products, so it keeps divisibility and lcms.
    When ``ring``'s variables are ``target``'s last ones, as in the position
    ring of a submodule, the map is one shift, a C-level bound method."""
    fields, up, shift, to = ring.fields, first * WIDTH, ring._shift, target._shift
    if to == shift + up:
        return up.__rlshift__
    return lambda m: ((m & fields) << up) | (m >> shift << to)


def _add_into(out: dict, terms: Mapping, negate: bool = False) -> dict:
    """Add the term dict ``terms``, negated if ``negate``, into ``out`` in
    place and return ``out``; zero sums are dropped and ``terms`` is not
    changed.  Into an empty ``out`` the terms are copied at C level."""
    if not out:
        out.update({m: -c for m, c in terms.items()} if negate else terms)
        return out
    for m, c in terms.items():
        s = out.get(m, 0) - c if negate else out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def _mul_terms(p: Mapping, q: Mapping, limit: int, out: dict = None, negate: bool = False) -> dict:
    """The term dict of the product of two term dicts, negated if
    ``negate``, added into ``out`` (a fresh dict by default) and returned;
    zero sums are dropped.

    ``limit`` is the ring's :attr:`PolynomialRing.limit`: the largest words
    of p and q have the largest degrees, so their sum is checked against it.
    """
    if out is None:
        out = {}
    if not p or not q:
        return out
    _check_degree(max(p) + max(q), limit)
    for m1, c1 in p.items():
        if negate:
            c1 = -c1
        for m2, c2 in q.items():
            m = m1 + m2
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def _pow_terms(p: Mapping, k: int, limit: int) -> dict:
    """The term dict of ``p`` to the power ``k >= 0``, a fresh dict.

    Over a domain the degree of a power is exact, k times the degree of p,
    so a power past ``MAX_DEGREE`` raises before any product is made.  A
    constant c is raised with one ``c ** k``, after a check: with b the bit
    length of the larger of c's numerator and denominator, that of ``c^k``
    has at least k * (b - 1) bits, and a bound past ``MAX_POWER_BITS``
    raises before the power is computed.  Any other p takes k - 1 products,
    and ``0^0`` is 1.
    """
    if not k:
        return {0: 1}
    if not p:
        return {}
    degree = k * (max(p) >> (limit.bit_length() - WIDTH))
    if degree > MAX_DEGREE:
        raise _degree_error(degree)
    if not degree:
        c = p[0]
        bits = k * (max(abs(c.numerator), c.denominator).bit_length() - 1)
        if bits > MAX_POWER_BITS:
            raise ValueError(
                f"coefficient ({_format_number(c)})^{_format_number(k)} of at least "
                f"{_format_number(bits)} bits is past the limit {MAX_POWER_BITS}"
            )
        return {0: c**k}
    out = dict(p)
    for _ in range(k - 1):
        out = _mul_terms(out, p, limit)
    return out


class Polynomial:
    """An immutable sparse polynomial with exact rational coefficients.

    Each coefficient is nonzero, and an ``int`` or a ``Fraction``: see the
    module docstring.  ``Polynomial(ring, terms)`` takes exponent tuples as
    keys; ``_clean=True`` takes a term dict keyed by words, as it is.
    """

    __slots__ = ("ring", "_terms", "_lead", "_tuples")

    def __init__(self, ring: PolynomialRing, terms: Mapping, *, _clean: bool = False):
        self.ring = ring
        if _clean:
            self._terms = dict(terms) if not isinstance(terms, dict) else terms
        else:
            clean: dict = {}
            for exps, coeff in terms.items():
                m, c = ring.pack(tuple(exps)), _rational(coeff)
                if c:
                    _add_into(clean, {m: c})
            self._terms = {m: _norm(c) for m, c in clean.items()}
        self._lead = self._tuples = None  # made on first use

    @property
    def terms(self) -> dict:
        """The term dict ``{exponent tuple: coefficient}``, unpacked on the
        first read and kept (treat as read-only)."""
        if self._tuples is None:
            unpack = self.ring.unpack
            self._tuples = {unpack(m): c for m, c in self._terms.items()}
        return self._tuples

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def divisor(self, order: MonomialOrder) -> tuple:
        """``(lm, a, tail, reach)``: what division by this nonzero
        polynomial reads under ``order``, taken from its primitive integer
        associate, the multiple whose coefficients are integers with gcd 1
        and whose leading one, ``a``, is positive.  ``lm`` is the leading
        word, ``tail`` holds the associate's other terms as (word, integer)
        pairs, and ``reach`` is the largest word of the tail (0 without
        one), which bounds the degree a division step makes.  A polynomial
        and its nonzero multiples share the record.  Cached per order.  The
        zero polynomial has no leading term, so it raises ``ValueError``."""
        records = self._lead
        if records is None:
            records = self._lead = {}
        cached = records.get(order)
        if cached is None:
            terms = self._terms
            if not terms:
                raise ValueError("the zero polynomial has no leading term")
            lm = max(terms, key=order.key(self.ring))
            cached = records[order] = _record(_primitive_terms(terms, terms[lm]), lm)
        return cached

    def primitive(self, order: MonomialOrder) -> "Polynomial":
        """The primitive integer associate of :meth:`divisor`, which keeps
        this polynomial's record for ``order``; ``self`` if it is one."""
        if not self._terms:
            return self
        record = lm, a, tail, _ = self.divisor(order)
        if self._terms[lm] == a:
            return self
        p = Polynomial(self.ring, dict(tail), _clean=True)
        p._terms[lm] = a
        p._lead = {order: record}
        return p

    def scale(self, c: Scalar) -> "Polynomial":
        c = _norm(_rational(c))
        if c == 0:
            return self.ring.zero
        return Polynomial(
            self.ring, {m: _norm(v * c) for m, v in self._terms.items()}, _clean=True
        )

    def constant_coefficient(self) -> Scalar:
        return self._terms.get(0, 0)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _add_into(dict(self._terms), other._terms), _clean=True)

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
        ring = same_ring(self, other)
        return Polynomial(ring, _mul_terms(self._terms, other._terms, ring.limit), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        ring = self.ring
        return Polynomial(ring, _pow_terms(self._terms, exp, ring.limit), _clean=True)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            same_ring(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        # A constant equals its number whatever its ring, so equality stays
        # transitive across rings: R.one == 1 == S.one and R.one == S.one.
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = self._terms
        return terms == other._terms and (self.ring == other.ring or _constant(terms))

    def __hash__(self) -> int:
        # A constant equals its number, so it hashes as that number.
        terms = self._terms
        if _constant(terms):
            return hash(terms.get(0, 0))
        return hash((self.ring, frozenset(terms.items())))

    def substitute(self, ring: PolynomialRing, images: Sequence["Polynomial"]) -> "Polynomial":
        """Apply the ring map sending variable i to ``images[i]`` (all in ``ring``).

        This is the one ring map of the package: elimination, the
        parametrization check, ``forms.pullback`` and the restriction to a
        hyperplane in :mod:`conormal.geometry` use it.

        An image of one term (a variable or a monomial) moves the word and
        scales the coefficient, with no product.  Any other image, 0
        included, is raised as its integer multiple d_i * images[i], d_i the
        lcm of its denominators (:func:`_integral`), its powers built through
        :func:`_mul_terms` as they are needed.  A term whose exponent of
        variable i is e is then scaled by d_i^(top_i - e), top_i the largest
        such exponent in ``self``; the terms are added into one accumulating
        dict, and each coefficient of the sum is divided once, by the
        product of the d_i^top_i, so the result is exact and normalized.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("one image per variable required")
        if same_ring(*images) != ring:
            raise ValueError(f"ring mismatch: {images[0].ring} vs {ring}")
        one, limit, terms = {0: 1}, ring.limit, self._terms
        plan, whole = [], 1  # plan[i]: (d_i, top_i, word, coefficient, powers) of image i
        for i, image in enumerate(images):
            d, ints = _integral(image._terms) if len(image._terms) > 1 else (1, image._terms)
            top = max(((m >> i * WIDTH) & FIELD for m in terms), default=0) if d > 1 else 0
            whole *= d**top
            word, a = next(iter(ints.items())) if len(ints) == 1 else (0, 0)
            plan.append((d, top, word, a, None if len(ints) == 1 else [one, ints]))
        out: dict = {}
        for m, c in terms.items():
            word, term = 0, one
            for d, top, w, a, powers in plan:
                e = m & FIELD
                m >>= WIDTH
                if d > 1:
                    c *= d ** (top - e)
                if not e:
                    continue
                if powers is None:
                    word += e * w
                    c *= a**e
                else:
                    while len(powers) <= e:
                        powers.append(_mul_terms(powers[-1], powers[1], limit))
                    term = powers[e] if term is one else _mul_terms(term, powers[e], limit)
            _mul_terms({word: c}, term, limit, out)
        divided = {m: _div(c, whole) if whole > 1 else _norm(c) for m, c in out.items()}
        return Polynomial(ring, divided, _clean=True)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)} over {self.ring}>"


def _constant(terms: Mapping) -> bool:
    """Whether a term dict is that of a constant: no word but 0."""
    return len(terms) < 2 and (not terms or 0 in terms)


def _term_chunks(p: Polynomial) -> list:
    """(sign, body) of each term of ``p`` in descending grevlex order, with
    sign ``+`` or ``-`` and body the magnitude: ``*`` and ``^`` explicit, a
    unit coefficient dropped unless the term is constant."""
    ring, terms = p.ring, p._terms
    chunks = []
    for m in sorted(terms, key=GREVLEX.key(ring), reverse=True):
        c = terms[m]
        factors = [f"{x}^{e}" if e > 1 else x for x, e in zip(ring.variables, ring.unpack(m)) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, _format_number(abs(c)))
        chunks.append(("-" if c < 0 else "+", "*".join(factors)))
    return chunks


def _join_chunks(chunks: Sequence[tuple]) -> str:
    """Join (sign, body) chunks as ``a - b + c``; ``0`` when there are none."""
    if not chunks:
        return "0"
    (sign, body), *rest = chunks
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def format_polynomial(p: Polynomial) -> str:
    """Canonical rendering: terms in descending grevlex, ``*`` and ``^`` explicit."""
    return _join_chunks(_term_chunks(p))


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse an expression with ``+ - * ^``, integer/rational literals and
    ring variables into a canonical polynomial.

    Raises :class:`~conormal._expr.ParseError` (a ``ValueError``) with the
    offending position on syntax errors, unknown names or a total degree
    past ``MAX_DEGREE``.
    """
    mixed = parse_mixed_text(text, ring, allow_differentials=False)
    return Polynomial(ring, mixed[()], _clean=True) if mixed else ring.zero


def partial_derivative(p: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to the i-th ring variable."""
    n = p.ring.nvars
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range (ring has {n} variables)")
    return Polynomial(p.ring, _partial_terms(p.ring, p._terms, i), _clean=True)


def _partial_terms(ring: PolynomialRing, terms: Mapping, i: int) -> dict:
    """The term dict of the partial derivative of ``terms`` with respect to
    the i-th variable of ``ring``, a fresh dict."""
    unit, shift = ring.units[i], i * WIDTH
    out = {}
    for m, c in terms.items():
        e = (m >> shift) & FIELD
        if e:
            out[m - unit] = c * e
    return out


def evaluate(p: Polynomial, point: Sequence[Scalar]) -> Scalar:
    """Exact value of ``p`` at a rational point, normalized by :func:`_norm`."""
    if len(point) != p.ring.nvars:
        raise ValueError(f"point has {len(point)} coordinates, ring has {p.ring.nvars}")
    coords = [v if type(v) is int else _rational(v) for v in point]
    total = 0
    for m, c in p._terms.items():
        v = c
        for x in coords:
            e = m & FIELD
            if e:
                v *= x**e
            m >>= WIDTH
        total += v
    return _norm(total)


# The parser takes its names from this module at its top, so it is imported
# here, once, after every one of them is defined.
from ._expr import parse_mixed_text  # noqa: E402
