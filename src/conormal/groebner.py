"""Buchberger's algorithm for ideals and for submodules of free modules.

Everything is exact over the rational polynomials of :mod:`conormal.poly`.
The public operations are ``reduce`` (multivariate division / normal form),
``buchberger`` (reduced Groebner basis, heap-ordered normal pair selection),
``ideal_membership``, ``eliminate``, ``intersection`` and ``quotient`` (the
ideal quotient (I : g)), each one colon of :func:`_colon`,
``implicitization`` (the ideal of the closure of a polynomial map's image),
``radical_membership`` (plain membership against the cached basis, then the
Rabinowitsch trick: the pair loop, seeded with the records of that basis,
meets a constant or not), and ``krull_dimension``
(independent variable sets modulo the leading-term ideal of the cached
basis).

There is one division kernel, :func:`_remainder`, and one S-combination
kernel, :func:`_s_terms`, both on raw term dicts, and one pair loop.  A
:class:`Submodule` of R^r runs a vector (p_1, ..., p_r), given as
(position, term dict) pairs so that a form's raw coefficients need no
``Polynomial``, through them as the polynomial sum e_i*p_i, with r position
variables in front, under the term-over-position order ``top``, which is
grevlex on the position ring (see :class:`Submodule`).  The one module
rule, that leads in different positions give the S-vector 0, lives in
``_s_terms``, and ``buchberger`` never queues such a pair.  The colon
(M : v) = {a : a*v in M}, the one implementation behind ``intersection``,
``quotient`` and the reduced germ, is a :class:`Submodule` under the
position-over-term order ``pot`` (see :func:`_colon`).

Monomials are the packed words of :mod:`conormal.poly`: a product is one
addition, and a lead-divisibility test (in ``_remainder``, in
``_autoreduce`` and in the pair criteria of ``_complete``) is one
subtraction and one mask of guard bits.  The layout of a word is
``poly``'s alone: a word moves into a ring with more variables (the
Rabinowitsch ring, the position ring of a :class:`Submodule`) through
``poly._embedding``, and ``Submodule.decode``, ``eliminate`` and
``krull_dimension`` read exponents through ``unpack``.  Under a module order a lead can
divide a term only in the term's own position (Cox-Little-O'Shea, *Using
Algebraic Geometry*, ch. 5 section 2), so these scans take the divisor
records grouped by the position word of their lead (:func:`_group`) and
test only the term's group.  A plain ideal has one group.

The core runs on integers (fraction-free division, Geddes-Czapor-Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2 and 7).  The divisor record
``(lm, a, tail, reach)`` that :meth:`Polynomial.divisor` caches is that of
the polynomial's primitive integer associate, so ``a`` is a positive
integer and the tail is integral.  ``_remainder`` pseudo-divides: where
``a`` does not divide a coefficient it scales what is left by one integer
and folds it into a multiplier, which it returns with the remainder.
Against a monic integer basis, the case of every warm decision, ``a`` is 1
and no step scales.  ``_s_terms`` returns L times the S-polynomial, with L
the lcm of the two leading coefficients.  The public ``reduce`` and
``s_polynomial`` are thin wrappers that copy the terms in and divide by the
multiplier or by L once, at the end, so they give the exact values over Q.

The pair loop needs only the remainder up to a nonzero factor, so
``_complete`` and ``_autoreduce`` call the kernels directly.  ``buchberger``
hands ``_complete`` the records of its generators, and the pair loop runs on
records alone: a nonzero integer remainder joins as the record of its
primitive associate (``poly._record``), and no polynomial is made.
``_autoreduce`` reduces each minimal record's tail once and makes one
monic polynomial per element of the basis, which caches the record of its
primitive integer associate; only that final division makes a Fraction
coefficient.  Every division receives the records grouped, so no record is
rebuilt per reduction.  So a basis computation makes a polynomial only for
an element of the reduced basis it returns.  The Rabinowitsch step lifts
the records of the cached basis into the ring with the new variable, makes
one polynomial, the relation, runs ``_complete`` alone and reads its
answer: ``None``, the unit ideal, or not.
"Unit ideal" is read from a basis in one place, :meth:`Ideal.is_unit`.

Bases are reduced, monic and sorted, so they are canonical per (ideal, order).
An :class:`Ideal` is the one lazy basis holder: it caches its basis under its
``order`` (grevlex unless given), with the records of its elements
grouped, so repeated membership tests against one ideal compute one
basis.  It also keeps a table of exact normal forms of words, filled on
demand: the normal form modulo a Groebner basis is unique, hence linear
(Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 section 6),
so ``ideal_membership`` under the degree-first orders ``grevlex`` and
``top`` adds up c*NF(m) over the terms c*m of f from that table.
:func:`_normal_form` is the table's one reader: it returns a word's entry
and, on a miss, divides the word once, by ``_remainder`` and then by its
multiplier.  ``ideal_membership`` and the linear tables of
:mod:`conormal.germs` read the table through it alone.
Under ``lex``, ``block`` and ``pot`` it divides f as a whole and needs
the remainder only up to a nonzero factor.  A :class:`Submodule` keeps
its encoded generators in an ``Ideal`` under its module order.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .poly import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    _check_degree,
    _degree_error,
    _div,
    _embedding,
    _primitive_terms,
    _record,
    block_order,
    same_ring,
)

# Optional callback fired as observer(generators, order, basis) after every
# basis computation; used by the test suite to audit S-polynomial reduction.
_basis_observer = None


def reduce(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full normal form of ``f`` modulo ``basis``.

    The result r satisfies f - r in <basis> and no term of r is divisible by
    a leading term of the basis.  With the empty basis, r = f.

    Each divisor is the record :meth:`Polynomial.divisor` caches on the
    basis element.  The division itself is the kernel :func:`_remainder`,
    on a copy of f's terms; its remainder is divided by its multiplier
    here, once, so the result is the exact normal form over Q.
    """
    nonzero = [g for g in basis if g]
    ring = same_ring(f, *nonzero)
    positions = order.positions
    groups = _group([g.divisor(order) for g in nonzero], positions)
    remainder, mult = _remainder(dict(f._terms), groups, positions, order.key(ring), ring)
    num, den = mult.numerator, mult.denominator
    return Polynomial(ring, {t: _div(v * den, num) for t, v in remainder.items()}, _clean=True)


def _remainder(work: dict, groups: dict, positions: int, key, ring: PolynomialRing) -> tuple:
    """The division kernel: ``(remainder, multiplier)`` for the term dict
    ``work``, which it consumes, modulo divisor records (see
    :meth:`Polynomial.divisor`) grouped by :func:`_group` under the
    ``positions`` mask, with ``key`` the order's key on the words of
    ``ring``.  The remainder is a term dict, the multiplier times the normal
    form of ``work``, and the multiplier a nonzero rational; on integer
    input the remainder is integral.

    A term m is tested only against the group ``m & positions``, in its
    order: a lead in another position cannot divide m.  Without positions
    there is one group, every record.

    A step whose divisor has the leading coefficient a = 1 subtracts the
    term's coefficient times the tail.  Otherwise it pseudo-divides: if a
    does not divide the coefficient c, the pending terms and the remainder
    are multiplied by a/gcd(a, c), and that factor joins the multiplier.
    The first such step to meet a non-integer coefficient clears the
    denominators, and one that follows ``_CONTENT_BITS`` bits of growth of
    the multiplier removes the content; both fold their factor into the
    multiplier.

    The subtraction is a fast path with its own loop, not the product
    kernel ``poly._mul_terms``: it runs on the tuple tail of the record,
    which the kernel would take only as a dict, built per step, and the
    degree bound is checked once per step through the record's ``reach``.
    """
    guards, limit = ring.guards, ring.limit
    remainder: dict = {}
    mult, grown = 1, 0  # work and remainder are mult times their exact values
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        room = m | guards
        for lm, a, tail, reach in groups.get(m & positions, ()):
            if (room - lm) & guards == guards:  # lm divides m
                q = m - lm
                if q + reach >= limit:  # a division step past MAX_DEGREE
                    raise _degree_error(ring.degree(q + reach))
                if a != 1:  # warm bases are monic: a is 1
                    if type(c) is not int or grown > _CONTENT_BITS:
                        u, c, work, remainder = _primitive_part(m, c, work, remainder)
                        mult, grown = mult * u, 0
                    scale = a // gcd(a, c)
                    if scale != 1:
                        c, mult, grown = c * scale, mult * scale, grown + scale.bit_length()
                        work = {t: v * scale for t, v in work.items()}
                        remainder = {t: v * scale for t, v in remainder.items()}
                    c //= a
                for gm, gc in tail:
                    t = gm + q
                    s = work.get(t, 0) - c * gc
                    if s:
                        work[t] = s
                    elif t in work:
                        del work[t]
                break
        else:
            remainder[m] = c
    return remainder, mult


# The bits a reduction's multiplier may gain before the content comes out.
# On the section of x^2 + y^3 + z^7 + w^11 + x*y*z*w by random_hyperplane
# (seed 1), whose remainders swell to thousands of bits, 4 to 64 bits cost
# about the same and no content removal about twice as much.
_CONTENT_BITS = 16


def _primitive_part(m: int, c, work: dict, remainder: dict) -> tuple:
    """``(u, u*c, u*work, u*remainder)`` for the one positive rational u
    that makes c, the coefficient of the word m, and every value of the
    dicts integers with gcd 1."""
    ints = _primitive_terms({**work, **remainder, m: c}, 1)
    u = Fraction(ints[m]) / c
    return u, ints[m], {t: ints[t] for t in work}, {t: ints[t] for t in remainder}


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The cancellation combination of f and g at the lcm of their leads:
    x^qf*f/lc_f - x^qg*g/lc_g, with x^qf and x^qg the cofactors of the leads.

    It is L times the integer combination of the kernel :func:`_s_terms`,
    with L the lcm of the leading coefficients of the two divisor records,
    and it is divided by L here, once.  Under a module order, leads in
    different positions have no common multiple in the module, so the
    S-vector is 0.  A zero f or g has no lead and raises ``ValueError``.
    """
    ring = same_ring(f, g)
    record_f, record_g = f.divisor(order), g.divisor(order)
    terms = _s_terms(record_f, record_g, ring, order.positions)
    if terms is None:
        return ring.zero
    common = lcm(record_f[1], record_g[1])
    return Polynomial(ring, {t: _div(v, common) for t, v in terms.items()}, _clean=True)


def _s_terms(record_f: tuple, record_g: tuple, ring: PolynomialRing, positions: int):
    """The S-combination kernel: L*S(f, g) as an integer term dict, from
    the divisor records of f and g, with L = lcm(a_f, a_g) of their leading
    coefficients; ``None`` if their leads differ in the ``positions`` mask
    (see :attr:`MonomialOrder.positions`).

    It is (L/a_f)*x^qf*tail_f - (L/a_g)*x^qg*tail_g, with x^qf and x^qg
    the cofactors of the leads at their lcm; the leads cancel, so they are
    never written.  Like :func:`_remainder` it adds the tuple tails in a
    loop of its own, a fast path past ``poly._mul_terms``, which would take
    each tail only as a dict built per pair.
    """
    fm, fa, f_tail, f_reach = record_f
    gm, ga, g_tail, g_reach = record_g
    if (fm ^ gm) & positions:
        return None
    joint = ring.lcm(fm, gm)
    qf, qg = joint - fm, joint - gm
    # Under lex a tail word may have a larger degree than the lead.
    _check_degree(max(joint, f_reach + qf, g_reach + qg), ring.limit)
    common = fa if fa == ga else lcm(fa, ga)
    sf, sg = common // fa, common // ga
    terms = {m + qf: c * sf for m, c in f_tail}
    for m, c in g_tail:
        t = m + qg
        s = terms.get(t, 0) - c * sg
        if s:
            terms[t] = s
        elif t in terms:
            del terms[t]
    return terms


def _group(records: Iterable[tuple], positions: int) -> dict:
    """The divisor records by the position word ``lm & positions`` of their
    lead, each group in the order of ``records``.  A module term has one
    position field, equal to 1, so only the leads of its own group can
    divide it; under an order without positions there is one group."""
    groups: dict = {}
    for record in records:
        groups.setdefault(record[0] & positions, []).append(record)
    return groups


def _autoreduce(records: list, ring: PolynomialRing, order: MonomialOrder) -> list:
    # Only valid on the records of a Groebner basis: keep the minimal
    # records, the first of equal leads, reduce each one's tail once against
    # them, put its lead back, and make the one monic polynomial of the
    # result, which caches the record of its primitive integer associate.
    # No tail term lies above its own lead, so that lead divides none, and
    # the normal form modulo a Groebner basis is unique: the result is the
    # unique reduced basis.  The division runs on the records' integers;
    # only the final division by the leading coefficient makes a Fraction.
    # Both steps scan only the group of a lead's position (see _group).
    key, guards, positions = order.key(ring), ring.guards, order.positions
    rivals = _group(records, positions)
    kept, seen = [], set()
    for d in records:
        lm = d[0]
        room = lm | guards
        if lm not in seen and not any((room - e[0]) & guards == guards and e[0] != lm
                                      for e in rivals[lm & positions]):
            kept.append(d)
        seen.add(lm)
    groups = _group(kept, positions)
    reduced = []
    for lm, a, tail, _ in sorted(kept, key=lambda d: key(d[0])):
        r, mult = _remainder(dict(tail), groups, positions, key, ring)
        r[lm] = a * mult  # r is mult times the tail's normal form
        ints = _primitive_terms(r, r[lm])
        c = ints[lm]
        p = Polynomial(ring, {m: _div(v, c) for m, v in ints.items()}, _clean=True)
        p._lead = {order: _record(ints, lm)}
        reduced.append(p)
    return reduced


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder) -> list:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Classical Buchberger with the coprime-lead and chain criteria.  Each
    pair is scored once, when it is created, and kept in a heap, so the
    normal selection strategy pops the pair with the smallest lcm of leads
    (ties broken by index).  Under a module order a pair of leads in
    different positions is never queued: its S-vector is 0, so the chain
    criterion may count it as treated.  The output is auto-reduced, monic
    and sorted by leading term, hence canonical for the (ideal, order) pair;
    it is ``[1]`` as soon as a nonzero constant turns up.
    """
    if not gens:
        raise ValueError("buchberger needs at least one generator")
    ring = same_ring(*gens)
    seen = set()
    divisors = []  # the records of the distinct primitive generators
    for g in gens:
        if g:
            d = g.divisor(order)
            primitive = d[0], d[1], frozenset(d[2])  # whatever the order of the tail
            if primitive not in seen:
                seen.add(primitive)
                divisors.append(d)
    records = _complete(divisors, ring, order, 0)
    result = [ring.one] if records is None else _autoreduce(records, ring, order)
    if _basis_observer is not None:
        _basis_observer(list(gens), order, list(result))
    return result


def _complete(divisors: list, ring: PolynomialRing, order: MonomialOrder, known: int):
    """The pair loop: extend the records ``divisors`` of distinct primitive
    generators to those of a Groebner basis, queueing no pair inside the
    first ``known``; ``None`` on the first constant lead, which makes the
    ideal the unit ideal.

    Each queued pair keeps the lcm of its leads; the leads are coprime iff
    that lcm is their product.  A pair's integer S-combination is divided
    by the kernels, and a nonzero remainder joins as the record of its
    primitive integer associate; no polynomial is made.  The loop groups its
    records (see :func:`_group`) and their indices by the position word of
    their leads, so pairs, the chain criterion and the division see only the
    leads of one position.
    """
    leads = [d[0] for d in divisors]
    if not all(leads):
        return None
    key, lcm_of = order.key(ring), ring.lcm
    positions = order.positions
    groups: dict = {}  # the records, as _group groups them
    members: dict = {}  # the indices of the records, by the same words
    pending = set()
    queue = []

    def add(j):
        # j joins its position's group, paired with the earlier members
        # (leads in different positions have the S-vector 0).
        word = leads[j] & positions
        same = members.setdefault(word, [])
        if j >= known:
            for i in same:
                lcm = lcm_of(leads[i], leads[j])
                pending.add((i, j))
                heapq.heappush(queue, (key(lcm), i, j, lcm))
        same.append(j)
        groups.setdefault(word, []).append(divisors[j])

    for j in range(len(divisors)):
        add(j)
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        if lcm == leads[i] + leads[j]:
            continue  # coprime leads: S-polynomial reduces to zero
        if _chain_criterion(leads, members[lcm & positions], ring.guards, pending, i, j, lcm):
            continue
        terms = _s_terms(divisors[i], divisors[j], ring, positions)
        r = _remainder(terms, groups, positions, key, ring)[0]
        if r:
            lm = max(r, key=key)
            if not lm:  # a nonzero constant
                return None
            divisors.append(_record(_primitive_terms(r, r[lm]), lm))
            leads.append(lm)
            add(len(divisors) - 1)
    return divisors


def _chain_criterion(leads, members, guards, pending, i, j, lcm) -> bool:
    # Skip (i, j) if some k has its lead dividing lcm(i, j) while both
    # (i, k) and (j, k) have already been treated.  Only the ``members``,
    # the indices in the position of lcm(i, j), can divide it.
    room = lcm | guards
    for k in members:
        if k in (i, j) or (room - leads[k]) & guards != guards:
            continue
        ik = (min(i, k), max(i, k))
        jk = (min(j, k), max(j, k))
        if ik not in pending and jk not in pending:
            return True
    return False


class Ideal:
    """An ideal given by generators, with its reduced Groebner basis under
    ``order`` computed on first use and kept, together with its divisor
    records, grouped (see :func:`_group`).  Generator ideals take
    grevlex; a :class:`Submodule` keeps its encoded generators in an ideal
    under its module order.

    ``_normal`` is the ideal's table of normal forms: it maps a word m to
    the exact normal form of m modulo the basis over Q, as ``((word,
    coefficient), ...)``.  :func:`_normal_form` alone reads and fills it,
    one word at a time, for :func:`ideal_membership` and the linear tables
    of :mod:`conormal.germs`, under ``grevlex`` and ``top`` only, whose
    division steps never raise the degree, so no entry passes
    ``MAX_DEGREE``.  The normal form modulo a Groebner basis is unique, so
    an entry never goes stale; it holds for this ideal alone, and no table
    is shared."""

    __slots__ = ("ring", "generators", "order", "_basis", "_groups", "_normal")

    def __init__(self, generators: Sequence[Polynomial], order: MonomialOrder = GREVLEX):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        self.ring = same_ring(*gens)
        self.generators = gens
        self.order = order
        self._basis = self._groups = None
        self._normal = {}

    def groebner_basis(self) -> tuple:
        if self._basis is None:
            self._basis = tuple(buchberger(self.generators, self.order))
            records = (g.divisor(self.order) for g in self._basis)
            self._groups = _group(records, self.order.positions)
        return self._basis

    def is_unit(self) -> bool:
        """Whether the ideal is the whole ring (empty zero set): its reduced
        basis is ``[1]``."""
        return self.groebner_basis() == (self.ring.one,)

    def same_ideal(self, other: "Ideal") -> bool:
        """Exact ideal equality via mutual membership of generators."""
        same_ring(self, other)
        return all(ideal_membership(g, other) for g in self.generators) and all(
            ideal_membership(g, self) for g in other.generators
        )

    def __repr__(self) -> str:
        return "Ideal(" + ", ".join(str(g) for g in self.generators) + ")"


def ideal_membership(f: Polynomial, ideal: Ideal) -> bool:
    """Exact membership f in I over the polynomial ring: whether the normal
    form of f modulo the cached basis is 0.

    The normal form is linear, so under the degree-first orders ``grevlex``
    and ``top`` it is the sum of c*NF(m) over the terms c*m of f, each NF(m)
    read by :func:`_normal_form` from the ideal's table of exact normal
    forms of words (see :class:`Ideal`), which gains one entry per word it
    lacks.  The sum keeps a loop of its own, not ``poly._add_into``: an
    entry is a tuple of (word, coefficient) pairs, which the kernel would
    take only as a dict built per word, and its terms come scaled by c.
    Under ``lex``, ``block`` and ``pot`` a word's normal form may pass
    ``MAX_DEGREE`` where the terms of f cancel, so f is divided as a whole:
    the division kernel's remainder is a nonzero multiple of the normal
    form, so it is not made a polynomial or divided by its multiplier."""
    ring = same_ring(f, ideal)
    if not f:
        return True
    order = ideal.order
    if order.kind not in ("grevlex", "top"):
        ideal.groebner_basis()
        key, positions = order.key(ring), order.positions
        return not _remainder(dict(f._terms), ideal._groups, positions, key, ring)[0]
    total = {}
    for m, c in f._terms.items():
        for t, v in _normal_form(m, ideal):
            s = total.get(t, 0) + c * v
            if s:
                total[t] = s
            elif t in total:
                del total[t]
    return not total


def _normal_form(m: int, ideal: Ideal) -> tuple:
    """The exact normal form of the word m modulo the basis of an ideal
    under ``grevlex`` or ``top``, as ``((word, coefficient), ...)``: the
    one reader of the ideal's table (see :class:`Ideal`).  On a miss it
    makes the basis, if it is not made yet, and the entry, the division
    kernel's remainder divided once by its multiplier."""
    entry = ideal._normal.get(m)
    if entry is None:
        ideal.groebner_basis()
        ring, order = ideal.ring, ideal.order
        remainder, mult = _remainder({m: 1}, ideal._groups, order.positions, order.key(ring), ring)
        entry = ideal._normal[m] = tuple((t, _div(v, mult)) for t, v in remainder.items())
    return entry


def eliminate(ideal: Ideal, drop: Iterable[int]) -> Ideal:
    """Generators of I intersected with the subring omitting the ``drop``
    variables, computed with a block order that puts the dropped block first.

    A basis element is kept iff its lead has no dropped variable: the order
    compares the degree in the dropped block first, so then no term has one.
    The result lives in a fresh ring on the remaining variables, in their
    original order.
    """
    ring = ideal.ring
    drop = sorted(set(drop))
    for i in drop:
        if not 0 <= i < ring.nvars:
            raise ValueError(f"variable index {i} out of range")
    keep = [i for i in range(ring.nvars) if i not in drop]
    if not keep:
        raise ValueError("cannot eliminate every variable")
    if not drop:
        return Ideal(ideal.generators)

    perm, k = drop + keep, len(drop)
    work_ring = PolynomialRing([ring.variables[i] for i in perm])
    images = [work_ring.var(perm.index(i)) for i in range(ring.nvars)]
    moved = [g.substitute(work_ring, images) for g in ideal.generators]
    order = block_order(k)
    basis = buchberger(moved, order)

    target = PolynomialRing([ring.variables[i] for i in keep])
    back = [target.zero] * k + list(target.gens())
    kept = [g.substitute(target, back) for g in basis
            if not any(work_ring.unpack(g.divisor(order)[0])[:k])]
    return Ideal(kept or [target.zero])


def intersection(a: Ideal, b: Ideal) -> Ideal:
    """I ∩ J, the colon (I*e_1 + J*e_2 : (1, 1)) of R^2 (see :func:`_colon`):
    a*(1, 1) lies in I*e_1 + J*e_2 iff a lies in I and in J."""
    ring = same_ring(a, b)
    gens = [[(0, g._terms)] for g in a.generators] + [[(1, g._terms)] for g in b.generators]
    return _colon(ring, 2, gens, [ring.one, ring.one])


def quotient(ideal: Ideal, g: Polynomial) -> Ideal:
    """The ideal quotient (I : g) = {h : h*g in I}, the colon of R^1 (see
    :func:`_colon`).  (I : 0) is the whole ring."""
    ring = same_ring(ideal, g)
    return _colon(ring, 1, ([(0, h._terms)] for h in ideal.generators), [g])


def _colon(ring: PolynomialRing, rank: int, generators: Iterable, v: Sequence[Polynomial]) -> Ideal:
    """The colon (M : v) = {a : a*v in M}, M the submodule of R^rank that
    the vectors ``generators``, as (position, term dict) pairs, generate,
    and v a vector of R^rank; its reduced grevlex basis, or (0).

    The tagged submodule of R^(rank+1) generated by (v | 1) and the (m | 0)
    holds (0 | a) iff a*v lies in M.  Under ``pot`` the tag, position
    ``rank``, is the lowest position, so a basis element whose lead lies
    there has no other component, and those elements' tags are a Groebner
    basis of (M : v) under grevlex (Cox-Little-O'Shea, *Using Algebraic
    Geometry*, ch. 5 section 3); they are reduced, monic and sorted."""
    tagged = [[*_parts(v), (rank, {0: 1})], *generators]
    sub = Submodule(ring, rank + 1, tagged, order="pot")
    parts = map(sub.decode, sub.ideal.groebner_basis())
    return Ideal([p[rank] for p in parts if not any(p[:rank])] or [ring.zero])


def implicitization(ring: PolynomialRing, images: Sequence[Polynomial]) -> Ideal:
    """The ideal in ``ring`` of the Zariski closure of the image of the map
    x_j = images[j](s): (x_j - images[j]) with the parameters eliminated,
    under fresh names in front of the ring's variables."""
    if len(images) != ring.nvars:
        raise ValueError("one image per variable of the ring required")
    d = same_ring(*images).nvars
    names = [_fresh_name(ring, f"_s{i + 1}") for i in range(d)]
    work = PolynomialRing(names + list(ring.variables))
    params = work.gens()[:d]
    gens = [work.var(d + j) - p.substitute(work, params) for j, p in enumerate(images)]
    return eliminate(Ideal(gens), range(d))


def _fresh_name(ring: PolynomialRing, base: str = "_t") -> str:
    """``base``, with ``_`` appended until it can join the ring's names: it is
    none of them, and neither it nor one of them is ``d`` plus the other."""
    taken = ring._index
    name = base
    while name in taken or "d" + name in taken or (name[:1] == "d" and name[1:] in taken):
        name += "_"
    return name


def radical_membership(g: Polynomial, ideal: Ideal) -> bool:
    """Whether g lies in the radical of I, i.e. vanishes on the zero set of I.

    Plain membership comes first: g in I implies g in rad(I), and reducing
    g against the basis the :class:`Ideal` caches is cheap.  Only when that
    leaves a nonzero remainder is the question decided by the Rabinowitsch
    trick, whose pair loop starts from the records of that same basis.
    """
    return ideal_membership(g, ideal) or _rabinowitsch(g, ideal)


def _rabinowitsch(g: Polynomial, ideal: Ideal) -> bool:
    """Whether g is in rad(I): whether I + (1 - t*g), with t a fresh last
    variable, is the unit ideal.

    The basis that ``ideal`` caches stays a Groebner basis in the ring with
    t appended: t is the last variable, so every order restricts to itself
    on the words without t.  So the pair loop :func:`_complete` starts from
    the records that basis caches and pairs only the relation and what
    follows from it.  A word moves into the ring with t by ``poly``'s word
    map ``_embedding(ring, ext, 0)``, which keeps products, so lifted
    records are the records of the lifted basis.  The records are lifted
    word by word, and the relation, the one polynomial made here, is built
    from g's terms with the same map; its top word is checked against the
    degree limit first.
    Every Groebner basis of the unit ideal has a constant lead, and
    ``_complete`` returns ``None`` at the first one, so its answer is the
    answer: no basis is reduced or scanned.  Callers have already checked
    g's ring with :func:`ideal_membership`.
    """
    ring, order = ideal.ring, ideal.order
    ext = PolynomialRing(ring.variables + (_fresh_name(ring),))
    lift, t = _embedding(ring, ext, 0), ext.units[-1]
    known = [(lift(lm), a, tuple((lift(m), c) for m, c in tail), lift(reach))
             for lm, a, tail, reach in (p.divisor(order) for p in ideal.groebner_basis())]
    _check_degree(lift(max(g._terms)) + t, ext.limit)
    terms = {lift(m) + t: -c for m, c in g._terms.items()}
    terms[0] = 1
    records = known + [Polynomial(ext, terms, _clean=True).divisor(order)]
    return _complete(records, ext, order, len(known)) is None


def krull_dimension(ideal: Ideal) -> int:
    """Dimension of the affine zero set of I; -1 for the unit ideal.

    Equals the largest size of a set S of variables such that no leading
    term of the cached basis involves only variables from S: the support of
    each lead, the variables of its nonzero exponents, is not inside S.
    """
    if ideal.is_unit():
        return -1
    unpack, n = ideal.ring.unpack, ideal.ring.nvars
    supports = [{i for i, e in enumerate(unpack(d[0])) if e}
                for group in ideal._groups.values() for d in group]
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all(support.difference(subset) for support in supports):
                return size
    return 0


class Submodule:
    """The submodule of R^rank generated by vectors, each given as (position,
    term dict) pairs with distinct positions, a component's raw term dict
    ``p._terms`` as it is (a form's ``_terms`` items, with each index tuple
    mapped to its position, are such pairs).  ``encode`` is the one map of
    a vector to its polynomial in the position ring, through ``poly``'s word
    map, built once per submodule, and ``decode`` its inverse, through
    ``unpack`` and ``pack``; the nonzero encoded generators make up
    ``ideal``, whose basis under the module order ``order`` of
    :class:`MonomialOrder`, ``top`` unless given, is computed on first use
    and kept.  The position
    variables come first, so they are the lowest fields and grevlex
    compares them last: on these module terms, one position of exponent 1
    each, ``top`` is grevlex.  :func:`_colon` alone asks for ``pot``."""

    __slots__ = ("ring", "rank", "position_ring", "ideal", "_lift")

    def __init__(self, ring: PolynomialRing, rank: int, generators: Iterable[Iterable[tuple]],
                 order: str = "top"):
        self.ring, self.rank = ring, rank
        names = [_fresh_name(ring, f"_e{i + 1}") for i in range(rank)]
        self.position_ring = PolynomialRing(names + list(ring.variables))
        self._lift = _embedding(ring, self.position_ring, rank)
        gens = [g for g in map(self.encode, generators) if g]
        self.ideal = Ideal(gens or [self.position_ring.zero], MonomialOrder(order, rank))

    def encode(self, parts: Iterable[tuple]) -> Polynomial:
        """The polynomial sum e_p*q over (position p, term dict q) pairs: a
        word of q moves by ``_embedding(ring, position_ring, rank)`` past the
        position variables and gains the word of e_p."""
        ring, terms, lift = self.position_ring, {}, self._lift
        for p, q in parts:
            if q:
                e = ring.units[p]
                _check_degree(lift(max(q)) + e, ring.limit)
                for m, c in q.items():
                    terms[lift(m) + e] = c
        return Polynomial(ring, terms, _clean=True)

    def decode(self, p: Polynomial) -> tuple:
        """The vector of the encoded ``p``, a tuple of ``rank`` polynomials:
        of a term's exponents in the position ring, the one position exponent
        equal to 1 gives its component, and the rest, packed in ``ring``,
        its word."""
        rank, pack, comps = self.rank, self.ring.pack, [{} for _ in range(self.rank)]
        for exps, c in p.terms.items():  # unpacked in the position ring
            comps[exps[:rank].index(1)][pack(exps[rank:])] = c
        return tuple(Polynomial(self.ring, t, _clean=True) for t in comps)

    def contains(self, parts: Iterable[tuple]) -> bool:
        """Whether the vector given by (position, term dict) pairs lies in
        the submodule: its normal form modulo the basis is 0."""
        return ideal_membership(self.encode(parts), self.ideal)


def _parts(v: Sequence[Polynomial]) -> list:
    """The (position, term dict) pairs of the vector v."""
    return [(i, p._terms) for i, p in enumerate(v)]


def _submodule(v: Sequence[Polynomial], gens: Sequence[Sequence[Polynomial]]) -> Submodule:
    # The submodule generated by ``gens``, in the free module of v.
    if not v:
        raise ValueError("a module element needs positive rank")
    ring, rank = same_ring(*v), len(v)
    if any(len(g) != rank or same_ring(*g) != ring for g in gens):
        raise ValueError(f"module elements must all lie in {ring}^{rank}")
    return Submodule(ring, rank, map(_parts, gens))


def module_buchberger(gens: Sequence[Sequence[Polynomial]]) -> list:
    """Reduced Groebner basis, as tuples, of the submodule of R^rank
    generated by the vectors ``gens``, in the term-over-position order over
    grevlex."""
    if not gens:
        return []
    sub = _submodule(gens[0], gens)
    return [sub.decode(b) for b in sub.ideal.groebner_basis()]


def module_reduce(v: Sequence[Polynomial], basis: Sequence[Sequence[Polynomial]]) -> tuple:
    """Normal form, as a tuple, of the vector v modulo vectors of the same
    rank, in the order of :func:`module_buchberger`."""
    sub = _submodule(v, basis)
    return sub.decode(reduce(sub.encode(_parts(v)), sub.ideal.generators, sub.ideal.order))
