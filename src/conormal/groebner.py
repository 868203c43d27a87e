"""Buchberger's algorithm for ideals and for submodules of free modules.

Everything runs over the exact rational polynomials of :mod:`conormal.poly`.
The public operations are ``reduce`` (multivariate division / normal form),
``buchberger`` (reduced Groebner basis, heap-ordered normal pair selection),
``ideal_membership``, ``eliminate``, ``implicitization`` (the ideal of the
closure of a polynomial map's image), ``radical_membership`` (plain
membership against the cached basis, then the Rabinowitsch trick, seeded
with that basis), ``krull_dimension`` (independent variable sets modulo the
leading-term ideal of a grevlex basis) and ``module_membership``.

There is one division loop and one pair loop.  A :class:`Submodule` of R^r
runs a vector (p_1, ..., p_r) through them as the polynomial sum e_i*p_i,
with r position variables in front, under the term-over-position order
``top``, which is grevlex on the position ring (see :class:`Submodule`).
The one module rule, that leads in different positions give the S-vector 0,
lives in ``s_polynomial``, and ``buchberger`` never queues such a pair.

Monomials are the packed words of :mod:`conormal.poly`: a product is one
addition, and a lead-divisibility test (in ``reduce``, in ``_autoreduce``
and in the pair criteria of ``_complete``) is one subtraction and one mask
of guard bits.  Under ``top`` it fails at once for a lead in another
position, whose field the term leaves at 0.

The pair loop runs on the divisor records ``(lm, lc, tail, reach)`` that
:meth:`Polynomial.divisor` caches: ``s_polynomial`` builds each S-polynomial
from the two records into one term dict, and ``_complete`` and
``_autoreduce`` keep the records of their basis in a list next to it, which
every ``reduce`` they call receives.  No record is rebuilt per reduction.

Bases are reduced, monic and sorted, so they are canonical per (ideal, order);
an :class:`Ideal` caches its one grevlex basis lazily, so repeated membership
tests against one ideal compute one basis.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Iterable, Sequence

from .poly import (
    FIELD,
    GREVLEX,
    WIDTH,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    _check_degree,
    _degree_error,
    _div,
    block_order,
    same_ring,
)

# Optional callback fired as observer(generators, order, basis) after every
# basis computation; used by the test suite to audit S-polynomial reduction.
_basis_observer = None


def reduce(
    f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder, divisors=None
) -> Polynomial:
    """Full normal form of ``f`` modulo ``basis``.

    The result r satisfies f - r in <basis> and no term of r is divisible by
    a leading term of the basis.  With the empty basis, r = f.

    Each divisor is the record :meth:`Polynomial.divisor` caches on the
    basis element.  A basis of one ring without zeros may come with the
    list of its records as ``divisors``: a cached basis passes it, and so
    do ``_complete`` and ``_autoreduce``, which extend the list as their
    basis grows.  Such a call checks the ring of ``f`` against one element
    and rebuilds nothing.  The order's key is looked up once per call; under
    grevlex and ``top`` it is a C-level ``int.__xor__``.
    """
    ring = f.ring
    if divisors is None:
        nonzero = [g for g in basis if g]
        if nonzero:
            same_ring(f, *nonzero)
        divisors = [g.divisor(order) for g in nonzero]
    elif basis:
        same_ring(f, basis[0])
    key, guards, limit = order.key(ring), ring.guards, ring.limit
    work = dict(f._terms)
    remainder: dict = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        room = m | guards
        for lm, lc, tail, reach in divisors:
            if (room - lm) & guards == guards:  # lm divides m
                q = m - lm
                if q + reach >= limit:  # a division step past MAX_DEGREE
                    raise _degree_error(ring.degree(q + reach))
                scale = c if lc == 1 else _div(c, lc)  # warm bases are monic
                for gm, gc in tail:
                    t = gm + q
                    s = work.get(t, 0) - scale * gc
                    if s:
                        work[t] = s
                    elif t in work:
                        del work[t]
                break
        else:
            remainder[m] = c
    return Polynomial(ring, remainder, _clean=True)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The cancellation combination of f and g at the lcm of their leads.

    It is built from the two divisor records (:meth:`Polynomial.divisor`)
    into one term dict: f's tail shifted to the lcm, less g's, each divided
    by its leading coefficient unless that is 1.  The leads cancel, so they
    are never written.  Under a ``top`` order, leads in different positions
    have no common multiple in the module, so the S-vector is 0.
    """
    ring = same_ring(f, g)
    fm, fc, f_tail, f_reach = f.divisor(order)
    gm, gc, g_tail, g_reach = g.divisor(order)
    if (fm ^ gm) & _position_fields(order):
        return ring.zero
    lcm = ring.lcm(fm, gm)
    qf, qg = lcm - fm, lcm - gm
    # Under lex a tail word may have a larger degree than the lead.
    _check_degree(max(lcm, f_reach + qf, g_reach + qg), ring.limit)
    terms = {m + qf: c if fc == 1 else _div(c, fc) for m, c in f_tail}
    for m, c in g_tail:
        t = m + qg
        s = terms.get(t, 0) - (c if gc == 1 else _div(c, gc))
        if s:
            terms[t] = s
        elif t in terms:
            del terms[t]
    return Polynomial(ring, terms, _clean=True)


def _position_fields(order: MonomialOrder) -> int:
    """The mask of the position fields of the words under a ``top`` order
    (see :class:`Submodule`), and 0 under other orders."""
    return (1 << (order.split * WIDTH)) - 1 if order.kind == "top" else 0


def _autoreduce(basis: list, order: MonomialOrder) -> list:
    # Only valid on a completed Groebner basis: drop elements whose lead is
    # divisible by another lead, then replace each tail by its normal form
    # against the (sequentially updated) rest.  Leads never change, so the
    # result is the unique reduced basis.
    basis = [g.monic(order) for g in basis if g]
    if not basis:
        return []
    leads = [g.leading(order)[0] for g in basis]
    divides = basis[0].ring.divides
    minimal = [
        g for i, (g, lm) in enumerate(zip(basis, leads))
        if not any(j != i and divides(hm, lm) and (hm != lm or j < i) for j, hm in enumerate(leads))
    ]
    records = [g.divisor(order) for g in minimal]
    reduced: list = []
    done: list = []  # the records of ``reduced``
    for i, g in enumerate(minimal):
        r = reduce(g, reduced + minimal[i + 1 :], order, done + records[i + 1 :]).monic(order)
        reduced.append(r)
        done.append(r.divisor(order))
    key = order.key(basis[0].ring)
    reduced.sort(key=lambda g: key(g.leading(order)[0]))
    return reduced


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder, known: int = 0) -> list:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Classical Buchberger with the coprime-lead and chain criteria.  Each
    pair is scored once, when it is created, and kept in a heap, so the
    normal selection strategy pops the pair with the smallest lcm of leads
    (ties broken by index).  Under a ``top`` order a pair of leads in
    different positions is never queued: its S-vector is 0, so the chain
    criterion may count it as treated.  The output is auto-reduced, monic
    and sorted by leading term, hence canonical for the (ideal, order) pair;
    it is ``[1]`` as soon as a nonzero constant turns up.

    If the first ``known`` generators already form a Groebner basis under
    ``order`` (say a cached basis lifted to a ring with more variables),
    no pair among them is queued, only pairs with a later generator
    (the Gebauer-Moeller update setting).  A ``known`` outside
    ``0 .. len(gens)`` raises ``ValueError``.
    """
    if not gens:
        raise ValueError("buchberger needs at least one generator")
    if not 0 <= known <= len(gens):
        raise ValueError(f"known={known} is not between 0 and {len(gens)}")
    same_ring(*gens)
    seen = set()
    basis = []
    for index, g in enumerate(gens):
        if index == known:
            known = len(basis)  # the prefix without zeros and repeats
        if g:
            g = g.monic(order)
            if g not in seen:
                seen.add(g)
                basis.append(g)
    if not basis:
        return []
    result = _autoreduce(_complete(basis, order, min(known, len(basis))), order)
    if _basis_observer is not None:
        _basis_observer(list(gens), order, list(result))
    return result


def _complete(basis: list, order: MonomialOrder, known: int) -> list:
    """The pair loop: extend the distinct monic ``basis`` to a Groebner
    basis, queueing no pair inside the first ``known`` elements; return
    [1] on the first constant, which makes the ideal the unit ideal.

    Each queued pair keeps the lcm of its leads; the leads are coprime iff
    that lcm is their product.
    """
    ring = basis[0].ring
    one = ring.one
    if any(g.is_constant() for g in basis):
        return [one]
    divisors = [g.divisor(order) for g in basis]
    leads = [d[0] for d in divisors]
    key, lcm_of = order.key(ring), ring.lcm
    positions = _position_fields(order)
    pending = set()
    queue = []

    def add_pairs(j):
        for i in range(j):
            if (leads[i] ^ leads[j]) & positions:
                continue  # leads in different positions: S-vector 0
            lcm = lcm_of(leads[i], leads[j])
            pending.add((i, j))
            heapq.heappush(queue, (key(lcm), i, j, lcm))

    for j in range(known, len(basis)):
        add_pairs(j)
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        if lcm == leads[i] + leads[j]:
            continue  # coprime leads: S-polynomial reduces to zero
        if _chain_criterion(leads, ring.guards, pending, i, j, lcm):
            continue
        r = reduce(s_polynomial(basis[i], basis[j], order), basis, order, divisors)
        if r:
            if r.is_constant():
                return [one]
            r = r.monic(order)
            basis.append(r)
            divisors.append(r.divisor(order))
            leads.append(divisors[-1][0])
            add_pairs(len(basis) - 1)
    return basis


def _chain_criterion(leads, guards, pending, i, j, lcm) -> bool:
    # Skip (i, j) if some k has its lead dividing lcm(i, j) while both
    # (i, k) and (j, k) have already been treated.
    room = lcm | guards
    for k, lead in enumerate(leads):
        if k in (i, j) or (room - lead) & guards != guards:
            continue
        ik = (min(i, k), max(i, k))
        jk = (min(j, k), max(j, k))
        if ik not in pending and jk not in pending:
            return True
    return False


class Ideal:
    """An ideal given by generators, with a grevlex Groebner basis computed
    on first use and kept, together with its divisor records."""

    __slots__ = ("ring", "generators", "_basis", "_divisors")

    def __init__(self, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        self.ring = same_ring(*gens)
        self.generators = gens
        self._basis = self._divisors = None

    def groebner_basis(self) -> tuple:
        if self._basis is None:
            self._basis = tuple(buchberger(self.generators, GREVLEX))
            self._divisors = [g.divisor(GREVLEX) for g in self._basis]
        return self._basis

    def is_unit(self) -> bool:
        """Whether the ideal is the whole ring (empty zero set)."""
        basis = self.groebner_basis()
        return any(g.is_constant() and g for g in basis)

    def same_ideal(self, other: "Ideal") -> bool:
        """Exact ideal equality via mutual membership of generators."""
        if self.ring != other.ring:
            raise ValueError("ideals live in different rings")
        return all(ideal_membership(g, other) for g in self.generators) and all(
            ideal_membership(g, self) for g in other.generators
        )

    def __repr__(self) -> str:
        return "Ideal(" + ", ".join(str(g) for g in self.generators) + ")"


def ideal_membership(f: Polynomial, ideal: Ideal) -> bool:
    """Exact membership f in I over the polynomial ring."""
    if f.ring != ideal.ring:
        raise ValueError(f"ring mismatch: {f.ring} vs {ideal.ring}")
    if not f:
        return True
    return not reduce(f, ideal.groebner_basis(), GREVLEX, ideal._divisors)


def eliminate(ideal: Ideal, drop: Iterable[int]) -> Ideal:
    """Generators of I intersected with the subring omitting the ``drop``
    variables, computed with a block order that puts the dropped block first.

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
    basis = buchberger(moved, block_order(k))

    target = PolynomialRing([ring.variables[i] for i in keep])
    back = [target.zero] * k + list(target.gens())
    dropped = (1 << (k * WIDTH)) - 1  # the fields of the dropped block
    kept = [g.substitute(target, back) for g in basis if not any(m & dropped for m in g._terms)]
    return Ideal(kept or [target.zero])


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
    trick, whose Groebner basis starts from that same cached basis.
    """
    return ideal_membership(g, ideal) or _rabinowitsch(g, ideal)


def _rabinowitsch(g: Polynomial, ideal: Ideal) -> bool:
    """Whether g is in rad(I): whether I + (1 - t*g), with t a fresh last
    variable, is the unit ideal.

    The basis that ``ideal`` caches stays a Groebner basis in the ring with
    t appended (the order restricts to the same order on the old monomials),
    so ``buchberger`` starts from it and pairs only the relation and what
    follows from it.  Callers have already checked g's ring with
    :func:`ideal_membership`.
    """
    ring = ideal.ring
    ext = PolynomialRing(ring.variables + (_fresh_name(ring),))
    *lift, t = ext.gens()
    known = [p.substitute(ext, lift) for p in ideal.groebner_basis()]
    relation = ext.one - t * g.substitute(ext, lift)
    basis = buchberger(known + [relation], GREVLEX, known=len(known))
    return any(b.is_constant() and b for b in basis)


def krull_dimension(ideal: Ideal) -> int:
    """Dimension of the affine zero set of I; -1 for the unit ideal.

    Equals the largest size of a set S of variables such that no leading
    term of a grevlex basis involves only variables from S: each lead has
    an exponent in a field outside S.
    """
    basis = ideal.groebner_basis()
    n = ideal.ring.nvars
    if not basis:
        return n  # zero ideal: the whole space
    if any(g.is_constant() for g in basis):
        return -1
    leads = [g.leading(GREVLEX)[0] for g in basis]
    every = ideal.ring.fields
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            outside = every ^ sum(FIELD << (i * WIDTH) for i in subset)
            if all(lead & outside for lead in leads):
                return size
    return 0


class ModuleElement:
    """A vector of polynomials: an element of a free module R^rank."""

    __slots__ = ("ring", "components")

    def __init__(self, components: Sequence[Polynomial]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a module element needs positive rank")
        self.ring = same_ring(*comps)
        self.components = comps

    @property
    def rank(self) -> int:
        return len(self.components)

    def __bool__(self) -> bool:
        return any(self.components)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleElement)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.components) + ")"


class Submodule:
    """The submodule of R^rank generated by vectors, each given as (position,
    polynomial) pairs with distinct positions.  ``encode`` is the one map of
    a vector to its polynomial in the position ring; the nonzero encoded
    generators are kept, and their basis is computed on first use and kept,
    together with its divisor records.  The position variables come first,
    so they are the lowest fields and grevlex compares them last: on these
    module terms, one position of exponent 1 each, ``top`` is grevlex."""

    __slots__ = ("rank", "position_ring", "order", "generators", "_basis", "_divisors")

    def __init__(self, ring: PolynomialRing, rank: int, generators: Iterable[Iterable[tuple]]):
        self.rank = rank
        names = [_fresh_name(ring, f"_e{i + 1}") for i in range(rank)]
        self.position_ring = PolynomialRing(names + list(ring.variables))
        self.order = MonomialOrder("top", rank)
        self.generators = tuple(g for g in map(self.encode, generators) if g)
        self._basis = self._divisors = None

    def encode(self, parts: Iterable[tuple]) -> Polynomial:
        """The polynomial sum e_p*q over (position p, polynomial q) pairs: a
        word of q moves above the position fields and gains the word of e_p."""
        ring = self.position_ring
        bits, terms = self.rank * WIDTH, {}
        for p, q in parts:
            if q:
                e = ring.units[p]
                _check_degree((max(q._terms) << bits) + e, ring.limit)
                for m, c in q._terms.items():
                    terms[(m << bits) + e] = c
        return Polynomial(ring, terms, _clean=True)

    def groebner_basis(self) -> tuple:
        if self._basis is None:
            self._basis = tuple(buchberger(self.generators, self.order)) if self.generators else ()
            self._divisors = [g.divisor(self.order) for g in self._basis]
        return self._basis

    def contains(self, parts: Iterable[tuple]) -> bool:
        """Whether the vector given by (position, polynomial) pairs lies in
        the submodule: its normal form modulo the basis is 0."""
        return not reduce(self.encode(parts), self.groebner_basis(), self.order, self._divisors)


def _submodule(gens: Sequence[ModuleElement], ring: PolynomialRing, rank: int) -> Submodule:
    if any(g.rank != rank or g.ring != ring for g in gens):
        raise ValueError(f"module elements must all lie in {ring}^{rank}")
    return Submodule(ring, rank, (enumerate(g.components) for g in gens))


def _decode(p: Polynomial, ring: PolynomialRing, rank: int) -> ModuleElement:
    # The inverse of Submodule.encode: a term's one position field gives its
    # component, and the word above the position fields, less the degree of
    # e_p, is its word in ``ring``.
    comps = [{} for _ in range(rank)]
    bits, unit = rank * WIDTH, 1 << (ring.nvars * WIDTH)
    for m, c in p._terms.items():
        position = ((m & ((1 << bits) - 1)).bit_length() - 1) // WIDTH
        comps[position][(m >> bits) - unit] = c
    return ModuleElement([Polynomial(ring, t, _clean=True) for t in comps])


def module_buchberger(gens: Sequence[ModuleElement]) -> list:
    """Reduced Groebner basis of the submodule of R^rank generated by
    ``gens``, in the term-over-position order over grevlex."""
    if not gens:
        return []
    ring, rank = gens[0].ring, gens[0].rank
    return [_decode(b, ring, rank) for b in _submodule(gens, ring, rank).groebner_basis()]


def module_reduce(v: ModuleElement, basis: Sequence[ModuleElement]) -> ModuleElement:
    """Normal form of v modulo module elements of the same rank, in the
    order of :func:`module_buchberger`."""
    sub = _submodule(basis, v.ring, v.rank)
    r = reduce(sub.encode(enumerate(v.components)), sub.generators, sub.order)
    return _decode(r, v.ring, v.rank)


def module_membership(v: ModuleElement, gens: Sequence[ModuleElement]) -> bool:
    """Whether v lies in the submodule of R^rank generated by ``gens``; the
    encoded basis is used as it comes out of ``buchberger``."""
    return _submodule(gens, v.ring, v.rank).contains(enumerate(v.components))
