"""Groebner engine: division, bases, membership, elimination, radical, dimension."""

import functools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conormal.cli import corpus_names, load_germ_file
from conormal.forms import DifferentialForm, parse_form, wedge
from conormal.germs import _trivial_module, is_trivial_form, trivial_form_generators
from conormal.groebner import (
    Ideal,
    Submodule,
    _autoreduce,
    _complete,
    _fresh_name,
    buchberger,
    eliminate,
    ideal_membership,
    implicitization,
    intersection,
    krull_dimension,
    module_buchberger,
    module_reduce,
    quotient,
    radical_membership,
    reduce,
    s_polynomial,
)
from conormal.poly import (
    GREVLEX,
    LEX,
    MAX_DEGREE,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    block_order,
)

from strategies import (
    assert_outcome,
    forms,
    in_submodule,
    lead,
    nonzero_polynomials,
    polynomials,
    random_form,
    random_polynomial,
    reference_is_trivial,
    reference_reduce,
)

R = PolynomialRing(["x", "y", "z"])
X, Y, Z = R.gens()
F_UMBRELLA = Z**2 - X * Y**2

# A rank-2 free module over R, encoded as in conormal.groebner: the vector
# (p, q) is e1*p + e2*q, under the term-over-position order.
R_TOP = PolynomialRing(["e1", "e2"] + list(R.variables))
TOP = MonomialOrder("top", 2)


def encode_vector(p, q):
    e1, e2, *xyz = R_TOP.gens()
    return e1 * p.substitute(R_TOP, xyz) + e2 * q.substitute(R_TOP, xyz)


def divides(a, b):
    """Divisibility of exponent tuples, by its definition."""
    return all(x <= y for x, y in zip(a, b))


class TestReduce:
    def test_multiple_of_generator(self):
        assert not reduce(X * F_UMBRELLA, [F_UMBRELLA], GREVLEX)

    def test_no_leading_term_division(self):
        R2 = PolynomialRing(["x", "y"])
        x, y = R2.gens()
        assert reduce(x, [y], GREVLEX) == x

    def test_one_division_step(self):
        R2 = PolynomialRing(["x", "y"])
        x, y = R2.gens()
        # by hand: x^2*y + 1 = y*(x^2 - 1) + (y + 1)
        assert reduce(x**2 * y + 1, [x**2 - 1], LEX) == y + 1

    def test_empty_basis_is_identity(self):
        assert reduce(X + Y, [], GREVLEX) == X + Y

    def test_one_order_key_per_monomial(self, monkeypatch):
        # No Python code runs to key a monomial: a reduction looks the
        # order's key up once, and the grevlex key of a word is a C-level
        # int method, so no pending term is keyed by Python at all.  The
        # term-over-position order takes the same key on its position ring.
        cases = [
            (GREVLEX, R, [F_UMBRELLA, X**3 - Y * Z], X**3 * Y**2 + X * Z**3 + Y * Z**4),
            (TOP, R_TOP, [encode_vector(X, Y), encode_vector(Y**2, Z)],
             encode_vector(X * Z + Y**3 + Z**2, X * Y + Z**3)),
        ]
        bases = [buchberger(gens, order) for order, _, gens, _ in cases]
        for (order, _, _, _), basis in zip(cases, bases):
            for g in basis:
                g.divisor(order)
        looked_up = []
        key = MonomialOrder.key

        def counting(order, ring):
            looked_up.append(order)
            return key(order, ring)

        monkeypatch.setattr(MonomialOrder, "key", counting)
        for (order, ring, _, f), basis in zip(cases, bases):
            looked_up.clear()
            r = reduce(f, basis, order)
            assert r != f and looked_up == [order]  # division steps ran, one lookup
            c_level = key(order, ring)
            assert type(c_level) is type((0).__xor__) and c_level.__name__ == "__xor__"
            assert c_level.__self__ == ring.fields

    def test_no_division_by_a_unit_leading_coefficient(self, monkeypatch):
        # Every basis a warm decision reduces against is monic.  A nonzero
        # multiple of a basis element shares its record, the primitive
        # integer associate, so it too has the leading coefficient 1.  No
        # step against either takes the pseudo-division branch, the one
        # place where reduce calls gcd(a, c) with the divisor's lead a.
        import conormal.groebner as groebner

        f = Polynomial(R, {(3, 2, 0): Fraction(1, 2), (1, 0, 3): 3, (0, 1, 4): 1})
        monic = buchberger([F_UMBRELLA, X**3 - Y * Z], GREVLEX)
        scaled = [g.scale(Fraction(-2, 3)) for g in monic]
        leads = []
        gcd = groebner.gcd

        def counting(a, c):
            leads.append(a)
            return gcd(a, c)

        monkeypatch.setattr(groebner, "gcd", counting)
        r = reduce(f, monic, GREVLEX)
        assert leads == []
        assert [g.divisor(GREVLEX) for g in scaled] == [g.divisor(GREVLEX) for g in monic]
        assert reduce(f, scaled, GREVLEX) == r
        assert leads == []
        halved = X**3 - Fraction(1, 2) * Y * Z
        assert reduce(f, [2 * X**3 - Y * Z], GREVLEX) == reduce(f, [halved], GREVLEX)
        assert leads and set(leads) == {2}

    @given(polynomials(R), st.lists(nonzero_polynomials(R, max_degree=2), min_size=1, max_size=3))
    def test_same_remainder_as_unfiltered_division(self, f, basis):
        assert reduce(f, basis, GREVLEX) == reference_reduce(f, basis, GREVLEX)

    @given(
        polynomials(R), polynomials(R),
        st.lists(st.tuples(polynomials(R, max_degree=2), polynomials(R, max_degree=2)),
                 min_size=1, max_size=3),
    )
    def test_same_remainder_as_unfiltered_division_under_top(self, p, q, vectors):
        f = encode_vector(p, q)
        basis = [encode_vector(a, b) for a, b in vectors]
        assert reduce(f, basis, TOP) == reference_reduce(f, basis, TOP)

    @given(polynomials(R), nonzero_polynomials(R))
    def test_remainder_terms_not_divisible(self, f, g):
        r = reduce(f, [g], GREVLEX)
        lm = R.unpack(g.divisor(GREVLEX)[0])
        assert all(not divides(lm, m) for m in r.terms)


def fraction_reduce(f, basis, order):
    """The division loop over Q that ``reduce`` ran before its divisor
    records were integral: each step divides the coefficient of the leading
    pending term by the divisor's leading coefficient, as a Fraction."""
    ring = f.ring
    key, guards = order.key(ring), ring.guards
    divisors = []
    for g in basis:
        if g:
            lm = max(g._terms, key=key)
            divisors.append((lm, g._terms[lm], [(m, c) for m, c in g._terms.items() if m != lm]))
    work, remainder = dict(f._terms), {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, lc, tail in divisors:
            if ((m | guards) - lm) & guards == guards:
                q, scale = m - lm, Fraction(c) / lc
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


class TestExactRemainder:
    """``reduce`` pseudo-divides on integers and rescales once at the end;
    its remainder is exactly that of the division loop over Q."""

    @pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=lambda o: o.kind)
    @given(polynomials(R, max_terms=6, max_degree=4),
           st.lists(nonzero_polynomials(R, max_degree=2), min_size=1, max_size=3))
    def test_same_remainder_as_the_fraction_loop(self, order, f, basis):
        assert reduce(f, basis, order) == fraction_reduce(f, basis, order)

    @given(
        polynomials(R), polynomials(R),
        st.lists(st.tuples(polynomials(R, max_degree=2), polynomials(R, max_degree=2)),
                 min_size=1, max_size=3),
    )
    def test_same_remainder_as_the_fraction_loop_under_top(self, p, q, vectors):
        f = encode_vector(p, q)
        basis = [encode_vector(a, b) for a, b in vectors]
        assert reduce(f, basis, TOP) == fraction_reduce(f, basis, TOP)

    def test_wide_coefficients_remove_content(self, monkeypatch):
        # 80-bit leads make each pseudo-division step scale by about 80
        # bits, past the growth after which the content comes out, and the
        # 80-bit factor of f stays in the content of what is left.
        import conormal.groebner as groebner

        rng = random.Random(80)

        def wide():
            return Fraction(rng.getrandbits(80) | 1, rng.getrandbits(20) | 1)

        basis = [
            Polynomial(R, {(2, 0, 0): wide(), (0, 1, 1): wide(), (0, 0, 1): wide()}),
            Polynomial(R, {(0, 2, 0): wide(), (1, 0, 1): wide(), (1, 0, 0): wide()}),
        ]
        f = (X**4 * Y**3 - 3 * X**2 * Y**2 * Z**2 + 5 * X * Y**4 * Z + Z**3).scale(rng.getrandbits(80))
        removed = []
        primitive_part = groebner._primitive_part

        def recording(m, c, work, remainder):
            u, *rest = primitive_part(m, c, work, remainder)
            if all(type(v) is int for v in (c, *work.values(), *remainder.values())):
                removed.append(u)  # the content of integers, not denominators
            return (u, *rest)

        monkeypatch.setattr(groebner, "_primitive_part", recording)
        for order in (GREVLEX, LEX):
            r = reduce(f, basis, order)
            assert r and r == fraction_reduce(f, basis, order)
        assert any(u != 1 for u in removed)


class TestBuchberger:
    def test_single_generator_is_its_own_basis(self):
        R4 = PolynomialRing(["x", "y", "z", "t"])
        x, y, z, t = R4.gens()
        basis = buchberger([x * z - y * t], GREVLEX)
        assert basis == [x * z - y * t]

    def test_lex_elimination_of_parameter(self):
        # t > x > y: eliminating t from {x - t^2, y - t^3} exposes y^2 - x^3
        Rt = PolynomialRing(["t", "x", "y"])
        t, x, y = Rt.gens()
        basis = buchberger([x - t**2, y - t**3], LEX)
        assert x**3 - y**2 in basis

    def test_idempotent_on_reduced_basis(self):
        basis = buchberger([X**2 - Y, X * Y - Z], GREVLEX)
        assert buchberger(basis, GREVLEX) == basis

    def test_generators_dropping_would_be_wrong(self):
        # (x, x + y) = (x, y); a naive interreduction that drops by leading
        # terms would lose y.
        basis = buchberger([X, X + Y], GREVLEX)
        assert ideal_membership(Y, Ideal([X, X + Y]))
        assert sorted(str(g) for g in basis) == ["x", "y"]

    @given(st.lists(nonzero_polynomials(R, max_terms=3, max_degree=2), min_size=1, max_size=3))
    @settings(max_examples=15)
    def test_basis_properties(self, gens):
        basis = buchberger(gens, GREVLEX)
        for g in gens:
            assert not reduce(g, basis, GREVLEX)
        for i in range(len(basis)):
            for j in range(i):
                s = s_polynomial(basis[i], basis[j], GREVLEX)
                assert not reduce(s, basis, GREVLEX)

    def test_constant_remainder_gives_unit_basis(self):
        assert buchberger([X, 1 - X], GREVLEX) == [R.one]
        assert buchberger([X * Y - 1, Y, Z], GREVLEX) == [R.one]

    @given(
        st.lists(nonzero_polynomials(R, max_terms=3, max_degree=2), min_size=1, max_size=2),
        st.lists(polynomials(R, max_terms=3, max_degree=2), min_size=1, max_size=2),
        st.sampled_from([GREVLEX, LEX]),
    )
    @example([X * Y - 1], [Y, R.zero], GREVLEX)  # the unit ideal, met in the loop
    @example([X, 1 - X], [Y], LEX)  # the unit ideal, a constant known prefix
    @settings(max_examples=15)
    def test_known_prefix_gives_the_same_basis(self, gens, extra, order):
        # The pair loop pairs nothing inside a known prefix.  Given the
        # records of a reduced basis as that prefix, then those of the
        # nonzero, distinct extras, it must still complete them to a basis
        # of all generators, or meet a constant iff that is the unit ideal.
        records = [b.divisor(order) for b in buchberger(gens, order)]
        known, seen = len(records), {(d[0], d[1], frozenset(d[2])) for d in records}
        for p in filter(None, extra):
            d = p.divisor(order)
            primitive = d[0], d[1], frozenset(d[2])
            if primitive not in seen:
                seen.add(primitive)
                records.append(d)
        expected = buchberger(gens + extra, order)
        completed = _complete(records, R, order, known)
        assert (completed is None) == (expected == [R.one])
        if completed is not None:
            assert _autoreduce(completed, R, order) == expected


def reference_s_polynomial(f, g, order):
    """(lcm/lm_f)*f/lc_f - (lcm/lm_g)*g/lc_g, by its definition on
    exponent tuples and with Polynomial arithmetic."""
    (a, fc), (b, gc) = lead(f, order), lead(g, order)
    lcm = tuple(map(max, a, b))

    def cofactor(exps, c):
        return Polynomial(f.ring, {tuple(u - v for u, v in zip(lcm, exps)): Fraction(1) / c})

    return cofactor(a, fc) * f - cofactor(b, gc) * g


class TestSPolynomial:
    # f and g are drawn non-monic, with Fraction coefficients.
    @pytest.mark.parametrize("order", [GREVLEX, LEX, block_order(1)], ids=lambda o: o.kind)
    @given(nonzero_polynomials(R), nonzero_polynomials(R))
    def test_is_its_definition(self, order, f, g):
        assert s_polynomial(f, g, order) == reference_s_polynomial(f, g, order)

    @given(*[st.tuples(polynomials(R), polynomials(R)).filter(any)] * 2)
    def test_is_its_definition_under_top(self, u, v):
        # Leads in different positions have the S-vector 0.
        f, g = encode_vector(*u), encode_vector(*v)
        positions = [R_TOP.unpack(h.divisor(TOP)[0])[:2] for h in (f, g)]
        expected = reference_s_polynomial(f, g, TOP) if positions[0] == positions[1] else 0
        assert s_polynomial(f, g, TOP) == expected

    def test_degree_limit_covers_the_tail(self):
        # Under lex, x leads x + y^MAX_DEGREE: the lcm x*y of the leads is
        # far below the limit, but the tail word y^MAX_DEGREE moves past it.
        R2 = PolynomialRing(["x", "y"])
        x, y = R2.gens()
        f = x + y**MAX_DEGREE
        assert f.divisor(LEX)[0] == R2.units[0]
        with pytest.raises(ValueError, match="past the limit"):
            s_polynomial(f, y, LEX)

    @pytest.mark.parametrize("order", [GREVLEX, LEX, TOP], ids=lambda o: o.kind)
    def test_zero_has_no_lead(self, order):
        ring = R_TOP if order is TOP else R
        g = ring.var(0) * ring.var(2) + ring.var(1)
        for pair in ((ring.zero, g), (g, ring.zero)):
            with pytest.raises(ValueError, match="zero polynomial has no leading term"):
                s_polynomial(*pair, order)
        with pytest.raises(ValueError, match="zero polynomial has no leading term"):
            ring.zero.divisor(order)
        assert ring.zero.primitive(order) == 0


class TestPairCriteria:
    """The pair criteria decide on packed words; the pairs they skip are
    pinned by the S-polynomials each basis takes, counted as calls of the
    pair loop's S-combination kernel ``_s_terms``."""

    # S-polynomials that buchberger builds, per corpus germ: for the
    # Jacobian ideal under grevlex and for the degree-2 trivial forms under
    # top.  The coprime test (lcm == product) and the chain criterion must
    # skip exactly the pairs that the exponent-tuple tests skip.
    S_PAIRS = {
        "coordinate_subspace.germ": (0, 11),
        "cusp3.germ": (1, 6),
        "segre.germ": (2, 8),
        "umbrella.germ": (2, 7),
    }

    def test_pair_criteria_skip_the_same_pairs(self, monkeypatch):
        import conormal.groebner as groebner

        built = []
        s_terms = groebner._s_terms

        def counting(record_f, record_g, ring, positions):
            built.append(positions)
            return s_terms(record_f, record_g, ring, positions)

        monkeypatch.setattr(groebner, "_s_terms", counting)
        assert sorted(corpus_names()) == sorted(self.S_PAIRS)
        for name, (jacobian, trivial) in self.S_PAIRS.items():
            germ = load_germ_file(name).germ
            built.clear()
            buchberger(list(germ.jacobian.generators), GREVLEX)
            assert len(built) == jacobian, name
            built.clear()
            _trivial_module(germ, 2)[1].ideal.groebner_basis()
            assert len(built) == trivial, name


class TestTrivialModuleWork:
    """Work gate: each corpus trivial-form module basis is pinned together
    with the S-polynomials and reductions that building it takes, counted
    as calls of the kernels ``_s_terms`` and ``_remainder`` that the pair
    loop and ``_autoreduce`` call.  A change to the kernels may change how
    long these take, not these numbers."""

    # (germ file, k) -> (S-polynomials, reductions, basis)
    WORK = {
        ("segre.germ", 2): (8, 18, [
            "_e6*y + _e2*z - _e4*t", "_e6*x + _e3*z - _e5*t", "_e4*x - _e5*y - _e1*z",
            "_e2*x - _e3*y - _e1*t", "_e3*z^2 - _e2*z*t - _e5*z*t + _e4*t^2",
            "_e5*y*z + _e1*z^2 - _e4*y*t", "_e3*y*z - _e2*y*t + _e1*z*t",
            "_e5*x*z - _e5*y*t", "_e3*x*z - _e3*y*t", "_e1*x*z - _e1*y*t",
        ]),
        ("segre.germ", 3): (13, 23, [
            "_e3*z - _e4*t", "_e4*y - _e1*z", "_e3*y - _e1*t", "_e4*x - _e2*z",
            "_e3*x - _e2*t", "_e1*x - _e2*y", "_e2*z*t - _e1*t^2", "_e2*z^2 - _e1*z*t",
            "_e2*y*z - _e1*y*t", "_e2*x*z - _e2*y*t",
        ]),
        ("umbrella.germ", 1): (3, 8, [
            "_e2*x*y + 1/2*_e1*y^2 - _e3*z", "_e3*x*y*z - _e2*x*z^2 - 1/2*_e1*y*z^2",
            "_e1*y^3 - 2*_e3*y*z + 2*_e2*z^2", "_e3*x*y^2 - _e3*z^2", "_e1*x*y^2 - _e1*z^2",
        ]),
        ("umbrella.germ", 2): (7, 14, [
            "_e2*y*z - _e1*z^2", "_e3*x*z + 1/2*_e1*z^2", "_e1*y^2 + 2*_e3*z",
            "_e3*x*y + 1/2*_e2*y^2", "_e1*x*y - _e2*z", "_e2*y^3 + 2*_e3*z^2",
            "_e2*x*y^2 - _e2*z^2",
        ]),
        ("cusp3.germ", 1): (2, 6, [
            "_e3*x*y + _e2*x*z - 3*_e1*y*z", "_e1*x^2 - 1/3*_e3*y - 1/3*_e2*z",
            "_e3*x^3 - _e3*y*z", "_e2*x^3 - _e2*y*z",
        ]),
    }

    @pytest.mark.parametrize("name, k", list(WORK))
    def test_work_and_basis_are_pinned(self, monkeypatch, name, k):
        import conormal.groebner as groebner

        calls = {"_s_terms": 0, "_remainder": 0}
        for attr in calls:
            original = getattr(groebner, attr)

            def counting(*args, attr=attr, original=original):
                calls[attr] += 1
                return original(*args)

            monkeypatch.setattr(groebner, attr, counting)
        # The top key is grevlex's, which is top only on module terms: every
        # word keyed under top has exactly one position field, equal to 1.
        keyed, strays = [], []
        key = MonomialOrder.key

        def checking(order, ring):
            word_key = key(order, ring)
            if order.kind != "top":
                return word_key

            def module_term_key(m):
                keyed.append(m)
                if sorted(ring.unpack(m)[: order.split]) != [0] * (order.split - 1) + [1]:
                    strays.append(m)
                return word_key(m)

            return module_term_key

        monkeypatch.setattr(MonomialOrder, "key", checking)
        s_polys, reductions, basis = self.WORK[name, k]
        built = _trivial_module(load_germ_file(name).germ, k)[1].ideal.groebner_basis()
        assert [str(b) for b in built] == basis
        assert (calls["_s_terms"], calls["_remainder"]) == (s_polys, reductions)
        assert keyed and strays == []


class TestPairLoopRecords:
    """Work gate: the pair loop runs on divisor records alone.  Every
    reduction of a basis build, a call of the division kernel
    ``_remainder``, receives in its groups the very records built for it,
    and each record is built once: by ``Polynomial.divisor`` for a
    generator, by ``_record`` for an element the pair loop makes.  The pair
    loop ``_complete`` makes no polynomial; ``_autoreduce`` makes exactly one
    per element of the basis, with one ``_record`` call for its cached
    record."""

    CASES = [("umbrella.germ", "jacobian")] + list(TestTrivialModuleWork.WORK)

    @pytest.mark.parametrize("name, k", CASES)
    def test_reductions_receive_cached_records(self, monkeypatch, name, k):
        import conormal.groebner as groebner

        germ = load_germ_file(name).germ
        if k == "jacobian":
            target = Ideal(germ.jacobian.generators)
        else:
            target = _trivial_module(germ, k)[1].ideal
        reductions, callers = [], Counter()
        remainder = groebner._remainder

        def recording(work, groups, positions, key, ring):
            callers[sys._getframe(1).f_code.co_name] += 1
            reductions.append([d for group in groups.values() for d in group])
            return remainder(work, groups, positions, key, ring)

        builds, kept, made = Counter(), [], set()
        divisor, record = Polynomial.divisor, groebner._record
        recorders = Counter()

        def counting(self, order):
            if order in (self._lead or {}):
                return divisor(self, order)
            builds["divisor", id(self)] += 1
            kept.append(self)  # keeps each id unique while counting
            d = divisor(self, order)
            made.add(id(d))
            return d

        def recording_record(ints, lm):
            recorders[sys._getframe(1).f_code.co_name] += 1
            d = record(ints, lm)
            builds["_record", id(d)] += 1
            kept.append(d)
            made.add(id(d))
            return d

        grown = []
        complete = groebner._complete

        def completing(divisors, ring, order, known):
            given = len(divisors)
            records = complete(divisors, ring, order, known)
            grown.append(len(records) - given)
            return records

        makers, init = Counter(), Polynomial.__init__

        def constructing(self, *args, **kwargs):
            # The innermost of the two engine functions on the stack.
            frame = sys._getframe(1)
            while frame and frame.f_code.co_name not in ("_complete", "_autoreduce"):
                frame = frame.f_back
            if frame:
                makers[frame.f_code.co_name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(groebner, "_remainder", recording)
        monkeypatch.setattr(groebner, "_record", recording_record)
        monkeypatch.setattr(groebner, "_complete", completing)
        monkeypatch.setattr(Polynomial, "divisor", counting)
        monkeypatch.setattr(Polynomial, "__init__", constructing)
        basis = target.groebner_basis()
        assert set(callers) == {"_complete", "_autoreduce"}
        assert all(id(d) in made for divisors in reductions for d in divisors)
        assert builds and set(builds.values()) == {1}
        assert recorders == Counter(_complete=sum(grown), _autoreduce=len(basis))
        assert makers == Counter(_autoreduce=len(basis))


class TestPositionGroups:
    """Under ``top`` a lead divides a term only in the term's position, so
    the division kernel, the pair loop and ``_autoreduce`` scan the divisor
    records grouped by the position word of their lead.  The grouping
    changes no answer: on every corpus germ and in every degree k <= n,
    ``is_trivial_form`` agrees with ``reference_is_trivial``, which tests
    every basis element, and each cached group holds the basis's own
    records, all of one position."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_answers_equal_the_ungrouped_division(self, name):
        germ = load_germ_file(name).germ
        ring = germ.ring
        rng = random.Random(41)
        answers = []
        for k in range(ring.nvars + 1):
            gens = trivial_form_generators(germ, k) if k else list(germ.generators)
            for _ in range(8):
                zero = DifferentialForm(ring, k, {}) if k else ring.zero
                member = sum((wedge(random_polynomial(rng, ring, 2, 1, nonzero=True), g)
                              for g in rng.sample(gens, min(3, len(gens)))), zero)
                noise = None
                while not noise:
                    noise = random_form(rng, ring, k, max_terms=2)
                for omega in (member, member + noise):
                    answer = is_trivial_form(omega, germ)
                    assert answer == reference_is_trivial(omega, germ), (name, k, str(omega))
                    answers.append(answer)
                assert answers[-2], (name, k, str(member))
        assert False in answers

    @pytest.mark.parametrize("name", corpus_names())
    def test_groups_hold_the_basis_records_of_one_position(self, name):
        germ = load_germ_file(name).germ
        n = germ.ring.nvars
        ideals = [germ.ideal] + [_trivial_module(germ, k)[1].ideal for k in range(1, n + 1)]
        for ideal in ideals:
            basis, order = ideal.groebner_basis(), ideal.order
            positions = order.positions
            records = [g.divisor(order) for g in basis]
            grouped = [d for group in ideal._groups.values() for d in group]
            assert sorted(map(id, grouped)) == sorted(map(id, records)), name
            for word, group in ideal._groups.items():
                assert all(d[0] & positions == word for d in group), name
                indices = [next(i for i, d in enumerate(records) if d is e) for e in group]
                assert indices == sorted(indices), name  # in basis order
                if positions:  # one position field, equal to 1
                    fields = ideal.ring.unpack(word)[: order.split]
                    assert sorted(fields) == [0] * (order.split - 1) + [1], name
                else:
                    assert word == 0, name


class TestIntegerPairLoop:
    """The pair loop and ``_autoreduce`` divide and combine on integers: a
    basis build on integer input makes a Fraction only where
    ``_autoreduce`` makes the reduced elements monic at the end."""

    def test_only_the_final_monic_divides(self, monkeypatch):
        import conormal.groebner as groebner
        import conormal.poly as poly

        callers = []
        div = poly._div

        def recording(a, b):
            # The two innermost callers; before Python 3.12 a comprehension
            # is a frame of its own, named like <dictcomp>, so it is skipped.
            names, frame = [], sys._getframe(1)
            while len(names) < 2:
                if not frame.f_code.co_name.startswith("<"):
                    names.append(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(tuple(names))
            return div(a, b)

        monkeypatch.setattr(poly, "_div", recording)
        monkeypatch.setattr(groebner, "_div", recording)
        # Leading coefficients 2, 3 and 5: every S-pair has L > 1, and
        # the reductions pseudo-divide.
        gens = [2 * X**2 - 3 * Y * Z, 3 * X * Y - 5 * Z**2, 5 * Y**2 - 2 * X * Z]
        for order in (GREVLEX, LEX):
            basis = buchberger(gens, order)
            assert any(type(c) is Fraction for g in basis for c in g.terms.values())
        assert callers and set(callers) == {("_autoreduce", "buchberger")}

    def test_a_scaled_tail_takes_its_lead_along(self):
        # A minimal element's tail 5*y^2 is divided by 25*y^2 + 6*x*z, whose
        # leading coefficient does not divide 5, so the division scales the
        # tail; the lead must be scaled by the same multiplier.  The basis is
        # sympy's, made monic.
        gens = [3 * X**2 * Y * Z**2 + 5 * Y**2, 5 * X**2 * Y * Z**2 - 2 * X * Z]
        assert [str(g) for g in buchberger(gens, GREVLEX)] == [
            "y^2 + 6/25*x*z", "x^2*y*z^2 - 2/5*x*z", "x^3*z^3 + 5/3*x*y*z"]


class TestParserWork:
    """Work gate: the wedge products and term-dict products the parser makes
    for each corpus germ file and for one line of the ``decide`` benchmark.
    Numbers, variables and differentials multiply into one accumulated term,
    so only a parenthesized factor is wedged with ``mixed_mul``."""

    # germ file or form line -> (mixed_mul calls, _mul_terms calls)
    WORK = {
        "coordinate_subspace.germ": (0, 0),
        "cusp3.germ": (0, 0),
        "segre.germ": (1, 2),
        "umbrella.germ": (0, 0),
        "(2*x2 - 2)*((x2)*dx2*dx3*dx4)": (2, 2),
    }

    def test_every_corpus_file_is_pinned(self):
        assert sorted(k for k in self.WORK if k.endswith(".germ")) == corpus_names()

    @pytest.mark.parametrize("source", list(WORK))
    def test_products_are_pinned(self, monkeypatch, source):
        import conormal._expr as expr

        calls = {"mixed_mul": 0, "_mul_terms": 0}
        for attr in calls:
            original = getattr(expr, attr)

            def counting(*args, attr=attr, original=original):
                calls[attr] += 1
                return original(*args)

            monkeypatch.setattr(expr, attr, counting)
        if source.endswith(".germ"):
            load_germ_file(source)
        else:
            parse_form(source, PolynomialRing(["x1", "x2", "x3", "x4"]))
        assert (calls["mixed_mul"], calls["_mul_terms"]) == self.WORK[source]


class TestWarmReduce:
    """A cached basis keeps its divisor records: a warm membership test
    fetches none and checks the ring of its argument once."""

    def _count_divisor_calls(self, monkeypatch):
        calls = []
        divisor = Polynomial.divisor

        def counting(self, order):
            calls.append(self)
            return divisor(self, order)

        monkeypatch.setattr(Polynomial, "divisor", counting)
        return calls

    def test_ideal_membership_fetches_no_divisor(self, monkeypatch):
        ideal = Ideal([F_UMBRELLA, X * Z - Y**3])
        assert ideal_membership(X * F_UMBRELLA, ideal)
        calls = self._count_divisor_calls(monkeypatch)
        assert ideal_membership(Y * F_UMBRELLA - X * (X * Z - Y**3), ideal)
        assert not ideal_membership(X + Y, ideal)
        assert calls == []

    def test_submodule_contains_fetches_no_divisor(self, monkeypatch):
        germ = load_germ_file("umbrella.germ").germ
        positions, module = _trivial_module(germ, 1)
        module.ideal.groebner_basis()
        calls = self._count_divisor_calls(monkeypatch)
        [omega] = parse_form("y*z*dx + 2*x*z*dy - 2*x*y*dz", germ.ring)
        assert not is_trivial_form(omega, germ)
        assert calls == []

    def test_warm_remainder_equals_cold_remainder(self):
        # The warm test divides by the records the ideal caches, the cold
        # reduce by records fetched from the basis: both remainders are 0
        # together.
        gens = [F_UMBRELLA, X * Z - Y**3]
        ideal = Ideal(gens)
        basis = ideal.groebner_basis()
        rng = random.Random(5)
        hits = 0
        for _ in range(20):
            f = random_polynomial(rng, R, max_terms=4, max_degree=4)
            if rng.random() < 0.5:  # force plenty of members
                f = sum((random_polynomial(rng, R, max_terms=2, max_degree=2) * g for g in gens),
                        R.zero)
            member = ideal_membership(f, ideal)
            assert (not reduce(f, basis, GREVLEX)) == member
            hits += member
        assert 0 < hits < 20

    def test_ring_still_checked(self):
        ideal = Ideal([F_UMBRELLA])
        basis = ideal.groebner_basis()
        other = PolynomialRing(["x", "y", "w"]).var(0)
        with pytest.raises(ValueError, match="ring mismatch"):
            reduce(other, basis, GREVLEX)


class TestIdealMembership:
    def test_membership_under_the_order_of_the_cached_basis(self):
        # An Ideal keeps its basis under its own order; membership reduces
        # under that order and agrees with the grevlex ideal.
        gens = [X**2 - Y * Z, Y**2 - X * Z**2]
        lex = Ideal(gens, LEX)
        assert lex.order is LEX and list(lex.groebner_basis()) == buchberger(gens, LEX)
        grevlex = Ideal(gens)
        rng = random.Random(11)
        hits = 0
        for _ in range(30):
            f = random_polynomial(rng, R, max_terms=3, max_degree=3)
            if rng.random() < 0.5:  # force plenty of positive instances
                f = sum((random_polynomial(rng, R, max_terms=2, max_degree=2) * g for g in gens),
                        R.zero)
            expected = ideal_membership(f, grevlex)
            assert ideal_membership(f, lex) == expected
            hits += expected
        assert 0 < hits < 30

    def test_scalar_multiple(self, cusp):
        f = cusp.generators[0]
        assert ideal_membership(3 * f, cusp.ideal)

    def test_variable_not_in_principal_ideal(self, cusp):
        # independent oracle: x does not vanish at (1, 1, 1) although f does
        assert not ideal_membership(X, cusp.ideal)

    def test_zero_in_every_ideal(self, cusp):
        assert ideal_membership(R.zero, cusp.ideal)

    def test_ring_mismatch(self):
        other = PolynomialRing(["a"])
        with pytest.raises(ValueError):
            ideal_membership(other.var(0), Ideal([X]))

    @given(polynomials(R, max_terms=2, max_degree=2), polynomials(R, max_terms=2, max_degree=2))
    @settings(max_examples=15)
    def test_membership_closed_under_combinations(self, p, q):
        ideal = Ideal([X**2 - Y, Y * Z])
        f = X**2 - Y
        assert ideal_membership(p * f + q * (Y * Z), ideal)


# Two generators whose primitive integer records have the leading
# coefficients 2 and 3, so the normal forms of words carry different
# multipliers before they are divided by them.
HALF_GENS = [X**2 - Y.scale(Fraction(1, 2)), Y * Z - X.scale(Fraction(1, 3))]
HALF_IDEAL = Ideal(HALF_GENS)


@functools.cache
def warm_trivial_module(name, k):
    germ = load_germ_file(name).germ
    return germ, *_trivial_module(germ, k)


class TestNormalFormTable:
    """Under ``grevlex`` and ``top`` membership adds up the exact normal
    forms of f's words from the ideal's table; the division of ``reduce``
    is the reference."""

    def test_records_have_leading_coefficients_other_than_one(self):
        basis = HALF_IDEAL.groebner_basis()
        assert sorted(g.divisor(GREVLEX)[1] for g in basis) == [2, 3]
        for name in ("umbrella.germ", "cusp3.germ"):
            _, _, module = warm_trivial_module(name, 1)
            order = module.ideal.order
            assert max(g.divisor(order)[1] for g in module.ideal.groebner_basis()) > 1

    @given(st.lists(st.tuples(polynomials(R, max_terms=4, max_degree=4),
                              polynomials(R, max_terms=2, max_degree=2),
                              polynomials(R, max_terms=2, max_degree=2)),
                    min_size=1, max_size=6))
    def test_ideal_answers_as_the_division(self, queries):
        # One ideal for every example, so the table grows across them.
        basis = HALF_IDEAL.groebner_basis()
        for f, a, b in queries:
            member = a * HALF_GENS[0] + b * HALF_GENS[1]
            for h in (f, member, f + member):
                assert ideal_membership(h, HALF_IDEAL) == (not reduce(h, basis, GREVLEX))
            assert ideal_membership(member, HALF_IDEAL)

    @given(st.lists(nonzero_polynomials(R, max_terms=3, max_degree=2), min_size=1, max_size=2),
           st.lists(polynomials(R, max_terms=4, max_degree=3), min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_drawn_ideal_answers_as_the_division(self, gens, queries):
        ideal = Ideal(gens)
        basis = ideal.groebner_basis()
        members = [q * gens[i % len(gens)] for i, q in enumerate(queries)]
        for h in queries + members + [q + m for q, m in zip(queries, members)]:
            assert ideal_membership(h, ideal) == (not reduce(h, basis, GREVLEX))

    @pytest.mark.parametrize("name", ["umbrella.germ", "cusp3.germ"])
    @given(data=st.data())
    @settings(max_examples=30)
    def test_trivial_module_answers_as_the_division(self, name, data):
        germ, positions, module = warm_trivial_module(name, 1)
        basis, order = module.ideal.groebner_basis(), module.ideal.order
        gens = trivial_form_generators(germ, 1)
        for _ in range(data.draw(st.integers(1, 4))):
            omega = data.draw(forms(germ.ring, 1))
            for g in gens:
                if data.draw(st.booleans()):
                    omega = omega + wedge(data.draw(polynomials(germ.ring, 2, 2)), g)
            parts = [(positions[S], t) for S, t in omega._terms.items()]
            expected = not reduce(module.encode(parts), basis, order)
            assert module.contains(parts) == is_trivial_form(omega, germ) == expected

    def test_every_entry_is_the_normal_form_of_its_word(self):
        rng = random.Random(50)
        ideal = Ideal(HALF_GENS)
        for _ in range(30):
            ideal_membership(random_polynomial(rng, R, max_terms=4, max_degree=5), ideal)
        germ, positions, module = warm_trivial_module("umbrella.germ", 1)
        for _ in range(10):
            omega = random_form(rng, germ.ring, 1)
            module.contains((positions[S], t) for S, t in omega._terms.items())
        for table, ring, order, basis in [
            (ideal._normal, R, GREVLEX, ideal.groebner_basis()),
            (module.ideal._normal, module.position_ring, module.ideal.order,
             module.ideal.groebner_basis()),
        ]:
            assert len(table) > 10
            for m, entry in table.items():
                terms = dict(entry)
                assert terms == reduce(Polynomial(ring, {m: 1}, _clean=True), basis, order)._terms
                assert all(type(c) is int or c.denominator != 1 for c in terms.values())

    def test_remainder_runs_once_per_new_word(self, monkeypatch):
        import conormal.groebner as groebner

        ideal = Ideal(HALF_GENS)
        ideal.groebner_basis()
        calls = []
        remainder = groebner._remainder

        def counting(work, *args):
            calls.append(dict(work))
            return remainder(work, *args)

        monkeypatch.setattr(groebner, "_remainder", counting)
        f = X**3 * Y - 2 * Z**2 + X
        assert not ideal_membership(f, ideal)
        assert len(calls) == 3
        calls.clear()
        assert not ideal_membership(f, ideal)
        assert calls == []
        assert not ideal_membership(f.scale(7) + Y**5, ideal)
        assert calls == [(Y**5)._terms]

    def test_each_ideal_keeps_its_own_table(self):
        # The word x has the normal form y modulo (x - y) and z modulo (x - z).
        a, b = Ideal([X - Y]), Ideal([X - Z])
        assert ideal_membership(X - Y, a)
        assert not ideal_membership(X - Y, b)
        assert ideal_membership(X - Z, b)
        assert not ideal_membership(X - Z, a)

    def test_lex_divides_the_whole_polynomial(self):
        # NF(x^2) = y^40000 is past MAX_DEGREE, but the terms of f cancel in
        # its division: x^2 - x*y^20000 = x*(x - y^20000).
        ideal = Ideal([X - Y**20000], LEX)
        assert ideal_membership(X**2 - X * Y**20000, ideal)
        assert ideal._normal == {}


class TestEliminate:
    def test_parametrized_cusp(self):
        Rc = PolynomialRing(["x", "y", "t"])
        x, y, t = Rc.gens()
        result = eliminate(Ideal([x - t**2, y - t**3]), [2])
        target = PolynomialRing(["x", "y"])
        tx, ty = target.gens()
        assert result.ring == target
        assert result.same_ideal(Ideal([ty**2 - tx**3]))

    def test_variable_independent_of_dropped(self):
        R2 = PolynomialRing(["x", "y"])
        x, _ = R2.gens()
        result = eliminate(Ideal([x]), [1])
        assert result.ring.variables == ("x",)
        single = PolynomialRing(["x"])
        assert result.same_ideal(Ideal([single.var(0)]))
        # Dropping nothing keeps the generators and the ring.
        kept = eliminate(Ideal([x]), [])
        assert kept.ring == R2 and kept.generators == (x,)

    def test_rabinowitsch_style_intersection(self):
        Rt = PolynomialRing(["t", "x", "y"])
        t, x, y = Rt.gens()
        result = eliminate(Ideal([t * x - 1, t * y]), [0])
        target = PolynomialRing(["x", "y"])
        assert result.same_ideal(Ideal([target.var(1)]))

    def test_output_lies_in_ideal_and_avoids_dropped_vars(self):
        Rc = PolynomialRing(["x", "y", "t"])
        x, y, t = Rc.gens()
        ideal = Ideal([x - t**2, y - t**3])
        result = eliminate(ideal, [2])
        back = [g.substitute(Rc, [x, y]) for g in result.generators]
        for g, b in zip(result.generators, back):
            assert all(m[-1] == 0 for m in b.terms)  # mapped back without t
            assert ideal_membership(b, ideal)

    def test_cannot_drop_everything(self):
        with pytest.raises(ValueError):
            eliminate(Ideal([X]), [0, 1, 2])


class TestQuotient:
    def test_intersection(self):
        assert intersection(Ideal([X]), Ideal([Y])).same_ideal(Ideal([X * Y]))
        assert intersection(Ideal([X**2 * Y]), Ideal([X * Y**3])).same_ideal(Ideal([X**2 * Y**3]))
        # (x, y) and (x, z): the two lines' union is V(x, y*z)
        assert intersection(Ideal([X, Y]), Ideal([X, Z])).same_ideal(Ideal([X, Y * Z]))
        # The generators are the reduced grevlex basis, sorted by lead.
        meet = intersection(Ideal([X**2 * Y, X * Y * Z - Z**3]), Ideal([Y**2 + X * Z, Z]))
        assert [str(g) for g in meet.generators] == ["x*y*z - z^3", "x*z^3", "x^2*y^2", "z^5"]

    def test_quotient(self):
        assert quotient(Ideal([X**2 * Y]), X).same_ideal(Ideal([X * Y]))
        assert quotient(Ideal([X * Y, X * Z]), X).same_ideal(Ideal([Y, Z]))
        assert quotient(Ideal([X * Y, X * Z]), Y).same_ideal(Ideal([X]))
        assert quotient(Ideal([X]), Y).same_ideal(Ideal([X]))
        assert quotient(Ideal([X]), X * Y).same_ideal(Ideal([R.one]))
        assert quotient(Ideal([X]), R.zero).same_ideal(Ideal([R.one]))
        # The generators are the reduced grevlex basis, sorted by lead.
        colon = quotient(Ideal([X**2 * Y, X * Y * Z - Z**3]), 2 * X + Z)
        assert [str(g) for g in colon.generators] == [
            "x*y*z - z^3", "x*y^2 - y*z^2 + 2*z^3", "x^2*y", "z^4", "x*z^3"]

    def test_ring_is_checked(self):
        # Also for the zero polynomial, whose quotient is the whole ring.
        _, v = PolynomialRing(["u", "v"]).gens()
        for g in (v, v.ring.zero):
            with pytest.raises(ValueError, match="ring mismatch"):
                quotient(Ideal([X**2]), g)

    @given(nonzero_polynomials(R, max_terms=3, max_degree=2),
           nonzero_polynomials(R, max_terms=3, max_degree=2))
    @settings(max_examples=20)
    def test_quotient_of_a_principal_ideal(self, f, g):
        # (f*g : g) = (f), and every element of (f : g) times g lies in (f)
        assert quotient(Ideal([f * g]), g).same_ideal(Ideal([f]))
        for h in quotient(Ideal([f]), g).generators:
            assert ideal_membership(h * g, Ideal([f]))


class TestImplicitization:
    def test_cusp_even_with_a_parameter_named_like_a_variable(self):
        plane = PolynomialRing(["x", "y"])
        x, y = plane.gens()
        for name in ("t", "x"):
            params = PolynomialRing([name])
            t = params.var(0)
            image = implicitization(plane, [t**2, t**3])
            assert image.ring == plane
            assert image.same_ideal(Ideal([y**2 - x**3]))

    def test_twisted_cubic_cone_gives_its_ideal(self):
        ring = PolynomialRing(["x", "y", "z", "w"])
        x, y, z, w = ring.gens()
        params = PolynomialRing(["s", "t"])
        s, t = params.gens()
        image = implicitization(ring, [s**3, s**2 * t, s * t**2, t**3])
        assert image.same_ideal(Ideal([x * z - y**2, y * w - z**2, x * w - y * z]))

    def test_curve_in_a_plane(self):
        params = PolynomialRing(["s"])
        s = params.var(0)
        image = implicitization(R, [params.zero, s, s**2])
        assert image.same_ideal(Ideal([X, Y**2 - Z]))

    def test_one_image_per_variable(self):
        params = PolynomialRing(["s"])
        with pytest.raises(ValueError):
            implicitization(R, [params.var(0)] * 2)


@st.composite
def small_ideal_cases(draw):
    """(generators, g) with g drawn so that g in I, g in rad(I) only, and
    neither all occur."""
    p = draw(nonzero_polynomials(R, max_terms=2, max_degree=2))
    q = draw(polynomials(R, max_terms=2, max_degree=2))
    gens = [p**2] + ([q] if q else [])
    h = draw(polynomials(R, max_terms=2, max_degree=1))
    g = draw(
        st.sampled_from([p**2 * h + q, p * h + q, p, p + h])
        | polynomials(R, max_terms=2, max_degree=2)
    )
    return gens, g


def _rabinowitsch_reference(g, gens):
    """g in rad(I) iff I + (1 - t*g) contains a nonzero constant; written
    out here without the plain-membership shortcut of radical_membership."""
    ext = PolynomialRing(["x", "y", "z", "t"])

    def lift(p):
        return Polynomial(ext, {m + (0,): c for m, c in p.terms.items()})

    t = ext.var(3)
    basis = buchberger([lift(f) for f in gens] + [ext.one - t * lift(g)], GREVLEX)
    return any(b and b == b.constant_coefficient() for b in basis)


class TestRadicalMembership:
    def test_square_among_generators(self):
        ideal = Ideal([F_UMBRELLA, Y**2, 2 * X * Y, 2 * Z])
        assert radical_membership(Y, ideal)

    def test_square_root(self):
        assert radical_membership(X, Ideal([X**2]))

    def test_not_vanishing_on_plane(self):
        assert not radical_membership(X, Ideal([Y]))

    @given(polynomials(R, max_terms=2, max_degree=2))
    @settings(max_examples=15)
    def test_consistency_with_membership_and_squares(self, f):
        ideal = Ideal([X * Y, Z**2])
        if ideal_membership(f, ideal):
            assert radical_membership(f, ideal)
        assert radical_membership(f, ideal) == radical_membership(f * f, ideal)

    @given(small_ideal_cases())
    @settings(max_examples=20)
    def test_agrees_with_pure_rabinowitsch(self, case):
        gens, g = case
        assert radical_membership(g, Ideal(gens)) == _rabinowitsch_reference(g, gens)

    def test_fresh_variable_avoids_differential_names(self):
        # Rabinowitsch adds a variable _t; beside d_t it would read as dt's
        # differential, so the extended ring must pick another name.
        ring = PolynomialRing(["x", "y", "d_t"])
        x, y, _ = ring.gens()
        assert _fresh_name(ring) == "_t_"
        assert radical_membership(x, Ideal([x**2, y]))
        assert not radical_membership(x, Ideal([y]))

    def test_no_pair_inside_the_cached_basis(self, monkeypatch):
        # The cached basis of I is already a Groebner basis in the ring with
        # t appended, so no S-polynomial of two of its elements is built.
        import conormal.groebner as groebner

        ideal = Ideal([X**2 - Y * Z, Y**2 - X * Z, Z**2 - X * Y])
        ext = PolynomialRing(R.variables + ("_t",))
        lift = ext.gens()[:3]
        # A polynomial and its nonzero multiples share their divisor record.
        cached = {b.substitute(ext, lift).divisor(GREVLEX) for b in ideal.groebner_basis()}
        assert len(cached) > 2
        built = []
        s_terms = groebner._s_terms

        def recording(record_f, record_g, ring, positions):
            assert ring == ext
            built.append((record_f, record_g))
            return s_terms(record_f, record_g, ring, positions)

        monkeypatch.setattr(groebner, "_s_terms", recording)
        assert not radical_membership(X + Y, ideal)
        assert built
        assert not any(f in cached and g in cached for f, g in built)

    def test_answers_from_the_pair_loop_alone(self, monkeypatch, pair_loops):
        # The step asks only whether the pair loop meets a constant: it
        # neither computes nor auto-reduces a basis, unit or not.
        import conormal.groebner as groebner

        ideal = Ideal([X**2 - Y * Z, Y**3])
        ideal.groebner_basis()
        pair_loops.clear()
        called = []
        monkeypatch.setattr(groebner, "buchberger", lambda *a: called.append("buchberger"))
        monkeypatch.setattr(groebner, "_autoreduce", lambda *a: called.append("_autoreduce"))
        assert groebner._rabinowitsch(Y, ideal)
        assert not groebner._rabinowitsch(X + Z, ideal)
        assert called == []
        assert [known for *_, known in pair_loops] == [2, 2]

    def test_lifts_records_and_makes_only_the_relation(self, monkeypatch):
        # The step lifts the cached records word by word: it maps no
        # polynomial into the ring with t, and the one polynomial it makes
        # is the relation 1 - t*g.
        import conormal.groebner as groebner

        ideal, outside = Ideal([X**2 - Y * Z, Y**3]), X + Z
        ideal.groebner_basis()

        def refusing(*args):
            raise AssertionError("the Rabinowitsch step made a polynomial by a ring map")

        made, init = [], Polynomial.__init__

        def constructing(self, ring, *args, **kwargs):
            made.append(ring.variables)
            init(self, ring, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "substitute", refusing)
        monkeypatch.setattr(Polynomial, "primitive", refusing)
        monkeypatch.setattr(Polynomial, "__init__", constructing)
        assert groebner._rabinowitsch(Y, ideal)
        assert not groebner._rabinowitsch(outside, ideal)
        assert made == [R.variables + ("_t",)] * 2


class TestKrullDimension:
    def test_hypersurface(self):
        assert krull_dimension(Ideal([F_UMBRELLA])) == 2

    def test_singular_locus_of_umbrella_is_a_line(self):
        assert krull_dimension(Ideal([F_UMBRELLA, Y**2, 2 * X * Y, 2 * Z])) == 1

    def test_unit_ideal_is_empty(self):
        assert krull_dimension(Ideal([R.one])) == -1
        assert krull_dimension(Ideal([R.const(5)])) == -1

    def test_zero_ideal_is_everything(self):
        assert krull_dimension(Ideal([R.zero])) == 3

    @given(nonzero_polynomials(R, max_terms=3, max_degree=3))
    @settings(max_examples=15)
    def test_principal_nonconstant_has_dimension_n_minus_one(self, f):
        if f == f.constant_coefficient():
            return
        assert krull_dimension(Ideal([f])) == 2


class TestModuleMembership:
    def test_component_multiple(self):
        f = F_UMBRELLA
        e1 = (f, R.zero)
        e2 = (R.zero, f)
        assert in_submodule(e1, [e1, e2])

    def test_unit_component_cannot_appear(self):
        f = F_UMBRELLA
        assert not in_submodule((R.one,), [(f,)])

    def test_position_variables_avoid_differential_names(self):
        ring = PolynomialRing(["x", "d_e1"])
        x, _ = ring.gens()
        assert _fresh_name(ring, "_e1") == "_e1_"
        assert in_submodule((x**2,), [(x,)])
        assert not in_submodule((x,), [(x**2,)])

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            module_buchberger([(X,), (X, Y)])
        with pytest.raises(ValueError):
            module_reduce((X,), [(X, Y)])

    def test_vectors_need_positive_rank_and_one_ring(self):
        other = PolynomialRing(["x", "y", "w"]).var(0)
        with pytest.raises(ValueError, match="positive rank"):
            module_reduce((), [(X,)])
        with pytest.raises(ValueError, match="ring mismatch"):
            module_reduce((X, other), [(X, Y)])
        with pytest.raises(ValueError, match="must all lie in"):
            module_buchberger([(X, Y), (other, other)])

    def test_rank_one_agrees_with_ideal_membership(self):
        rng = random.Random(20240)
        hits = 0
        for _ in range(50):
            gens = [
                random_polynomial(rng, R, max_terms=2, max_degree=2, nonzero=True)
                for _ in range(rng.randint(1, 2))
            ]
            f = random_polynomial(rng, R, max_terms=2, max_degree=2)
            if rng.random() < 0.5:  # force plenty of positive instances
                f = sum(
                    (random_polynomial(rng, R, max_terms=2, max_degree=1) * g for g in gens),
                    R.zero,
                )
            expected = ideal_membership(f, Ideal(gens))
            got = in_submodule((f,), [(g,) for g in gens])
            assert got == expected
            hits += expected
        assert 0 < hits < 50  # both outcomes exercised

    @pytest.mark.parametrize("rank, seed", [(2, 31), (3, 32)])
    def test_agrees_with_idealization(self, rank, seed):
        # Reference without the module code: v is in M iff sum e_i*v_i lies
        # in the ideal of Q[e, x] generated by the encoded generators of M
        # and all products e_i*e_j (Nagata idealization).
        ring = PolynomialRing([f"e{i}" for i in range(rank)] + list(R.variables))
        es = ring.gens()[:rank]
        square = [a * b for i, a in enumerate(es) for b in es[i:]]

        def encode(v):
            return sum(
                (e * p.substitute(ring, [ring.var(rank + i) for i in range(3)])
                 for e, p in zip(es, v)),
                ring.zero,
            )

        rng = random.Random(seed)
        hits = 0
        for _ in range(25):
            gens = [
                tuple(random_polynomial(rng, R, max_terms=2, max_degree=2)
                      for _ in range(rank))
                for _ in range(rng.randint(1, 3))
            ]
            v = tuple(random_polynomial(rng, R, max_terms=2, max_degree=2)
                      for _ in range(rank))
            if rng.random() < 0.5:  # force plenty of positive instances
                coeffs = [random_polynomial(rng, R, max_terms=2, max_degree=1) for _ in gens]
                v = tuple(
                    sum((c * g[i] for c, g in zip(coeffs, gens)), R.zero)
                    for i in range(rank)
                )
            reference = Ideal([encode(g) for g in gens if any(g)] + square)
            expected = ideal_membership(encode(v), reference)
            assert in_submodule(v, gens) == expected
            hits += expected
        assert 0 < hits < 25  # both outcomes exercised

    @pytest.mark.parametrize("rank, seed", [(2, 33), (3, 34)])
    def test_module_reduce_is_a_normal_form(self, rank, seed):
        # v - module_reduce(v, gens) lies in the module, and the normal form
        # modulo the module's basis is zero exactly for its members.
        rng = random.Random(seed)
        hits = 0
        for _ in range(20):
            gens = [
                tuple(random_polynomial(rng, R, max_terms=2, max_degree=2, nonzero=True)
                      for _ in range(rank))
                for _ in range(rng.randint(1, 3))
            ]
            v = tuple(random_polynomial(rng, R, max_terms=3, max_degree=3, nonzero=True)
                      for _ in range(rank))
            if rng.random() < 0.5:  # force plenty of positive instances
                coeffs = [random_polynomial(rng, R, max_terms=2, max_degree=1, nonzero=True)
                          for _ in gens]
                v = tuple(sum((c * g[i] for c, g in zip(coeffs, gens)), R.zero)
                          for i in range(rank))
            r = module_reduce(v, gens)
            assert type(r) is tuple and len(r) == rank
            assert in_submodule(tuple(a - b for a, b in zip(v, r)), gens)
            member = in_submodule(v, gens)
            assert (not any(module_reduce(v, module_buchberger(gens)))) == member
            hits += member
        assert 0 < hits < 20  # both outcomes exercised

    def test_no_pair_of_leads_in_different_positions(self, monkeypatch):
        # Under top, a pair of leads in different positions has S-vector 0,
        # so buchberger must never build it.  Generators are the rank-3 data
        # of test_agrees_with_idealization (same seed, same draws).
        import conormal.groebner as groebner

        built = []
        s_terms = groebner._s_terms

        def recording(record_f, record_g, ring, positions):
            built.append(tuple(ring.unpack(record[0])[:3] for record in (record_f, record_g)))
            return s_terms(record_f, record_g, ring, positions)

        def lead_position(v):  # grevlex-largest term, the lower position on ties
            key = GREVLEX.key(R)
            return -max((key(c.divisor(GREVLEX)[0]), -i)
                        for i, c in enumerate(v) if c)[1]

        monkeypatch.setattr(groebner, "_s_terms", recording)
        rng = random.Random(32)
        mixed = 0
        for _ in range(25):
            gens = [
                tuple(random_polynomial(rng, R, max_terms=2, max_degree=2)
                      for _ in range(3))
                for _ in range(rng.randint(1, 3))
            ]
            # Draws of v and of the forced combination, kept so that the
            # generators stay those of the idealization test.
            [random_polynomial(rng, R, max_terms=2, max_degree=2) for _ in range(3)]
            if rng.random() < 0.5:
                [random_polynomial(rng, R, max_terms=2, max_degree=1) for _ in gens]
            mixed += len({lead_position(b) for b in module_buchberger(gens)}) > 1
        assert built and all(a == b for a, b in built)
        assert mixed  # some bases do have leads in different positions

    def test_membership_uses_the_encoded_basis(self, monkeypatch):
        # Submodule.contains encodes once and never decodes a basis.
        def no_decode(*args):
            raise AssertionError("Submodule.contains decoded a basis")

        monkeypatch.setattr(Submodule, "decode", no_decode)
        gens = [(X, Y), (Y**2, Z)]
        assert in_submodule((X * Z + Y**3, 2 * Y * Z), gens)
        assert not in_submodule((Y, X), gens)
        zero = (R.zero, R.zero)
        assert in_submodule(zero, [zero])

    def test_s_vector_of_leads_in_different_positions_is_zero(self):
        ring = PolynomialRing(["e1", "e2"] + list(R.variables))
        e1, e2, x, y, _ = ring.gens()
        top = MonomialOrder("top", 2)
        f, g = e1 * x * y + e2 * x, e2 * x**2 + e1
        assert ring.unpack(f.divisor(top)[0])[:2] == (1, 0)
        assert ring.unpack(g.divisor(top)[0])[:2] == (0, 1)
        assert not s_polynomial(f, g, top)
        assert s_polynomial(f, e1 * x**2 + e2, top) == e2 * x**2 - e2 * y


class TestSmallMethods:
    """The display method of ideals, with its exact value."""

    @pytest.mark.parametrize("make, want", [
        (lambda: repr(Ideal([X * Y, Z**2 - 1])), "Ideal(x*y, z^2 - 1)"),
        (lambda: repr(Ideal([R.zero])), "Ideal(0)"),
    ], ids=["ideal-repr", "zero-ideal-repr"])
    def test_value(self, make, want):
        assert_outcome(make, want)


class TestInputChecks:
    """Each input check of the Groebner entry points refuses with its own
    message, and an empty generator list has the empty module basis."""

    @pytest.mark.parametrize("make, message", [
        (lambda: buchberger([], GREVLEX), "buchberger needs at least one generator"),
        (lambda: Ideal([]), "an ideal needs at least one generator"),
        (lambda: eliminate(Ideal([X * Y]), [3]), "variable index 3 out of range"),
        (lambda: eliminate(Ideal([X * Y]), [-1]), "variable index -1 out of range"),
        # 1 - t*g has the total degree MAX_DEGREE + 1.
        (lambda: radical_membership(X**MAX_DEGREE, Ideal([Y])),
         f"total degree {MAX_DEGREE + 1} is past the limit {MAX_DEGREE}"),
    ], ids=["buchberger", "ideal", "eliminate-high", "eliminate-low", "rabinowitsch-degree"])
    def test_refuses_with_its_message(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_no_generators_have_the_empty_module_basis(self):
        assert module_buchberger([]) == []
