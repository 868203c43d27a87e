"""Groebner engine: division, bases, membership, elimination, radical, dimension."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conormal.cli import corpus_names, load_germ_file
from conormal.forms import parse_form
from conormal.germs import _trivial_module, is_trivial_form
from conormal.groebner import (
    Ideal,
    ModuleElement,
    _fresh_name,
    buchberger,
    eliminate,
    ideal_membership,
    implicitization,
    krull_dimension,
    module_buchberger,
    module_membership,
    module_reduce,
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

from strategies import nonzero_polynomials, polynomials, random_polynomial

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


def reference_reduce(f, basis, order):
    # The textbook division loop on exponent tuples: take the leading term
    # of what is left, cancel it with the first basis element whose lead
    # divides it, else move it to the remainder.
    unpack = f.ring.unpack
    divisors = [(g, unpack(g.leading(order)[0]), g.leading(order)[1]) for g in basis if g]
    rest, remainder = f, f.ring.zero
    while rest:
        m, c = rest.leading(order)
        m = unpack(m)
        term = Polynomial(f.ring, {m: c})
        for g, lm, lc in divisors:
            if divides(lm, m):
                quotient = tuple(x - y for x, y in zip(m, lm))
                rest = rest - Polynomial(f.ring, {quotient: Fraction(c) / lc}) * g
                break
        else:
            remainder, rest = remainder + term, rest - term
    return remainder


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
                g.leading(order)
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
        # Every basis a warm decision reduces against is monic.
        import conormal.groebner as groebner

        f = Polynomial(R, {(3, 2, 0): Fraction(1, 2), (1, 0, 3): 3, (0, 1, 4): 1})
        monic = buchberger([F_UMBRELLA, X**3 - Y * Z], GREVLEX)
        scaled = [g.scale(2) for g in monic]
        divided = []
        div = groebner._div

        def counting(a, b):
            divided.append(b)
            return div(a, b)

        monkeypatch.setattr(groebner, "_div", counting)
        r = reduce(f, monic, GREVLEX)
        assert divided == []
        assert reduce(f, scaled, GREVLEX) == r
        assert divided and set(divided) == {2}

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
        lm = R.unpack(g.leading(GREVLEX)[0])
        assert all(not divides(lm, m) for m in r.terms)


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
    @settings(max_examples=15)
    def test_known_prefix_gives_the_same_basis(self, gens, extra, order):
        # A reduced basis passed as the known prefix is not paired with
        # itself; the result must still be the basis of all generators.
        basis = buchberger(gens, order)
        assert buchberger(basis + extra, order, known=len(basis)) == buchberger(
            gens + extra, order
        )

    def test_known_must_index_the_generators(self):
        # A prefix longer than the generators would queue no pair at all and
        # return the inputs without y^2 - x.  (known=2 would claim that the
        # inputs are a Groebner basis, which they are not.)
        R2 = PolynomialRing(["x", "y"])
        x, y = R2.gens()
        gens = [x * y - 1, x**2 - y]
        for known in (5, 3, -1):
            with pytest.raises(ValueError, match="known"):
                buchberger(gens, GREVLEX, known=known)
        for known in (0, 1):
            assert y**2 - x in buchberger(gens, GREVLEX, known=known)


def reference_s_polynomial(f, g, order):
    """(lcm/lm_f)*f/lc_f - (lcm/lm_g)*g/lc_g, by its definition on
    exponent tuples and with Polynomial arithmetic."""
    (fm, fc), (gm, gc) = f.leading(order), g.leading(order)
    a, b = f.ring.unpack(fm), f.ring.unpack(gm)
    lcm = tuple(map(max, a, b))

    def cofactor(lead, c):
        return Polynomial(f.ring, {tuple(u - v for u, v in zip(lcm, lead)): Fraction(1) / c})

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
        positions = [R_TOP.unpack(h.leading(TOP)[0])[:2] for h in (f, g)]
        expected = reference_s_polynomial(f, g, TOP) if positions[0] == positions[1] else 0
        assert s_polynomial(f, g, TOP) == expected

    def test_degree_limit_covers_the_tail(self):
        # Under lex, x leads x + y^MAX_DEGREE: the lcm x*y of the leads is
        # far below the limit, but the tail word y^MAX_DEGREE moves past it.
        R2 = PolynomialRing(["x", "y"])
        x, y = R2.gens()
        f = x + y**MAX_DEGREE
        assert f.leading(LEX)[0] == R2.units[0]
        with pytest.raises(ValueError, match="past the limit"):
            s_polynomial(f, y, LEX)


class TestPairCriteria:
    """The pair criteria decide on packed words; the pairs they skip are
    pinned by the S-polynomials each basis takes."""

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
        s_poly = groebner.s_polynomial

        def counting(f, g, order):
            built.append(order)
            return s_poly(f, g, order)

        monkeypatch.setattr(groebner, "s_polynomial", counting)
        assert sorted(corpus_names()) == sorted(self.S_PAIRS)
        for name, (jacobian, trivial) in self.S_PAIRS.items():
            germ = load_germ_file(name).germ
            built.clear()
            buchberger(list(germ.jacobian.generators), GREVLEX)
            assert len(built) == jacobian, name
            built.clear()
            _trivial_module(germ, 2)[1].groebner_basis()
            assert len(built) == trivial, name


class TestTrivialModuleWork:
    """Work gate: each corpus trivial-form module basis is pinned together
    with the S-polynomials and reductions that building it takes.  A change
    to the kernels may change how long these take, not these numbers."""

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

        calls = {"s_polynomial": 0, "reduce": 0}
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
        built = _trivial_module(load_germ_file(name).germ, k)[1].groebner_basis()
        assert [str(b) for b in built] == basis
        assert (calls["s_polynomial"], calls["reduce"]) == (s_polys, reductions)
        assert keyed and strays == []


class TestPairLoopRecords:
    """Work gate: the pair loop keeps the divisor records of its basis next
    to it.  Every reduction of a basis build receives them, the very records
    each element caches, and each polynomial's record is built once."""

    CASES = [("umbrella.germ", "jacobian")] + list(TestTrivialModuleWork.WORK)

    @pytest.mark.parametrize("name, k", CASES)
    def test_reductions_receive_cached_records(self, monkeypatch, name, k):
        import conormal.groebner as groebner

        germ = load_germ_file(name).germ
        if k == "jacobian":
            target, order = Ideal(germ.jacobian.generators), GREVLEX
        else:
            target = _trivial_module(germ, k)[1]
            order = target.order
        reductions, callers = [], Counter()
        reduce = groebner.reduce

        def recording(f, basis, order, divisors=None):
            callers[sys._getframe(1).f_code.co_name] += 1
            reductions.append((list(basis), None if divisors is None else list(divisors)))
            return reduce(f, basis, order, divisors)

        builds, kept = Counter(), []
        divisor = Polynomial.divisor

        def counting(self, order):
            if order not in (self._lead or {}):
                builds[id(self)] += 1
                kept.append(self)  # keeps each id unique while counting
            return divisor(self, order)

        monkeypatch.setattr(groebner, "reduce", recording)
        monkeypatch.setattr(Polynomial, "divisor", counting)
        target.groebner_basis()
        assert set(callers) == {"_complete", "_autoreduce"}
        for basis, divisors in reductions:
            assert divisors is not None and len(divisors) == len(basis)
            assert all(d is b._lead[order] for b, d in zip(basis, divisors))
        assert builds and set(builds.values()) == {1}


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
        module.groebner_basis()
        calls = self._count_divisor_calls(monkeypatch)
        [omega] = parse_form("y*z*dx + 2*x*z*dy - 2*x*y*dz", germ.ring)
        assert not is_trivial_form(omega, germ)
        assert calls == []

    def test_warm_remainder_equals_cold_remainder(self):
        ideal = Ideal([F_UMBRELLA, X * Z - Y**3])
        basis = ideal.groebner_basis()
        rng = random.Random(5)
        for _ in range(20):
            f = random_polynomial(rng, R, max_terms=4, max_degree=4)
            assert reduce(f, basis, GREVLEX, ideal._divisors) == reduce(f, basis, GREVLEX)

    def test_ring_still_checked(self):
        ideal = Ideal([F_UMBRELLA])
        basis = ideal.groebner_basis()
        other = PolynomialRing(["x", "y", "w"]).var(0)
        with pytest.raises(ValueError, match="ring mismatch"):
            reduce(other, basis, GREVLEX, ideal._divisors)


class TestIdealMembership:
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
    return any(b.is_constant() and b for b in basis)


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
        cached = {frozenset((m + (0,), c) for m, c in b.terms.items())
                  for b in ideal.groebner_basis()}
        assert len(cached) > 2
        built = []

        def recording(f, g, order):
            built.append((f, g))
            return s_polynomial(f, g, order)

        monkeypatch.setattr(groebner, "s_polynomial", recording)
        assert not radical_membership(X + Y, ideal)
        assert built

        def from_cache(p):
            return frozenset(p.terms.items()) in cached

        assert not any(from_cache(f) and from_cache(g) for f, g in built)


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
        if f.is_constant():
            return
        assert krull_dimension(Ideal([f])) == 2


class TestModuleMembership:
    def test_component_multiple(self):
        f = F_UMBRELLA
        e1 = ModuleElement([f, R.zero])
        e2 = ModuleElement([R.zero, f])
        assert module_membership(e1, [e1, e2])

    def test_unit_component_cannot_appear(self):
        f = F_UMBRELLA
        assert not module_membership(ModuleElement([R.one]), [ModuleElement([f])])

    def test_position_variables_avoid_differential_names(self):
        ring = PolynomialRing(["x", "d_e1"])
        x, _ = ring.gens()
        assert _fresh_name(ring, "_e1") == "_e1_"
        assert module_membership(ModuleElement([x**2]), [ModuleElement([x])])
        assert not module_membership(ModuleElement([x]), [ModuleElement([x**2])])

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            module_membership(ModuleElement([X]), [ModuleElement([X, Y])])
        with pytest.raises(ValueError):
            module_buchberger([ModuleElement([X]), ModuleElement([X, Y])])
        with pytest.raises(ValueError):
            module_reduce(ModuleElement([X]), [ModuleElement([X, Y])])

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
            got = module_membership(ModuleElement([f]), [ModuleElement([g]) for g in gens])
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
                 for e, p in zip(es, v.components)),
                ring.zero,
            )

        rng = random.Random(seed)
        hits = 0
        for _ in range(25):
            gens = [
                ModuleElement([random_polynomial(rng, R, max_terms=2, max_degree=2)
                               for _ in range(rank)])
                for _ in range(rng.randint(1, 3))
            ]
            v = ModuleElement([random_polynomial(rng, R, max_terms=2, max_degree=2)
                               for _ in range(rank)])
            if rng.random() < 0.5:  # force plenty of positive instances
                coeffs = [random_polynomial(rng, R, max_terms=2, max_degree=1) for _ in gens]
                v = ModuleElement([
                    sum((c * g.components[i] for c, g in zip(coeffs, gens)), R.zero)
                    for i in range(rank)
                ])
            reference = Ideal([encode(g) for g in gens if g] + square)
            expected = ideal_membership(encode(v), reference)
            assert module_membership(v, gens) == expected
            hits += expected
        assert 0 < hits < 25  # both outcomes exercised

    def test_no_pair_of_leads_in_different_positions(self, monkeypatch):
        # Under top, a pair of leads in different positions has S-vector 0,
        # so buchberger must never build it.  Generators are the rank-3 data
        # of test_agrees_with_idealization (same seed, same draws).
        import conormal.groebner as groebner

        built = []

        def recording(f, g, order):
            positions = [f.ring.unpack(h.leading(order)[0])[:3] for h in (f, g)]
            built.append(tuple(positions))
            return s_polynomial(f, g, order)

        def lead_position(v):  # grevlex-largest term, the lower position on ties
            key = GREVLEX.key(R)
            return -max((key(c.leading(GREVLEX)[0]), -i)
                        for i, c in enumerate(v.components) if c)[1]

        monkeypatch.setattr(groebner, "s_polynomial", recording)
        rng = random.Random(32)
        mixed = 0
        for _ in range(25):
            gens = [
                ModuleElement([random_polynomial(rng, R, max_terms=2, max_degree=2)
                               for _ in range(3)])
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
        # module_membership encodes once and never decodes a basis.
        import conormal.groebner as groebner

        def no_decode(*args):
            raise AssertionError("module_membership decoded a basis")

        monkeypatch.setattr(groebner, "_decode", no_decode)
        gens = [ModuleElement([X, Y]), ModuleElement([Y**2, Z])]
        assert module_membership(ModuleElement([X * Z + Y**3, 2 * Y * Z]), gens)
        assert not module_membership(ModuleElement([Y, X]), gens)
        zero = ModuleElement([R.zero, R.zero])
        assert module_membership(zero, [zero])

    def test_s_vector_of_leads_in_different_positions_is_zero(self):
        ring = PolynomialRing(["e1", "e2"] + list(R.variables))
        e1, e2, x, y, _ = ring.gens()
        top = MonomialOrder("top", 2)
        f, g = e1 * x * y + e2 * x, e2 * x**2 + e1
        assert ring.unpack(f.leading(top)[0])[:2] == (1, 0)
        assert ring.unpack(g.leading(top)[0])[:2] == (0, 1)
        assert not s_polynomial(f, g, top)
        assert s_polynomial(f, e1 * x**2 + e2, top) == e2 * x**2 - e2 * y

