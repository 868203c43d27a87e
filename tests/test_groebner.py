"""Groebner engine: division, bases, membership, elimination, radical, dimension."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conormal.cli import corpus_names, load_germ_file
from conormal.forms import exterior_derivative, parse_form, wedge
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
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    monomial_div,
    monomial_divides,
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


def reference_reduce(f, basis, order):
    # The textbook division loop with no prefilter: take the leading term
    # of what is left, cancel it with the first basis element whose lead
    # divides it, else move it to the remainder.
    divisors = [(g, g.leading(order)) for g in basis if g]
    rest, remainder = f, f.ring.zero
    while rest:
        m, c = rest.leading(order)
        term = Polynomial(f.ring, {m: c})
        for g, (lm, lc) in divisors:
            if monomial_divides(lm, m):
                rest = rest - Polynomial(f.ring, {monomial_div(m, lm): Fraction(c) / lc}) * g
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
        # Each monomial that enters the pending terms is keyed once, not once
        # per division step while it waits.
        basis = buchberger([F_UMBRELLA, X**3 - Y * Z], GREVLEX)
        for g in basis:
            g.leading(GREVLEX)
        f = X**3 * Y**2 + X * Z**3 + Y * Z**4
        keyed = []
        key = MonomialOrder.key

        def counting(order, exps):
            keyed.append(exps)
            return key(order, exps)

        monkeypatch.setattr(MonomialOrder, "key", counting)
        reduce(f, basis, GREVLEX)
        assert set(f.terms) < set(keyed)  # division steps brought new terms
        assert len(keyed) == len(set(keyed))

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
        lm = g.leading(GREVLEX)[0]
        assert all(not monomial_divides(lm, m) for m in r.terms)


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


class TestSupportMaskFilter:
    """The support masks only filter: the work they save is measured by
    counting calls, and the results they must not move are pinned."""

    def test_warm_module_reduction_compares_only_same_position(self, monkeypatch):
        # Under top, a lead in another position cannot divide a term; the
        # position bits of the masks must reject it before any exponent
        # comparison.
        import conormal.groebner as groebner

        germ = load_germ_file("segre.germ").germ
        ring = germ.ring
        [one_form] = parse_form("x*dy + dt", ring)
        forms = [
            parse_form(text, ring)[0]
            for text in ("x*dy*dz", "y*dx*dt + z*dz*dt", "(x*z - y*t)*dx*dy", "t^2*dx*dz")
        ]
        forms.append(wedge(exterior_derivative(germ.generators[0]), one_form))
        verdicts = [is_trivial_form(omega, germ) for omega in forms]  # warms the basis
        rank = comb(ring.nvars, 2)
        compared = []
        divides = groebner.monomial_divides

        def recording(a, b):
            compared.append((a, b))
            return divides(a, b)

        monkeypatch.setattr(groebner, "monomial_divides", recording)
        assert [is_trivial_form(omega, germ) for omega in forms] == verdicts
        assert True in verdicts and False in verdicts
        assert compared
        assert all(a[:rank] == b[:rank] for a, b in compared)

    # S-polynomials that buchberger builds, per corpus germ: for the
    # Jacobian ideal under grevlex and for the degree-2 trivial forms under
    # top.  Both pair criteria decide on masks, so the pairs they skip and
    # hence these counts must stay those of the exponent tests.
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
            built.append((f.leading(order)[0][:3], g.leading(order)[0][:3]))
            return s_polynomial(f, g, order)

        def lead_position(v):  # grevlex-largest term, the lower position on ties
            return -max((GREVLEX.key(c.leading(GREVLEX)[0]), -i)
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
        assert f.leading(top)[0][:2] == (1, 0) and g.leading(top)[0][:2] == (0, 1)
        assert not s_polynomial(f, g, top)
        assert s_polynomial(f, e1 * x**2 + e2, top) == e2 * x**2 - e2 * y

