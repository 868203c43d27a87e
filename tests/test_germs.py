"""Decision procedures: conormality, tangency, triviality, singular locus,
and the parametrization oracle, plus their structural invariants."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conormal.cli import corpus_names, load_germ_file
from conormal.forms import (
    DifferentialForm,
    VectorField,
    exterior_derivative,
    form_to_vector_field,
    parse_form,
    pullback,
    radial_potential,
    wedge,
)
from conormal.geometry import jacobian_ideal, regular_in_codimension
from conormal.germs import (
    Decision,
    Germ,
    Parametrization,
    Refusal,
    VerdictStatus,
    decide,
    is_conormal,
    is_tangential,
    is_trivial_form,
    oracle_conormal_on_parametrization,
    trivial_form_generators,
    vanishes_on_singular_locus,
)
from conormal.groebner import (
    Ideal,
    ideal_membership,
    krull_dimension,
    radical_membership,
)
from conormal.poly import PolynomialRing, parse_polynomial, partial_derivative

from strategies import (
    assert_outcome,
    forms,
    nonzero_polynomials,
    polynomials,
    random_form,
    random_polynomial,
)

R = PolynomialRing(["x", "y", "z"])
X, Y, Z = R.gens()
UV = PolynomialRing(["u", "v"])
U, V = UV.gens()
ABC = PolynomialRing(["a", "b", "c"])


def forms_up_to_two(ring=R):
    """A nonzero polynomial, 1-form or 2-form over ``ring``."""
    return st.integers(0, 2).flatmap(
        lambda k: forms(ring, k).filter(bool) if k else nonzero_polynomials(ring, 3, 2)
    )


def pullback_maps():
    """The components of the umbrella parametrization (u, v) -> (u^2, v, u*v),
    or of a random polynomial map from (a, b, c)."""
    return st.just([U**2, V, U * V]) | st.lists(
        nonzero_polynomials(ABC, max_terms=3, max_degree=2), min_size=3, max_size=3
    )


def form(text, ring=R):
    [part] = parse_form(text, ring)
    return part


class TestGermConstruction:
    def test_generators_must_vanish_at_origin(self):
        with pytest.raises(ValueError):
            Germ(R, [X + 1])

    def test_every_ring_check_names_the_mismatch(self):
        # Six constructors and tests compare rings; each raises the one
        # message of poly.same_ring.
        cusp = Germ(R, [X**3 - Y * Z])
        for make in (
            lambda: Germ(R, [X, U]),
            lambda: Parametrization(cusp, UV, [U, V, X]),
            lambda: VectorField(R, [X, Y, U]),
            lambda: DifferentialForm(R, 1, {(0,): U}),
            lambda: ideal_membership(U, cusp.ideal),
            lambda: cusp.ideal.same_ideal(Ideal([U])),
        ):
            with pytest.raises(ValueError, match="^ring mismatch: "):
                make()

    def test_hypersurface_needs_single_generator(self):
        assert Germ(R, [X * Y]).hypersurface
        assert not Germ(R, [X, Y]).hypersurface

    def test_complete_intersection_is_derived(self):
        # (x, xy) cuts out a set of dimension 2, not 3 - 2 = 1
        assert not Germ(R, [X, X * Y]).complete_intersection
        assert Germ(R, [X, Y]).complete_intersection  # the z-axis
        assert Germ(R, [X * Y]).complete_intersection  # every hypersurface

    @given(
        st.lists(
            nonzero_polynomials(R, max_terms=3, max_degree=2)
            .map(lambda p: p - p.terms.get((0, 0, 0), 0))
            .filter(bool),
            min_size=1,
            max_size=3,
        )
    )
    def test_structure_matches_dimension(self, gens):
        germ = Germ(R, gens)
        m = len(gens)
        assert germ.hypersurface == (m == 1)
        assert germ.complete_intersection == (krull_dimension(Ideal(gens)) == R.nvars - m)


class TestIsConormal:
    def test_isolated_singularity_2form(self, cusp):
        assert is_conormal(form("x*dy*dz + 3*z*dx*dy"), cusp).is_certified_yes

    def test_umbrella_1form(self, umbrella):
        assert is_conormal(form("y*z*dx + 2*x*z*dy - 2*x*y*dz"), umbrella).is_certified_yes

    def test_refuted_with_radical_witness(self, umbrella):
        verdict = is_conormal(form("dx"), umbrella)
        assert verdict.is_certified_no
        assert "radical" in verdict.witness

    def test_requires_complete_intersection(self):
        germ = Germ(R, [X, X * Y])  # dimension 2, not 3 - 2
        with pytest.raises(ValueError, match="not a complete intersection"):
            is_conormal(form("dx"), germ)

    def test_degree_zero_agrees_with_ideal_membership(self, umbrella):
        rng = random.Random(99)
        for _ in range(25):
            p = random_polynomial(rng, R, max_terms=3, max_degree=4)
            verdict = is_conormal(p, umbrella)
            assert verdict.is_certified_yes == ideal_membership(p, umbrella.ideal)

    def test_bases_per_refutation(self, pair_loops):
        # Deterministic work gate on pair-loop runs.  On the radical
        # umbrella the first "no" computes the generator ideal's basis for
        # the membership test and the Jacobian basis that shows the germ
        # radical, later ones compute nothing; on the non-radical V(x^2)
        # each "no" runs the pair loop once, for its Rabinowitsch step.
        umbrella = Germ(R, [Z**2 - X * Y**2])
        plane = PolynomialRing(["x", "y"])
        x, y = plane.gens()
        double_line = Germ(plane, [x**2])
        assert is_conormal(form("dx"), umbrella).is_certified_no
        assert len(pair_loops) == 2
        pair_loops.clear()
        assert is_conormal(form("dy"), umbrella).is_certified_no
        assert is_conormal(form("dx"), umbrella).is_certified_no
        assert not pair_loops
        assert is_conormal(y, double_line).is_certified_no  # warms radical
        pair_loops.clear()
        assert is_conormal(y, double_line).is_certified_no
        assert len(pair_loops) == 1

    def test_one_membership_reduction_per_tested_polynomial(self, monkeypatch):
        # On the non-radical V(x^2) a failed membership goes on to the
        # radical test, which must not reduce the same polynomial again.  A
        # claim that test leaves open goes on to the reduced germ V(x), whose
        # polynomials are reduced once each as well.
        import conormal.germs as germs
        import conormal.groebner as groebner

        plane = PolynomialRing(["x", "y"])
        x = plane.var(0)
        double_line = Germ(plane, [x**2])
        assert not double_line.radical
        calls = []
        real = groebner.ideal_membership
        for module in (germs, groebner):
            monkeypatch.setattr(
                module, "ideal_membership", lambda f, ideal: calls.append(f) or real(f, ideal)
            )
        # (form, status, what was reduced against the given generator first)
        cases = [("dy", "CertifiedNo", [-2 * x]), ("y", "CertifiedNo", []),
                 ("x*dy", "CertifiedYes", [])]
        for text, status, given in cases:
            calls.clear()
            verdict = is_conormal(form(text, plane), double_line)
            assert verdict.status.value == status
            assert calls == given + [p for _, p in verdict.tested]

    def test_radical_membership_decides_degree_zero_on_non_radical_generators(self):
        # V(x^2) has the y,z-plane as reduced zero set; x vanishes there but
        # is not in (x^2): radical membership certifies it.
        germ = Germ(R, [X**2])
        verdict = is_conormal(X, germ)
        assert verdict.status.value == "CertifiedYes"


class TestIsTangential:
    def test_scaling_field_of_umbrella(self, umbrella):
        v = VectorField(R, [R.zero, -Y, -Z])
        assert is_tangential(v, umbrella).is_certified_yes

    def test_transverse_field_refuted(self):
        line = PolynomialRing(["x"])
        germ = Germ(line, [line.var(0)])
        field = VectorField(line, [line.one])
        assert is_tangential(field, germ).is_certified_no

    def test_image_of_conormal_top_minus_one_form(self, umbrella):
        w = form("y*dx*dz - z*dx*dy")
        assert is_conormal(w, umbrella).is_certified_yes
        assert is_tangential(form_to_vector_field(w), umbrella).is_certified_yes


class TestVerdict:
    def test_witness_is_rendered_only_when_read(self, monkeypatch):
        # Deciding renders no polynomial; reading the witness renders the
        # same text as ever, for 2 statuses x polynomial, form and field,
        # decided by the given generator or on the reduced germ.
        import conormal.forms
        import conormal.poly

        umbrella = Germ(R, [Z**2 - X * Y**2])
        plane = PolynomialRing(["x", "y"])
        x, y = plane.gens()
        double_line = Germ(plane, [x**2])
        omega1, dx = form("y*z*dx + 2*x*z*dy - 2*x*y*dz"), form("dx")
        plane_dx, plane_dy = form("dx", plane), form("dy", plane)
        rendered = []
        original = conormal.poly._term_chunks

        def counting(p):
            rendered.append(p)
            return original(p)

        # Every polynomial and form is printed from its term chunks.
        monkeypatch.setattr(conormal.poly, "_term_chunks", counting)
        monkeypatch.setattr(conormal.forms, "_term_chunks", counting)
        yes, no = "CertifiedYes: ", "CertifiedNo: "
        cases = [
            (is_conormal(x**2 * y, double_line), yes + "normal form 0 modulo the generator ideal"),
            (is_conormal(y, double_line),
             no + "does not vanish on the zero set (radical test fails)"),
            (is_conormal(x, double_line),
             yes + "vanishes on the zero set (in the radical of the generator ideal)"),
            (is_conormal(omega1, umbrella),
             yes + "wedge with generator differentials = (-2*x*y^3 + 2*y*z^2)*dx*dz"
             " + (-4*x^2*y^2 + 4*x*z^2)*dy*dz; every coefficient is in the generator ideal"),
            (is_conormal(plane_dx, double_line),
             yes + "wedge with generator differentials = 0; every coefficient is in the generator"
             " ideal"),
            (is_conormal(dx, umbrella),
             no + "coefficient -2*x*y on dx*dy is not in the radical of the ideal"),
            (is_conormal(plane_dy, double_line),
             no + "on the reduced germ V(x): coefficient -1 on dx*dy is not in the radical of"
             " the ideal"),
            (is_tangential(VectorField(R, [R.zero, -Y, -Z]), umbrella),
             yes + "V(-x*y^2 + z^2) = 2*x*y^2 - 2*z^2; all in the generator ideal"),
            (is_tangential(VectorField(R, [R.one, R.zero, R.zero]), umbrella),
             no + "V(-x*y^2 + z^2) = -y^2 is not in the radical of the ideal"),
            (is_tangential(VectorField(plane, [plane.one, plane.zero]), double_line),
             no + "on the reduced germ V(x): V(x) = 1 is not in the radical of the ideal"),
        ]
        assert rendered == []
        for verdict, text in cases:
            assert str(verdict) == text
            assert verdict.witness == text.partition(": ")[2]
        assert rendered

    def test_records_what_was_tested(self, umbrella):
        plane = PolynomialRing(["x", "y"])
        x, y = plane.gens()
        double_line = Germ(plane, [x**2])
        v = is_conormal(x, double_line)
        assert (v.tested, v.offender, v.wedge) == ((((), x),), ((), x), None)
        assert v.is_certified_yes and v.reduced is None
        v = is_conormal(form("dy", plane), double_line)  # decided on V(x)
        assert (v.tested, v.offender, v.reduced) == ((((0, 1), -plane.one),),
                                                     ((0, 1), -plane.one), x)
        v = is_conormal(form("dx"), umbrella)
        assert v.wedge == wedge(form("dx"), umbrella.jacobian_form)
        assert v.tested == tuple(v.wedge.coefficients())
        assert v.offender == ((0, 1), -2 * X * Y)
        v = is_conormal(form("dx", plane), double_line)
        assert v.is_certified_yes and v.tested == () and not v.wedge
        [g] = umbrella.generators
        v = is_tangential(VectorField(R, [R.one, R.zero, R.zero]), umbrella)
        assert v.tested == ((g, -(Y**2)),) and v.offender == (g, -(Y**2)) and v.wedge is None


_CORPUS = {}


def corpus_germ(name):
    if name not in _CORPUS:
        _CORPUS[name] = load_germ_file(name).germ
    return _CORPUS[name]


class TestRadical:
    def test_corpus_germs_are_radical(self):
        assert corpus_names()
        for name in corpus_names():
            assert corpus_germ(name).radical, name

    def test_non_radical_and_non_ci_germs(self):
        plane = PolynomialRing(["x", "y"])
        x, y = plane.gens()
        assert Germ(plane, [x**2]).complete_intersection
        assert not Germ(plane, [x**2]).radical
        assert not Germ(R, [X * Y**2]).radical  # reduced zero set, non-reduced ideal
        assert not Germ(R, [X, X * Y]).radical  # not a complete intersection

    def test_smooth_germs_are_radical(self):
        assert Germ(R, [X, Y]).radical
        assert Germ(R, [X * Y]).radical

    def test_derived_on_first_use_not_at_construction(self, basis_log):
        germ = Germ(R, [Z**2 - X * Y**2])
        assert not basis_log  # a hypersurface has dimension n - 1 without a basis
        assert germ.radical
        assert len(basis_log) == 1  # the Jacobian ideal's basis
        assert germ.radical
        assert len(basis_log) == 1
        curve = Germ(R, [X, Z**2 - Y**3])
        assert len(basis_log) == 2  # the generator ideal's basis, for the dimension
        assert curve.complete_intersection
        assert len(basis_log) == 2

    @given(st.sampled_from(corpus_names()), st.data())
    def test_verdicts_do_not_depend_on_derived_radicality(self, name, data):
        # The derived shortcut must give the very verdicts (status and
        # witness) that the Rabinowitsch test gives with it switched off.
        germ = corpus_germ(name)
        ring = germ.ring
        f = germ.generators[0]
        scale = data.draw(st.sampled_from([ring.one, f]))  # f * anything is a "yes"
        k = data.draw(st.integers(0, ring.nvars - 1))
        if k == 0:
            omega = data.draw(polynomials(ring, max_terms=3, max_degree=2)) * scale
        else:
            omega = data.draw(forms(ring, k)).scale(scale)
        field = VectorField(
            ring, [data.draw(polynomials(ring, max_terms=2, max_degree=2)) * scale
                   for _ in range(ring.nvars)]
        )
        derived = (is_conormal(omega, germ), is_tangential(field, germ))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Germ, "radical", property(lambda self: False))
            assert (is_conormal(omega, germ), is_tangential(field, germ)) == derived
        assert all(v.reduced is None for v in derived)


# Hypersurfaces with repeated factors; the reduced generator of each is the
# product of its distinct factors.
NON_REDUCED = [
    "x^2",
    "x^2*y",
    "(z^2 - x*y^2)^2",
    "x^2*(x^2 + y^3 - z^5)",
    "(x*y - z^2)^3*(x + y)",
]


class TestReducedGerm:
    @pytest.mark.parametrize("seed, text", enumerate(NON_REDUCED))
    def test_statuses_are_those_of_the_reduced_generator(self, seed, text):
        # Every status on V(f) is the status on V(g), g the reduced
        # generator: seeded forms of degree 0-2 and fields, plus forms and a
        # field that are conormal or tangent to V(g).
        germ = Germ(R, [parse_polynomial(text, R)])
        assert not germ.radical
        [g] = germ.reduced.generators
        plain = Germ(R, [g])
        rng = random.Random(seed)
        dg = exterior_derivative(g)
        omegas = [random_form(rng, R, k) for k in (0, 1, 2) for _ in range(5)]
        omegas += [g * random_polynomial(rng, R, 2, 2), dg, wedge(random_form(rng, R, 1), dg)]
        fields = [VectorField(R, [random_polynomial(rng, R, 2, 2) for _ in range(3)])
                  for _ in range(5)]
        fields.append(VectorField(R, [partial_derivative(g, 1), -partial_derivative(g, 0), R.zero]))
        statuses = set()
        claims = [(w, is_conormal) for w in omegas] + [(v, is_tangential) for v in fields]
        for claim, test in claims:
            status = test(claim, germ).status
            assert status == test(claim, plain).status, (text, claim)
            statuses.add(status)
        assert statuses == {VerdictStatus.CERTIFIED_YES, VerdictStatus.CERTIFIED_NO}

    def test_reduced_germ_is_radical_and_a_radical_germ_is_its_own(self):
        for text in NON_REDUCED:
            reduced = Germ(R, [parse_polynomial(text, R)]).reduced
            assert reduced.radical and reduced.reduced is reduced, text
        for name in corpus_names():
            assert corpus_germ(name).reduced is corpus_germ(name), name

    def test_refusals_give_their_reason(self):
        # V(x^2, y) is a non-reduced complete intersection; V(x^2, x*y), the
        # plane x = 0 with an embedded line, is no complete intersection.
        # What the radical test decides stays decided.
        double_axis = Germ(R, [X**2, Y])
        with pytest.raises(Refusal, match="the germ is not reduced"):
            is_conormal(form("dz"), double_axis)
        assert is_conormal(X, double_axis).is_certified_yes
        assert is_conormal(form("x*dz"), double_axis).is_certified_yes
        assert is_conormal(form("dy"), double_axis).is_certified_yes  # dy ^ dy = 0
        embedded = Germ(R, [X**2, X * Y])
        with pytest.raises(Refusal, match="the germ may not be reduced"):
            is_tangential(VectorField(R, [R.zero, R.one, R.zero]), embedded)
        assert is_tangential(VectorField(R, [R.one, R.zero, R.zero]), embedded).is_certified_no
        for germ in (double_axis, embedded):
            with pytest.raises(Refusal):
                germ.reduced


class TestDerivedFacts:
    def test_singular_dimension_computed_once_per_germ(self, monkeypatch, umbrella):
        # Radicality and the whole regularity table read one dimension of
        # the Jacobian ideal.
        import conormal.geometry as geometry
        import conormal.germs as germs

        germ = Germ(R, umbrella.generators)
        dimensions_of = []
        for module in (germs, geometry):
            real = module.krull_dimension

            def counting(ideal, real=real):
                dimensions_of.append(ideal)
                return real(ideal)

            monkeypatch.setattr(module, "krull_dimension", counting)
        assert germ.radical
        table = [regular_in_codimension(germ, k) for k in range(germ.dimension + 1)]
        assert table == [True, False, False]  # Sing X is the x-axis
        assert dimensions_of == [germ.jacobian]
        assert germ.singular_dimension == 1

    def test_differentials_computed_once_per_germ(self, monkeypatch, umbrella):
        import conormal.germs as germs

        calls = []
        real = germs.exterior_derivative
        monkeypatch.setattr(
            germs, "exterior_derivative", lambda x: calls.append(x) or real(x)
        )
        germ = Germ(R, umbrella.generators)
        omega1 = form("y*z*dx + 2*x*z*dy - 2*x*y*dz")
        assert is_conormal(omega1, germ).is_certified_yes
        assert len(calls) == 1
        assert is_conormal(omega1, germ).is_certified_yes
        trivial_form_generators(germ, 2)
        assert len(calls) == 1
        assert is_conormal(omega1, Germ(R, umbrella.generators)).is_certified_yes
        assert len(calls) == 2

    def test_jacobian_generators_are_the_maximal_minors(self):
        # Reference: the generators, then the nonzero m x m minors of the
        # Jacobian matrix by cofactor expansion, columns in lexicographic order.
        def det(rows):
            if len(rows) == 1:
                return rows[0][0]
            return sum(
                (
                    (-1) ** j * top * det([row[:j] + row[j + 1 :] for row in rows[1:]])
                    for j, top in enumerate(rows[0])
                ),
                rows[0][0].ring.zero,
            )

        rng = random.Random(7)
        seen = {1: 0, 2: 0}
        while min(seen.values()) < 6:
            m = rng.choice([1, 2])
            gens = []
            while len(gens) < m:
                p = random_polynomial(rng, R, max_terms=3, max_degree=3, nonzero=True)
                p = p - p.terms.get((0, 0, 0), 0)
                if p:
                    gens.append(p)
            germ = Germ(R, gens)
            if not germ.complete_intersection:
                continue
            seen[m] += 1
            rows = [[partial_derivative(f, i) for i in range(R.nvars)] for f in gens]
            minors = [
                det([[row[c] for c in cols] for row in rows])
                for cols in combinations(range(R.nvars), m)
            ]
            assert germ.jacobian.generators == tuple(gens) + tuple(p for p in minors if p)

    def test_warm_conormality_test_wedges_once(self, monkeypatch):
        import conormal.germs as germs

        germ = Germ(R, [X * Y - Z**2, X + Y * Z])
        omega = form("z*dx + y*dz")
        first = is_conormal(omega, germ)
        calls = []
        real = germs.wedge
        monkeypatch.setattr(germs, "wedge", lambda a, b: calls.append(a) or real(a, b))
        assert is_conormal(omega, germ) == first
        assert len(calls) == 1

    def test_jacobian_kept_on_germ(self, umbrella):
        germ = Germ(R, umbrella.generators)
        assert jacobian_ideal(germ) is jacobian_ideal(germ) is germ.jacobian

    def test_jacobian_of_non_complete_intersection_raises_on_every_access(self):
        germ = Germ(R, [X, X * Y])
        for _ in range(2):
            with pytest.raises(ValueError, match="not a complete intersection"):
                germ.jacobian
        with pytest.raises(ValueError, match="not a complete intersection"):
            jacobian_ideal(germ)
        assert not germ.radical


class TestTrivialForms:
    def test_degree_one_generators_of_cusp(self, cusp):
        f = cusp.generators[0]
        gens = trivial_form_generators(cusp, 1)
        expected = {
            DifferentialForm(R, 1, {(0,): f}),
            DifferentialForm(R, 1, {(1,): f}),
            DifferentialForm(R, 1, {(2,): f}),
            exterior_derivative(f),
        }
        assert set(gens) == expected

    def test_top_degree_count_for_hypersurface(self, cusp):
        # k = n: one f*volume plus n forms df ^ dx_T
        gens = trivial_form_generators(cusp, 3)
        assert len(gens) == 1 + 3

    def test_generators_are_conormal(self, cusp, umbrella):
        for germ, k in ((cusp, 1), (umbrella, 1), (umbrella, 2)):
            for g in trivial_form_generators(germ, k):
                assert is_conormal(g, germ).is_certified_yes

    def test_nontrivial_paper_forms(self, cusp, umbrella):
        assert not is_trivial_form(form("x*dy*dz + 3*z*dx*dy"), cusp)
        assert not is_trivial_form(form("y*z*dx + 2*x*z*dy - 2*x*y*dz"), umbrella)

    @pytest.mark.parametrize("name", ["umbrella.germ", "cusp3.germ"])
    def test_degree_zero_is_membership_in_the_germ_ideal(self, name):
        germ = corpus_germ(name)
        ring = germ.ring
        f = germ.generators[0]
        rng = random.Random(5)
        cases = [ring.zero, f, f * ring.var(0) - 3 * f, ring.var(0), f + ring.one]
        cases += [random_polynomial(rng, ring, max_terms=3, max_degree=3) for _ in range(5)]
        answers = [is_trivial_form(p, germ) for p in cases]
        assert answers == [ideal_membership(p, germ.ideal) for p in cases]
        assert True in answers and False in answers

    @pytest.mark.parametrize("name", corpus_names())
    def test_forms_above_the_top_degree_are_trivial(self, name):
        # Past degree n the only form is 0, which every differential ideal
        # holds; no module of trivial forms is built for such a degree.
        germ = corpus_germ(name)
        zero = DifferentialForm(germ.ring, germ.ring.nvars + 1, {})
        assert is_trivial_form(zero, germ)
        decision = decide([zero], germ, question="trivial")
        assert decision.status is VerdictStatus.CERTIFIED_YES

    def test_f_dx_is_trivial(self, umbrella):
        f = umbrella.generators[0]
        assert is_trivial_form(DifferentialForm(R, 1, {(0,): f}), umbrella)

    def test_random_module_members_are_trivial(self, umbrella):
        rng = random.Random(3)
        gens = trivial_form_generators(umbrella, 2)
        for _ in range(5):
            combo = None
            for g in gens:
                term = g.scale(random_polynomial(rng, R, max_terms=2, max_degree=1))
                combo = term if combo is None else combo + term
            assert is_trivial_form(combo, umbrella)

    def test_one_basis_per_germ_and_degree(self, basis_log, umbrella):
        # The germ keeps the module basis of its degree-k trivial forms:
        # repeated tests at one degree compute it once, another degree once
        # more, and a new, equal germ (which may reuse the id of a freed
        # one) computes its own.
        germ = Germ(R, umbrella.generators)
        omega1 = form("y*z*dx + 2*x*z*dy - 2*x*y*dz")
        for _ in range(3):
            assert not is_trivial_form(omega1, germ)
        assert is_trivial_form(DifferentialForm(R, 1, {(0,): umbrella.generators[0]}), germ)
        assert len(basis_log) == 1
        for _ in range(2):
            assert is_trivial_form(form("y*dx*dz - z*dx*dy").scale(umbrella.generators[0]), germ)
        assert len(basis_log) == 2
        del germ
        fresh = Germ(R, umbrella.generators)
        basis_log.clear()
        assert not is_trivial_form(omega1, fresh)
        assert not is_trivial_form(omega1, fresh)
        assert len(basis_log) == 1

    @pytest.mark.parametrize("fixture, seed", [("umbrella", 41), ("cusp", 42)])
    def test_cold_and_warm_agree_with_module_membership(self, request, fixture, seed):
        # Each form is decided on a new germ (cold: the basis is built) and
        # again on the same germ (warm: the kept basis is reused); both must
        # equal module membership of its coefficient vector, decided by
        # sympy's submodules of a free module over QQ[x, y, z], an oracle
        # that shares no code with conormal.groebner.
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols(R.variables)
        ring = sympy.QQ.old_poly_ring(*symbols)

        def to_sympy(p):
            return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                               * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
                               for exps, c in p.terms.items()))

        generators = request.getfixturevalue(fixture).generators
        rng = random.Random(seed)
        answers = []
        for k in (1, 2, 3):
            tuples = list(combinations(range(R.nvars), k))
            gens = trivial_form_generators(Germ(R, generators), k)
            module = ring.free_module(len(tuples)).submodule(
                *([to_sympy(g.coefficient(S)) for S in tuples] for g in gens))
            for i in range(4):
                if i % 2:
                    omega = random_form(rng, R, k, max_terms=3)
                else:
                    omega = None
                    for g in rng.sample(gens, 2):
                        term = g.scale(random_polynomial(rng, R, max_terms=2, max_degree=1))
                        omega = term if omega is None else omega + term
                expected = module.contains([to_sympy(omega.coefficient(S)) for S in tuples])
                germ = Germ(R, generators)
                assert is_trivial_form(omega, germ) == expected
                assert is_trivial_form(omega, germ) == expected
                answers.append(expected)
        assert True in answers and False in answers


class TestVanishesOnSingularLocus:
    def test_umbrella_generator_form(self, umbrella):
        assert vanishes_on_singular_locus(form("y*z*dx + 2*x*z*dy - 2*x*y*dz"), umbrella)
        assert vanishes_on_singular_locus(form("y"), umbrella)  # Sing X is the x-axis

    def test_dx_does_not_vanish(self, umbrella):
        assert not vanishes_on_singular_locus(form("dx"), umbrella)
        assert not vanishes_on_singular_locus(form("x"), umbrella)

    def test_vacuous_for_smooth_germ(self):
        germ = Germ(R, [X])
        assert vanishes_on_singular_locus(form("dy"), germ)

    def test_needs_hypersurface(self):
        germ = Germ(R, [X, Y])
        with pytest.raises(ValueError):
            vanishes_on_singular_locus(form("dx"), germ)


class TestParametrizationOracle:
    def test_constructor_validates_components(self, umbrella):
        pring = PolynomialRing(["u", "v"])
        u, v = pring.gens()
        with pytest.raises(ValueError):
            Parametrization(umbrella, pring, [u, v, u * v])  # does not satisfy f
        with pytest.raises(ValueError):
            Parametrization(umbrella, pring, [u**2, v, u * v + 1])  # misses the origin

    def test_covers_only_a_dense_image(self, umbrella_param):
        assert umbrella_param.covers
        for name in corpus_names():
            par = load_germ_file(name).parametrization
            assert par is None or par.covers, name
        s = PolynomialRing(["s"]).var(0)
        plane_line = Germ(R, [X * Y, X * Z])  # the plane x = 0 and the x-axis
        assert not Parametrization(plane_line, s.ring, [s.ring.zero, s, s**2]).covers
        assert not Parametrization(plane_line, s.ring, [s, s.ring.zero, s.ring.zero]).covers
        ring = PolynomialRing(["x", "y", "z", "w"])
        x, y, z, w = ring.gens()
        cone = Germ(ring, [x * z - y**2, y * w - z**2, x * w - y * z])
        assert Parametrization(cone, UV, [U**3, U**2 * V, U * V**2, V**3]).covers
        assert not Parametrization(cone, UV, [U**3, UV.zero, UV.zero, UV.zero]).covers

    def test_umbrella_1form_pullback_vanishes(self, umbrella, umbrella_param):
        assert oracle_conormal_on_parametrization(
            form("y*z*dx + 2*x*z*dy - 2*x*y*dz"), umbrella_param
        )

    def test_dx_pullback_nonzero(self, umbrella_param):
        assert not oracle_conormal_on_parametrization(form("dx"), umbrella_param)

    @given(forms_up_to_two(), pullback_maps())
    @example(X * Y**2 - Z**3, [U**2, V, U * V])
    def test_pullback_commutes_with_d(self, omega, images):
        # For a function g this is the chain rule: d(g o P) = P*(dg).
        assert pullback(exterior_derivative(omega), images) == exterior_derivative(
            pullback(omega, images)
        )

    @given(forms_up_to_two(), forms_up_to_two(), pullback_maps())
    def test_pullback_of_wedge_is_wedge_of_pullbacks(self, alpha, beta, images):
        assert pullback(wedge(alpha, beta), images) == wedge(
            pullback(alpha, images), pullback(beta, images)
        )

    def test_oracle_agrees_with_certificates(self, umbrella, umbrella_param):
        for text, expected in [
            ("y*z*dx + 2*x*z*dy - 2*x*y*dz", True),
            ("y*dx*dz - z*dx*dy", True),
            ("dx", False),
            ("dy", False),
            ("z^2 - x*y^2", True),
            ("x", False),
        ]:
            w = form(text)
            verdict = is_conormal(w, umbrella)
            assert oracle_conormal_on_parametrization(w, umbrella_param) == expected
            if verdict.is_certified_yes:
                assert expected
            if verdict.is_certified_no:
                assert not expected


class TestDecide:
    def test_criterion_on_a_complete_intersection(self, umbrella, umbrella_param):
        # The parametrization is not asked on a complete intersection.
        parts = parse_form("x + y*z*dx + 2*x*z*dy - 2*x*y*dz", R)
        for par in (None, umbrella_param):
            decision = decide(parts, umbrella, par)
            assert decision.source == "criterion" and decision.reason is None
            assert decision.verdicts == tuple(is_conormal(p, umbrella) for p in parts)
            assert [v.status for v in decision.verdicts] == [
                VerdictStatus.CERTIFIED_NO, VerdictStatus.CERTIFIED_YES
            ]
            assert decision.status is VerdictStatus.CERTIFIED_NO

    def test_refuted_part_beats_refused_part(self):
        # The non-reduced complete intersection V(x^2, y) has no computed
        # reduced germ, so the criterion refuses dz; x is certified by
        # radical membership, dx by the criterion, and z is refuted.
        germ = Germ(R, [X**2, Y])
        assert germ.complete_intersection and not germ.radical
        for text, status, source in [
            ("x + dx", VerdictStatus.CERTIFIED_YES, "criterion"),
            ("x + dz", None, "refused"),
            ("z + dz", VerdictStatus.CERTIFIED_NO, "criterion"),
        ]:
            decision = decide(parse_form(text, R), germ)
            assert (decision.status, decision.source) == (status, source), text

    def test_oracle_or_refusal_on_other_germs(self):
        ring = PolynomialRing(["x", "y", "z", "w"])
        x, y, z, w = ring.gens()
        cone = Germ(ring, [x * z - y**2, y * w - z**2, x * w - y * z])
        par = Parametrization(cone, UV, [U**3, U**2 * V, U * V**2, V**3])
        for text, status in [
            ("dx", VerdictStatus.CERTIFIED_NO),
            ("z*dx - 2*y*dy + x*dz", VerdictStatus.CERTIFIED_YES),
        ]:
            decision = decide(parse_form(text, ring), cone, par)
            assert (decision.status, decision.source, decision.verdicts) == (status, "oracle", ())
        plane_line = Germ(R, [X * Y, X * Z])  # the plane x = 0 and the x-axis
        s = PolynomialRing(["s"]).var(0)
        curve = Parametrization(plane_line, s.ring, [s.ring.zero, s, s**2])
        for par, reason in [
            (None, "germ is not a complete intersection and has no parametrization"),
            (curve, "the parametrization covers only part of X"),
        ]:
            decision = decide([form("dx")], plane_line, par)
            assert (decision.status, decision.source) == (None, "refused")
            assert decision.reason == reason
            # The zero form is conormal to every germ.
            zero = decide([], plane_line, par)
            assert (zero.status, zero.source, zero.verdicts) == (
                VerdictStatus.CERTIFIED_YES, "criterion", ()
            )

    def test_every_question_keeps_its_primitives_answers(self, umbrella, umbrella_param):
        # Sing X of the umbrella is the x-axis, where y and z vanish but 1
        # does not; z^2 - x*y^2 is trivial in degree 0 and dx is not.
        for text, question, answers, status in [
            ("z^2 - x*y^2 + dx", "trivial", (True, False), VerdictStatus.CERTIFIED_NO),
            ("y + z*dx", "vanishes", (True, True), VerdictStatus.CERTIFIED_YES),
            ("y + dx", "vanishes", (True, False), VerdictStatus.CERTIFIED_NO),
        ]:
            decision = decide(parse_form(text, R), umbrella, question=question)
            assert decision == Decision(status, "criterion", answers, question=question), text
        field = VectorField(R, [R.zero, -Y, -Z])
        decision = decide([field], umbrella, question="tangent")
        assert decision.verdicts == (is_tangential(field, umbrella),)
        assert (decision.status, decision.source) == (VerdictStatus.CERTIFIED_YES, "criterion")
        # The oracle question keeps only its aggregate, and needs a
        # parametrization, but not one that covers X.
        decision = decide([form("dx")], umbrella, umbrella_param, question="oracle")
        assert decision == Decision(VerdictStatus.CERTIFIED_NO, "oracle", question="oracle")
        with pytest.raises(ValueError, match="needs a parametrization"):
            decide([form("dx")], umbrella, question="oracle")

    def test_a_refused_tangency_claim_is_a_refused_decision(self):
        # V(x^2, y) has no computed reduced germ: V(x^2) = 2*x for the field
        # (1, 0, 0) lies in the radical of the ideal but not in the ideal.
        germ = Germ(R, [X**2, Y])
        field = VectorField(R, [R.one, R.zero, R.zero])
        with pytest.raises(Refusal) as refusal:
            is_tangential(field, germ)
        decision = decide([field], germ, question="tangent")
        assert decision == Decision(None, "refused", (None,), str(refusal.value), "tangent")

    def test_parametrization_of_another_germ_is_refused(self):
        # The plane x = 0 is covered by (s, t) -> (0, s, t), and dx pulls back
        # to zero, but dx is not conormal on the x-axis of V(x*y, x*z).
        plane_line = Germ(R, [X * Y, X * Z])
        s, t = UV.gens()
        plane = Parametrization(Germ(R, [X]), UV, [UV.zero, s, t])
        with pytest.raises(ValueError, match="other generators"):
            decide([form("dx")], plane_line, plane)


class TestDifferentialIdealClosure:
    def test_closure_under_d_product_and_scaling(self, umbrella):
        rng = random.Random(17)
        w = form("y*z*dx + 2*x*z*dy - 2*x*y*dz")
        assert is_conormal(exterior_derivative(w), umbrella).is_certified_yes
        for _ in range(5):
            eta = random_form(rng, R, 1)
            assert is_conormal(wedge(eta, w), umbrella).is_certified_yes
            p = random_polynomial(rng, R, max_terms=2, max_degree=2)
            assert is_conormal(w.scale(p), umbrella).is_certified_yes


class TestInclusionAndComponents:
    def test_forms_of_bigger_germ_stay_conormal_on_subgerm(self, umbrella):
        # Y = V(f, x) is the y-axis; conormal forms of X stay conormal on Y
        f = umbrella.generators[0]
        sub = Germ(R, [f, X])
        assert sub.complete_intersection
        for text in ["y*z*dx + 2*x*z*dy - 2*x*y*dz", "y*dx*dz - z*dx*dy"]:
            w = form(text)
            assert is_conormal(w, umbrella).is_certified_yes
            assert not is_conormal(w, sub).is_certified_no

    def test_intersection_of_component_conormals(self):
        # X = V(xy) with components V(x), V(y): a form conormal to both
        # components wedges with d(xy) into the radical of (xy).
        vx = Germ(R, [X])
        vy = Germ(R, [Y])
        product = X * Y
        rng = random.Random(23)
        for _ in range(10):
            alpha = random_form(rng, R, 1)
            beta = random_form(rng, R, 1)
            # x*dy^beta + y*dx^alpha is conormal to both components
            w = wedge(exterior_derivative(Y), beta).scale(X) + wedge(
                exterior_derivative(X), alpha
            ).scale(Y)
            assert not is_conormal(w, vx).is_certified_no
            assert not is_conormal(w, vy).is_certified_no
            eta = wedge(w, exterior_derivative(product))
            radical = Ideal([product])
            for _, c in eta.coefficients():
                assert radical_membership(c, radical)

    def test_closed_conormal_one_forms_have_potentials_in_ideal(self):
        from conormal.cli import corpus_names, load_germ_file

        rng = random.Random(29)
        for name in corpus_names():
            germ = load_germ_file(name).germ
            for _ in range(10):
                h = germ.ring.zero
                for f in germ.generators:
                    h = h + random_polynomial(rng, germ.ring, max_terms=2, max_degree=2) * f
                w = exterior_derivative(h)
                assert is_conormal(w, germ).is_certified_yes
                g = radial_potential(w)
                assert g == h
                assert ideal_membership(g, germ.ideal)


class TestSmallMethods:
    """The display method of parametrizations, with its exact value."""

    @pytest.mark.parametrize("make, want", [
        (lambda: repr(Parametrization(Germ(R, [Z**2 - X * Y**2]), UV, [U**2, V, U * V])),
         "(u^2, v, u*v)"),
    ], ids=["parametrization-repr"])
    def test_value(self, make, want):
        assert_outcome(make, want)


class TestInputChecks:
    """Each input check of the germ constructors and of the trivial-form
    generators refuses with its own message."""

    @pytest.mark.parametrize("make, message", [
        (lambda: Germ(R, []), "a germ needs at least one generator"),
        (lambda: Germ(R, [Z**2 - X * Y**2, R.zero]), "zero generators are not allowed"),
        (lambda: Parametrization(Germ(R, [Z**2 - X * Y**2]), UV, [U, V]),
         "one component per ambient variable required"),
        (lambda: trivial_form_generators(Germ(R, [Z**2 - X * Y**2]), 0),
         "degree must be between 1 and 3"),
        (lambda: trivial_form_generators(Germ(R, [Z**2 - X * Y**2]), 4),
         "degree must be between 1 and 3"),
        (lambda: decide([X], Germ(R, [Z**2 - X * Y**2]), question="nope"),
         "unknown question 'nope': ask 'conormal', 'tangent', 'trivial', 'vanishes' or 'oracle'"),
    ], ids=["no-generator", "zero-generator", "components", "degree-0", "degree-4", "question"])
    def test_refuses_with_its_message(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()
