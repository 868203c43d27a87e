"""Jacobian ideals, regularity in codimension, hyperplane sections, and the
seeded section harness."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conormal.forms import Hyperplane, exterior_derivative, wedge
from conormal.geometry import (
    BertiniVerdict,
    _cut,
    bertini_check,
    hyperplane_section,
    jacobian_ideal,
    random_hyperplane,
    regular_in_codimension,
)
from conormal.germs import Germ, Parametrization
from conormal.groebner import Ideal, krull_dimension, radical_membership
from conormal.poly import PolynomialRing, evaluate, partial_derivative

from strategies import (
    SECTION_GERMS,
    assert_exact,
    polynomials,
    reference_substitute,
    section_germ,
)

R = PolynomialRing(["x", "y", "z"])
X, Y, Z = R.gens()


def section_images(hyperplane, section_ring, pivot):
    """The images of the ambient variables on H, built by polynomial
    arithmetic over Q: x_pivot is -sum_i (h_i/h_pivot)*y_i, and every other
    variable is itself."""
    others = iter(section_ring.gens())
    images = [None if i == pivot else next(others) for i in range(len(hyperplane.normal))]
    h_pivot = hyperplane.normal[pivot]
    images[pivot] = section_ring.zero - sum(
        (Fraction(h, h_pivot) * y for h, y in zip(hyperplane.normal, images) if y is not None),
        section_ring.zero,
    )
    return images


class TestJacobianIdeal:
    def test_umbrella_partials(self, umbrella):
        jac = jacobian_ideal(umbrella)
        f = umbrella.generators[0]
        assert jac.generators == (f, -(Y**2), -2 * X * Y, 2 * Z)
        assert krull_dimension(jac) == 1  # the x-axis

    def test_isolated_singularity(self, cusp):
        assert krull_dimension(jacobian_ideal(cusp)) == 0

    def test_segre_cone_origin_only(self, segre):
        assert krull_dimension(jacobian_ideal(segre)) == 0

    def test_complete_intersection_minors(self):
        R4 = PolynomialRing(["x1", "x2", "x3", "x4"])
        germ = Germ(R4, [R4.var(0), R4.var(1)])
        jac = jacobian_ideal(germ)
        assert jac.is_unit()  # smooth: a unit minor

    def test_hypersurface_drops_zero_partials(self):
        assert jacobian_ideal(Germ(R, [X * Y])).generators == (X * Y, Y, X)

    def test_requires_complete_intersection(self):
        germ = Germ(R, [X, X * Y])  # dimension 2, not 3 - 2
        with pytest.raises(ValueError, match="not a complete intersection"):
            jacobian_ideal(germ)


class TestRegularInCodimension:
    def test_cusp_codim_one(self, cusp):
        assert regular_in_codimension(cusp, 1)

    def test_umbrella_fails_codim_one(self, umbrella):
        assert not regular_in_codimension(umbrella, 1)

    def test_segre_codim_two(self, segre):
        assert regular_in_codimension(segre, 2)

    def test_codim_zero_on_reduced_examples(self, cusp, umbrella, segre):
        from conormal.cli import load_germ_file

        subspace = load_germ_file("coordinate_subspace.germ").germ
        for germ in (cusp, umbrella, segre, subspace):
            assert regular_in_codimension(germ, 0)

    def test_k_out_of_range(self, cusp):
        with pytest.raises(ValueError):
            regular_in_codimension(cusp, 3)


class TestHyperplaneSection:
    def test_umbrella_generic_form(self, umbrella):
        # x = a*y + b*z with a = 2, b = 3: normal (1, -2, -3)
        section = hyperplane_section(umbrella, Hyperplane(R, [1, -2, -3]))
        sr = section.ring
        assert sr.variables == ("y", "z")
        y, z = sr.gens()
        assert section.generators[0] == z**2 - (2 * y + 3 * z) * y**2

    def test_tangent_coordinate_plane_gives_nonreduced_section(self, cusp):
        # z = 0 cuts x^3 - yz into x^3
        section = hyperplane_section(cusp, Hyperplane(R, [0, 0, 1]))
        x, y = section.ring.gens()
        assert section.generators[0] == x**3
        assert not section.radical

    def test_last_coordinate_drop(self, umbrella):
        section = hyperplane_section(umbrella, Hyperplane(R, [0, 0, 1]))
        x, y = section.ring.gens()
        assert section.generators[0] == -x * y**2

    def test_substitution_consistency(self, umbrella):
        # points of X on H, via the parametrization (u^2, v, u*v) with v = u^2,
        # evaluate to zero in section coordinates as well as ambient ones
        from fractions import Fraction

        h = Hyperplane(R, [1, -1, 0])  # x = y
        section = hyperplane_section(umbrella, h)
        for t in [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)]:
            ambient = [t**2, t**2, t**3]
            assert evaluate(umbrella.generators[0], ambient) == 0
            assert sum(a * b for a, b in zip(h.normal, ambient)) == 0
            assert evaluate(section.generators[0], ambient[1:]) == 0

    def test_section_agrees_with_ambient_on_hyperplane_points(self, umbrella):
        # f(p) equals the section polynomial at the chart coordinates for
        # arbitrary points p of H, not only points of X
        from fractions import Fraction

        h = Hyperplane(R, [1, -2, -3])
        section = hyperplane_section(umbrella, h)
        for y0, z0 in [(1, 1), (Fraction(1, 2), -3), (-2, Fraction(2, 5))]:
            ambient = [2 * Fraction(y0) + 3 * Fraction(z0), Fraction(y0), Fraction(z0)]
            assert evaluate(umbrella.generators[0], ambient) == evaluate(
                section.generators[0], [y0, z0]
            )

    def test_needs_three_variables(self):
        R2 = PolynomialRing(["x", "y"])
        germ = Germ(R2, [R2.var(0)])
        with pytest.raises(ValueError):
            hyperplane_section(germ, Hyperplane(R2, [1, 0]))


class TestRestriction:
    """``_cut`` builds the images of the ambient variables on H, and
    ``_cut`` and ``bertini_check`` restrict to H through
    ``Polynomial.substitute``; the result is the ring map written out over
    Q, agrees with the ambient polynomial at points of H, and has exact,
    normalized coefficients."""

    R4 = PolynomialRing(["x", "y", "z", "t"])

    @given(
        st.sampled_from([R, R4]).flatmap(
            lambda ring: st.tuples(
                polynomials(ring, max_terms=5),
                st.lists(st.integers(-4, 4), min_size=ring.nvars, max_size=ring.nvars)
                .filter(any),
            )
        )
    )
    def test_restriction_is_the_substitution(self, case):
        f, normal = case
        ring = f.ring
        f = f - f.constant_coefficient()  # a germ's generator vanishes at 0
        hyperplane = Hyperplane(ring, normal)
        pivot = next(i for i, h in enumerate(hyperplane.normal) if h)
        section_ring = PolynomialRing([v for i, v in enumerate(ring.variables) if i != pivot])
        images = section_images(hyperplane, section_ring, pivot)
        expected = reference_substitute(f, section_ring, images)
        if f and expected:
            section, cut_pivot, cut_images = _cut(Germ(ring, [f]), hyperplane)
            assert (section.ring, cut_pivot, cut_images) == (section_ring, pivot, images)
            assert section.generators[0] == expected
            assert_exact(section.generators[0], normalized=True)
        elif f:
            with pytest.raises(ValueError, match="contained in the germ"):
                _cut(Germ(ring, [f]), hyperplane)
        partial = partial_derivative(f, pivot)
        phi = partial.substitute(section_ring, images)
        assert phi == reference_substitute(partial, section_ring, images)
        assert_exact(phi, normalized=True)
        point = [Fraction(1, 2), -3, Fraction(2, 5)][: section_ring.nvars]
        on_h = [evaluate(g, point) for g in images]
        assert sum(h * x for h, x in zip(hyperplane.normal, on_h)) == 0
        assert evaluate(phi, point) == evaluate(partial, on_h)

    def test_pivot_powers_are_divided_once(self):
        # h_p = 3: the terms of x^2, x*y and y*z are scaled by 1, 3 and 9
        # and divided by h_p^2 = 9 only at the end.
        f = 9 * X**2 + Fraction(1, 2) * X * Y - Y * Z
        hyperplane = Hyperplane(R, [3, 2, -1])  # x = (z - 2*y)/3
        y, z = PolynomialRing(["y", "z"]).gens()
        section, pivot, _ = _cut(Germ(R, [f]), hyperplane)
        assert pivot == 0
        expected = (z - 2 * y) ** 2 + Fraction(1, 6) * (z - 2 * y) * y - y * z
        assert section.generators[0] == expected
        assert_exact(section.generators[0], normalized=True)


class TestSectionIsReduced:
    def test_generic_umbrella_section(self):
        sr = PolynomialRing(["y", "z"])
        y, z = sr.gens()
        germ = Germ(sr, [z**2 - (y + z) * y**2])
        assert germ.radical

    def test_double_line(self):
        sr = PolynomialRing(["x", "y"])
        x, _ = sr.gens()
        assert not Germ(sr, [x**3]).radical

    def test_smooth_line(self):
        sr = PolynomialRing(["y", "z"])
        y, _ = sr.gens()
        assert Germ(sr, [y]).radical


class TestBertiniCheck:
    def test_generic_hand_case(self, umbrella, umbrella_param):
        report = bertini_check(umbrella, Hyperplane(R, [1, -1, 0]), umbrella_param)
        assert report.verdict is BertiniVerdict.CONFIRMS_THEOREM
        assert report.section_reduced and report.singular_loci_equal
        y, z = report.section.ring.gens()
        assert report.section.generators[0] == z**2 - y**3

    def test_x_zero_fails_by_tangency(self, umbrella, umbrella_param):
        report = bertini_check(umbrella, Hyperplane(R, [1, 0, 0]), umbrella_param)
        assert report.verdict is BertiniVerdict.TRANSVERSALITY_FAILS
        assert not report.section_reduced
        assert any("non-reduced" in d for d in report.diagnostics)
        assert any("tangent" in d for d in report.diagnostics)

    def test_y_zero_contains_singular_locus(self, umbrella, umbrella_param):
        report = bertini_check(umbrella, Hyperplane(R, [0, 1, 0]), umbrella_param)
        assert report.verdict is BertiniVerdict.TRANSVERSALITY_FAILS
        assert any("contains Sing X" in d for d in report.diagnostics)

    def test_hyperplane_contained_in_x(self):
        # V(x*y^2 - x*z^3) contains the plane x = 0, so the section is empty.
        report = bertini_check(Germ(R, [X * Y**2 - X * Z**3]), Hyperplane(R, [1, 0, 0]))
        assert report.verdict is BertiniVerdict.TRANSVERSALITY_FAILS
        assert report.section is None
        assert report.diagnostics == ("H is contained in X",)

    def test_random_hyperplane_needs_a_positive_bound(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            random_hyperplane(R, 1, 0)

    def test_foreign_parametrization_refused(self, umbrella):
        # (0, s, t) parametrizes the plane V(x), not the umbrella
        pring = PolynomialRing(["s", "t"])
        s, t = pring.gens()
        plane = Parametrization(Germ(R, [X]), pring, [pring.zero, s, t])
        with pytest.raises(ValueError, match="other generators"):
            bertini_check(umbrella, Hyperplane(R, [1, 0, 0]), plane)

    def test_no_witness_where_the_parametrization_is_not_an_immersion(self):
        # d(x o par) = 3*u^2*du vanishes at u = 0, yet H = V(x) is
        # transverse to the smooth plane V(z) everywhere
        pring = PolynomialRing(["u", "v"])
        u, v = pring.gens()
        plane = Germ(R, [Z])
        par = Parametrization(plane, pring, [u**3, v, pring.zero])
        report = bertini_check(plane, Hyperplane(R, [1, 0, 0]), par)
        assert report.verdict is BertiniVerdict.CONFIRMS_THEOREM
        assert report.diagnostics == ()

    def test_parametrized_witnesses_are_tangency_points(self):
        # The umbrella's default bertini trials and the hyperplanes x and y,
        # with the corpus parametrization, and two tangent hyperplanes of the
        # smooth graph z = x^2 + y^3.  A witness p is checked by evaluation
        # alone: f(p) = 0, l(p) = 0, and grad f(p) is nonzero and parallel to
        # the normal.  The other diagnostics are the ambient reference's.
        from conormal.cli import load_germ_file

        gf = load_germ_file("umbrella.germ")
        umbrella, ring = gf.germ, gf.germ.ring
        trials = [random_hyperplane(ring, seed, 10) for seed in range(20)]
        trials += [Hyperplane(ring, [1, 0, 0]), Hyperplane(ring, [0, 1, 0])]
        pring = PolynomialRing(["u", "v"])
        u, v = pring.gens()
        graph = Germ(R, [Z - X**2 - Y**3])
        graph_par = Parametrization(graph, pring, [u, v, u**2 + v**3])
        # 4x + 3y - 4z is tangent at (1/2, -1/2, 1/8), a sampled point; the
        # sampled point (1/2, 1/2, 3/8) has a parallel gradient but is off H.
        # 8x + 12y - z is tangent only at (4, -2, 8), which is not sampled.
        on_grid, off_grid = Hyperplane(R, [4, 3, -4]), Hyperplane(R, [8, 12, -1])
        witnesses, unwitnessed = [], []
        for germ, par, hyperplanes in (
            (umbrella, gf.parametrization, trials),
            (graph, graph_par, [on_grid, off_grid]),
        ):
            f = germ.generators[0]
            gradient = [partial_derivative(f, i) for i in range(germ.ring.nvars)]
            for hyperplane in hyperplanes:
                report = bertini_check(germ, hyperplane, par)
                notes = [d for d in report.diagnostics if "parametrized point" in d]
                others = tuple(d for d in report.diagnostics if d not in notes)
                assert others == ambient_diagnostics(germ, hyperplane), hyperplane
                if notes:
                    assert TANGENT in report.diagnostics, hyperplane
                elif TANGENT in report.diagnostics:
                    unwitnessed.append(hyperplane)
                for note in notes:
                    point = [Fraction(c) for c in note[note.index("(") + 1 : -1].split(", ")]
                    normal = hyperplane.normal
                    grad = [evaluate(g, point) for g in gradient]
                    assert evaluate(f, point) == 0
                    assert sum(h * c for h, c in zip(normal, point)) == 0
                    assert any(grad)
                    pairs = [(a, k, b, h) for a, k in zip(grad, normal) for b, h in zip(grad, normal)]
                    assert all(a * h == b * k for a, k, b, h in pairs)
                    witnesses.append((hyperplane, point))
        assert (Hyperplane(ring, [1, 0, 0]), [0, 1, 0]) in witnesses
        assert (on_grid, [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 8)]) in witnesses
        assert off_grid in unwitnessed

    def test_smooth_germ_all_sections_clean(self):
        germ = Germ(R, [X + Y**2 + Z**2])
        assert jacobian_ideal(germ).is_unit()
        for seed in range(10):
            report = bertini_check(germ, random_hyperplane(R, seed, 5))
            assert report.verdict is BertiniVerdict.CONFIRMS_THEOREM
            assert report.section_reduced and report.singular_loci_equal
            # both singular loci are empty: the section is smooth too
            assert jacobian_ideal(report.section).is_unit()

    def test_no_violations_on_corpus_hundred_draws(self, umbrella, cusp, segre, umbrella_param):
        # The two-outcome rule: a report confirms the theorem iff its section
        # is reduced and its loci are equal, and a failing one says why.
        failures = []
        for germ, par, count in (
            (umbrella, umbrella_param, 40),
            (cusp, None, 30),
            (segre, None, 30),
        ):
            for seed in range(count):
                report = bertini_check(germ, random_hyperplane(germ.ring, seed, 10), par)
                confirms = report.section_reduced and report.singular_loci_equal
                if (report.verdict is BertiniVerdict.CONFIRMS_THEOREM) != confirms:
                    failures.append((germ, seed, report))
                if report.verdict is BertiniVerdict.TRANSVERSALITY_FAILS and not report.diagnostics:
                    failures.append((germ, seed, report))
        assert not failures

    @pytest.mark.parametrize(
        "hyperplane, bases",
        [
            # section jac, jac: phi is a plain member of the section jac,
            # and Sing X on H is a point, so the test of l is skipped
            (Hyperplane(R, [1, -1, 0]), 2),
            # 3*y - z: non-reduced section; H contains Sing X; the bases of
            # section jac and jac, and the Rabinowitsch steps (phi, section
            # jac) and (ell, jac), which run the pair loop without a basis
            (random_hyperplane(R, 7), 4),
        ],
        ids=["x-y", "3y-z"],
    )
    def test_groebner_bases_per_check(self, pair_loops, hyperplane, bases):
        # Deterministic work gate: the exact number of pair-loop runs, one
        # per Groebner basis and one per Rabinowitsch step, of one check.  A
        # rise means a lost cache or a lost shortcut.
        germ = Germ(R, [Z**2 - X * Y**2])
        bertini_check(germ, hyperplane)
        assert len(pair_loops) == bases

    @pytest.mark.parametrize(
        "hyperplane, bases",
        [(Hyperplane(R, [1, -1, 0]), 1), (random_hyperplane(R, 7), 3)],
        ids=["x-y", "3y-z"],
    )
    def test_second_check_reuses_jacobian_basis(self, pair_loops, hyperplane, bases):
        # The germ keeps its Jacobian ideal and that ideal its basis, so a
        # second check on the same germ makes one pair-loop run less than
        # the first: the Jacobian basis.
        germ = Germ(R, [Z**2 - X * Y**2])
        bertini_check(germ, hyperplane)
        pair_loops.clear()
        bertini_check(germ, hyperplane)
        assert len(pair_loops) == bases
        assert jacobian_ideal(germ) is jacobian_ideal(germ)

    def test_isolated_singularity_bases(self, basis_log):
        # section jac, jac; the second check reuses jac.  No Rabinowitsch
        # basis: phi is a plain member, and dim Sing X = 0 skips the
        # component tests.
        germ = Germ(R, [X**2 + Y**3 + Z**4])
        hyperplane = Hyperplane(R, [1, 2, 3])
        counts = []
        for _ in range(2):
            basis_log.clear()
            bertini_check(germ, hyperplane)
            counts.append(len(basis_log))
        assert counts == [2, 1]

    def test_component_of_singular_locus(self):
        # Sing X is the x- and y-axes; H = V(y) holds the x-axis only
        report = bertini_check(Germ(R, [Z**2 - X**2 * Y**2]), Hyperplane(R, [0, 1, 0]))
        assert report.diagnostics == (
            "section is non-reduced (H is tangent to X along a locus)",
            "H contains a positive-dimensional component of Sing X",
        )

    def test_section_ring_decision_equals_ambient(self):
        # The check decides tangency and the component test in the section
        # ring; the ambient formulas below, over C[x] with l adjoined, must
        # give the same report on every hyperplane with normal in {-1,0,1}^n.
        fired = set()
        for variables, equation in SECTION_GERMS:
            germ = section_germ(variables, equation)
            ring = germ.ring
            for normal in product((-1, 0, 1), repeat=ring.nvars):
                if not any(normal):
                    continue
                hyperplane = Hyperplane(ring, list(normal))
                report = bertini_check(germ, hyperplane)
                expected = ambient_diagnostics(germ, hyperplane)
                assert report.diagnostics == expected, (equation, normal)
                tangent = TANGENT in expected
                assert report.singular_loci_equal is not tangent, (equation, normal)
                fired.update(expected)
        assert len(fired) == 4

    def test_sliced_jacobian_is_section_jacobian_plus_pivot_partial(self):
        # The identity the check rests on: the Jacobian ideal of X carried
        # to H through the images of the ambient variables equals the
        # section's Jacobian ideal plus phi, the restriction of d_p f with
        # p the pivot.
        pairs = 0
        for variables, equation in SECTION_GERMS:
            germ = section_germ(variables, equation)
            f = germ.generators[0]
            for normal in product((-1, 0, 1), repeat=germ.ring.nvars):
                if not any(normal):
                    continue
                try:
                    hyperplane = Hyperplane(germ.ring, list(normal))
                    section, pivot, _ = _cut(germ, hyperplane)
                except ValueError:
                    continue  # H is contained in X
                images = section_images(hyperplane, section.ring, pivot)
                sliced = [g.substitute(section.ring, images) for g in germ.jacobian.generators]
                phi = reference_substitute(partial_derivative(f, pivot), section.ring, images)
                plus_phi = Ideal(section.jacobian.generators + (phi,))
                assert Ideal([g for g in sliced if g]).same_ideal(plus_phi), (equation, normal)
                pairs += 1
        assert pairs == 210


TANGENT = "H is tangent to X at a regular point of X on H"


def ambient_diagnostics(germ, hyperplane):
    """bertini_check's diagnostics (no parametrization) computed in the
    ambient ring: the tangency locus is cut out by f, l and the coefficients
    of df ^ dl, and the component test is dim (jac + l)."""
    jac = jacobian_ideal(germ)
    ell = hyperplane.linear_form()
    diagnostics = []
    if not hyperplane_section(germ, hyperplane).radical:
        diagnostics.append("section is non-reduced (H is tangent to X along a locus)")
    dim_sing = germ.singular_dimension
    if dim_sing >= 1:
        if radical_membership(ell, jac):
            diagnostics.append("H contains Sing X")
        elif krull_dimension(Ideal(list(jac.generators) + [ell])) >= dim_sing:
            diagnostics.append("H contains a positive-dimensional component of Sing X")
    df_dl = wedge(germ.jacobian_form, exterior_derivative(ell))
    tangency = Ideal([germ.generators[0], ell] + [c for _, c in df_dl.coefficients()])
    if not all(radical_membership(g, tangency) for g in jac.generators):
        diagnostics.append(TANGENT)
    return tuple(diagnostics)


class TestRandomHyperplane:
    def test_deterministic(self):
        assert random_hyperplane(R, 42) == random_hyperplane(R, 42)

    def test_never_zero_normal(self):
        for seed in range(1000):
            h = random_hyperplane(R, seed, 10)
            assert any(h.normal)

    def test_sign_spread(self):
        # canonicalization keeps the first nonzero entry positive, so the
        # first coordinate only attains + and 0; the others see both signs
        seen_positive = [False] * 3
        seen_negative = [False] * 3
        normals = set()
        for seed in range(1000):
            h = random_hyperplane(R, seed, 10)
            normals.add(h.normal)
            for i, v in enumerate(h.normal):
                seen_positive[i] |= v > 0
                seen_negative[i] |= v < 0
        assert all(seen_positive)
        assert not seen_negative[0] and seen_negative[1] and seen_negative[2]
        assert len(normals) > 500  # draws are spread out


class TestInputChecks:
    """Each input check of the section harness refuses with its own message."""

    @pytest.mark.parametrize("make, message", [
        (lambda: bertini_check(Germ(R, [Z**2 - X * Y**2]),
                               Hyperplane(PolynomialRing(["u", "v", "w"]), [1, 2, 3])),
         "hyperplane ring mismatch"),
    ], ids=["ring"])
    def test_refuses_with_its_message(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()
