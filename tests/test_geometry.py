"""Jacobian ideals, regularity in codimension, hyperplane sections, and the
seeded section harness."""

from itertools import product

import pytest

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
from conormal.germs import Germ
from conormal.groebner import Ideal, krull_dimension, radical_membership
from conormal.poly import PolynomialRing, evaluate, partial_derivative

from strategies import SECTION_GERMS, section_germ

R = PolynomialRing(["x", "y", "z"])
X, Y, Z = R.gens()


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
        failures = []
        for germ, par, count in (
            (umbrella, umbrella_param, 40),
            (cusp, None, 30),
            (segre, None, 30),
        ):
            for seed in range(count):
                report = bertini_check(germ, random_hyperplane(germ.ring, seed, 10), par)
                if report.verdict is BertiniVerdict.VIOLATION:
                    failures.append((germ, seed, report))
                if report.verdict is BertiniVerdict.TRANSVERSALITY_FAILS:
                    assert report.diagnostics
        assert not failures

    @pytest.mark.parametrize(
        "hyperplane, bases",
        [
            # section jac, jac: phi is a plain member of the section jac,
            # and Sing X on H is a point, so the test of l is skipped
            (Hyperplane(R, [1, -1, 0]), 2),
            # 3*y - z: non-reduced section; H contains Sing X; section jac,
            # Rabinowitsch(phi, section jac), jac, Rabinowitsch(ell, jac)
            (random_hyperplane(R, 7), 4),
        ],
        ids=["x-y", "3y-z"],
    )
    def test_groebner_bases_per_check(self, monkeypatch, hyperplane, bases):
        # Deterministic work gate: the exact number of Groebner bases one
        # check computes.  A rise means a lost cache or a lost shortcut.
        import conormal.groebner as groebner

        germ = Germ(R, [Z**2 - X * Y**2])
        seen = []
        monkeypatch.setattr(groebner, "_basis_observer", lambda *args: seen.append(args))
        bertini_check(germ, hyperplane)
        assert len(seen) == bases

    @pytest.mark.parametrize(
        "hyperplane, bases",
        [(Hyperplane(R, [1, -1, 0]), 1), (random_hyperplane(R, 7), 3)],
        ids=["x-y", "3y-z"],
    )
    def test_second_check_reuses_jacobian_basis(self, monkeypatch, hyperplane, bases):
        # The germ keeps its Jacobian ideal and that ideal its basis, so a
        # second check on the same germ computes one basis less than the first.
        import conormal.groebner as groebner

        germ = Germ(R, [Z**2 - X * Y**2])
        bertini_check(germ, hyperplane)
        seen = []
        monkeypatch.setattr(groebner, "_basis_observer", lambda *args: seen.append(args))
        bertini_check(germ, hyperplane)
        assert len(seen) == bases
        assert jacobian_ideal(germ) is jacobian_ideal(germ)

    def test_isolated_singularity_bases(self, monkeypatch):
        # section jac, jac; the second check reuses jac.  No Rabinowitsch
        # basis: phi is a plain member, and dim Sing X = 0 skips the
        # component tests.
        import conormal.groebner as groebner

        germ = Germ(R, [X**2 + Y**3 + Z**4])
        hyperplane = Hyperplane(R, [1, 2, 3])
        counts = []
        for _ in range(2):
            seen = []
            monkeypatch.setattr(groebner, "_basis_observer", lambda *args: seen.append(args))
            bertini_check(germ, hyperplane)
            counts.append(len(seen))
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
        # to H through _cut's images equals the section's Jacobian ideal
        # plus phi = (d_p f) o images, p the pivot.
        pairs = 0
        for variables, equation in SECTION_GERMS:
            germ = section_germ(variables, equation)
            f = germ.generators[0]
            for normal in product((-1, 0, 1), repeat=germ.ring.nvars):
                if not any(normal):
                    continue
                try:
                    section, images, pivot = _cut(germ, Hyperplane(germ.ring, list(normal)))
                except ValueError:
                    continue  # H is contained in X
                sliced = [g.substitute(section.ring, images) for g in germ.jacobian.generators]
                phi = partial_derivative(f, pivot).substitute(section.ring, images)
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
