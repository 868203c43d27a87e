"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every comparison is an
exact identity over the rationals; there are no numeric tolerances anywhere.
A module-scoped hook records every Groebner basis computed while the suite
runs so the final audit can re-verify all of them.
"""

import contextlib
import io
import random

import pytest

import conormal.groebner as groebner_module
from conormal.cli import dispatch, load_germ_file
from conormal.forms import (
    DifferentialForm,
    Hyperplane,
    exterior_derivative,
    form_to_vector_field,
    parse_form,
    radial_potential,
    volume_coefficient,
    wedge,
)
from conormal.geometry import (
    BertiniVerdict,
    bertini_check,
    jacobian_ideal,
    random_hyperplane,
    regular_in_codimension,
)
from conormal.germs import (
    VerdictStatus,
    is_conormal,
    is_tangential,
    is_trivial_form,
    oracle_conormal_on_parametrization,
    vanishes_on_singular_locus,
)
from conormal.groebner import (
    Ideal,
    eliminate,
    ideal_membership,
    radical_membership,
    reduce,
    s_polynomial,
)
from conormal.poly import PolynomialRing

from strategies import in_submodule, random_form, random_polynomial

YES, NO = VerdictStatus.CERTIFIED_YES, VerdictStatus.CERTIFIED_NO

_collected_bases = []


@pytest.fixture(scope="module", autouse=True)
def _audit_every_basis():
    seen = set()

    def observer(gens, order, basis):
        key = (tuple(gens), order)
        if key not in seen:
            seen.add(key)
            _collected_bases.append((list(gens), order, list(basis)))

    previous = groebner_module._basis_observer
    groebner_module._basis_observer = observer
    yield
    groebner_module._basis_observer = previous


def _report(label: str, ok: bool):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {label}"


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(list(argv))
    return code, buf.getvalue()


def single_form(text, ring):
    [part] = parse_form(text, ring)
    return part


def test_criterion_1_isolated_singularity_example():
    gf = load_germ_file("cusp3.germ")
    germ = gf.germ
    f = germ.generators[0]
    [omega] = gf.forms["omega2"]

    three_f_vol = DifferentialForm(germ.ring, 3, {(0, 1, 2): 3 * f})
    verdict = is_conormal(omega, germ)
    witness_is_3f_vol = wedge(omega, exterior_derivative(f)) == three_f_vol == verdict.wedge

    code, out = run_cli("check", "--germ", "cusp3.germ", "--form", "x*dy*dz + 3*z*dx*dy")
    check_ok = code == 0 and "CONORMAL (certified)" in out and "(3*x^3 - 3*y*z)*dx*dy*dz" in out

    code, out = run_cli("trivial", "--germ", "cusp3.germ", "--form", "omega2")
    trivial_ok = code == 1 and "NON-TRIVIAL" in out

    code, out = run_cli("singular", "--germ", "cusp3.germ")
    singular_ok = code == 0 and "regular in codimension 1: yes" in out

    _report(
        "criterion 1 (cusp surface: certified conormal 2-form, 3*f*volume witness, "
        "non-trivial, regular in codim 1)",
        witness_is_3f_vol
        and verdict.status is YES
        and not is_trivial_form(omega, germ)
        and regular_in_codimension(germ, 1)
        and check_ok
        and trivial_ok
        and singular_ok,
    )


def test_criterion_2_whitney_umbrella_example():
    gf = load_germ_file("umbrella.germ")
    germ = gf.germ
    f = germ.generators[0]
    par = gf.parametrization
    [omega1] = gf.forms["omega1"]
    [omega2] = gf.forms["omega2"]

    both_conormal = (
        is_conormal(omega1, germ).status is YES
        and is_conormal(omega2, germ).status is YES
    )
    one_form_nontrivial = not is_trivial_form(omega1, germ)

    field = form_to_vector_field(omega2)
    tangential = is_tangential(field, germ).status is YES
    scales_by_minus_two = field.contract(exterior_derivative(f)) == -2 * f

    oracle_agrees = (
        oracle_conormal_on_parametrization(omega1, par)
        and oracle_conormal_on_parametrization(omega2, par)
        and not oracle_conormal_on_parametrization(single_form("dx", germ.ring), par)
        and is_conormal(single_form("dx", germ.ring), germ).status is NO
    )

    _report(
        "criterion 2 (umbrella: both forms certified, 1-form non-trivial, "
        "D(omega2) tangential with V(f) = -2*f, oracle agrees)",
        both_conormal and one_form_nontrivial and tangential and scales_by_minus_two
        and oracle_agrees,
    )


def test_criterion_3_conormal_one_forms_vanish_on_singular_locus():
    gf = load_germ_file("umbrella.germ")
    germ = gf.germ
    ring = germ.ring
    x, y, z = ring.gens()
    f = germ.generators[0]
    [omega1] = gf.forms["omega1"]
    df = exterior_derivative(f)

    jac = jacobian_ideal(germ)
    hand_oracle = Ideal([y, z])
    radical_is_y_z = all(
        radical_membership(g, hand_oracle) for g in jac.generators
    ) and all(radical_membership(g, jac) for g in hand_oracle.generators)
    omega1_coeffs_in_radical = all(
        radical_membership(c, jac) for _, c in omega1.coefficients()
    )

    all_vanish = vanishes_on_singular_locus(omega1, germ)
    for seed in range(50):
        rng = random.Random(seed)
        p = random_polynomial(rng, ring, max_terms=2, max_degree=2)
        q = random_polynomial(rng, ring, max_terms=2, max_degree=2)
        r = random_polynomial(rng, ring, max_terms=2, max_degree=2)
        i = rng.randrange(3)
        w = DifferentialForm(ring, 1, {(i,): p * f}) + df.scale(q) + omega1.scale(r)
        if not w:
            continue
        if is_conormal(w, germ).status is not YES:
            all_vanish = False
            break
        if not vanishes_on_singular_locus(w, germ):
            all_vanish = False
            break

    _report(
        "criterion 3 (main theorem: 50 seeded conormal 1-forms vanish on Sing X; "
        "radical of the jacobian ideal is (y, z))",
        radical_is_y_z and omega1_coeffs_in_radical and all_vanish,
    )


def test_criterion_4_segre_cone_example():
    gf = load_germ_file("segre.germ")
    germ = gf.germ
    f = germ.generators[0]
    [omega3] = gf.forms["omega3"]

    regular = regular_in_codimension(germ, 1) and regular_in_codimension(germ, 2)
    conormal = is_conormal(omega3, germ).status is YES
    vol = volume_coefficient(wedge(omega3, exterior_derivative(f)))
    wedge_exact = vol == -f or vol == f

    _report(
        "criterion 4 (quadric cone: regular in codim 1 and 2, 3-form certified "
        "conormal with wedge = ±f*volume)",
        regular and conormal and wedge_exact,
    )


def test_criterion_5_hyperplane_section_harness():
    gf = load_germ_file("umbrella.germ")
    germ = gf.germ
    par = gf.parametrization
    ring = germ.ring

    reports = [
        bertini_check(germ, random_hyperplane(ring, 7 + i, 10), par) for i in range(20)
    ]
    two_outcomes = all(
        (r.verdict is BertiniVerdict.CONFIRMS_THEOREM)
        == (r.section_reduced and r.singular_loci_equal)
        for r in reports
    )
    fails_have_diagnostics = all(
        r.diagnostics for r in reports if r.verdict is BertiniVerdict.TRANSVERSALITY_FAILS
    )

    generic = bertini_check(germ, Hyperplane(ring, [1, -1, 0]), par)
    wall_x = bertini_check(germ, Hyperplane(ring, [1, 0, 0]), par)
    wall_y = bertini_check(germ, Hyperplane(ring, [0, 1, 0]), par)
    hand_cases = (
        generic.verdict is BertiniVerdict.CONFIRMS_THEOREM
        and wall_x.verdict is BertiniVerdict.TRANSVERSALITY_FAILS
        and wall_y.verdict is BertiniVerdict.TRANSVERSALITY_FAILS
        and any("contains Sing X" in d for d in wall_y.diagnostics)
    )

    code, out = run_cli(
        "bertini", "--germ", "umbrella.germ", "--trials", "20", "--seed", "7",
        "--bound", "10",
    )
    cli_ok = code == 0 and out.count("trial ") == 20 and "violations" not in out

    _report(
        "criterion 5 (section harness: 20 seeded trials, each confirming or "
        "failing with a diagnostic, hand-built hyperplanes classified as derived)",
        two_outcomes and fails_have_diagnostics and hand_cases and cli_ok,
    )


def test_criterion_6_radial_potential_on_corpus():
    ok = True
    for name in ("coordinate_subspace.germ", "cusp3.germ", "umbrella.germ", "segre.germ"):
        gf = load_germ_file(name)
        germ = gf.germ
        rng = random.Random(len(name))
        for _ in range(20):
            g = germ.ring.zero
            for f in germ.generators:
                g = g + random_polynomial(rng, germ.ring, max_terms=2, max_degree=3) * f
            if not g or max(map(sum, g.terms)) > 6:
                g = germ.generators[0] * random_polynomial(
                    rng, germ.ring, max_terms=1, max_degree=1, nonzero=True
                )
            recovered = radial_potential(exterior_derivative(g))
            if recovered != g or not ideal_membership(recovered, germ.ideal):
                ok = False

    code, out = run_cli(
        "potential", "--germ", "umbrella.germ", "--form", "y*dx - x*dy"
    )
    not_closed_ok = code != 0 and "NotClosed" in out

    _report(
        "criterion 6 (radial potential reproduces 20 random ideal members per "
        "germ; non-closed input reports NotClosed)",
        ok and not_closed_ok,
    )


def test_criterion_7_groebner_oracles():
    ring = PolynomialRing(["x", "y", "t"])
    x, y, t = ring.gens()
    result = eliminate(Ideal([x - t**2, y - t**3]), [2])
    target = PolynomialRing(["x", "y"])
    tx, ty = target.gens()
    eliminate_exact = result.same_ideal(Ideal([ty**2 - tx**3])) and list(
        result.groebner_basis()
    ) == [tx**3 - ty**2]

    base = PolynomialRing(["x", "y", "z"])
    rng = random.Random(777)
    agreement = True
    positives = 0
    for _ in range(50):
        gens = [
            random_polynomial(rng, base, max_terms=2, max_degree=2, nonzero=True)
            for _ in range(rng.randint(1, 2))
        ]
        candidate = random_polynomial(rng, base, max_terms=2, max_degree=2)
        if rng.random() < 0.5:
            candidate = base.zero
            for g in gens:
                candidate = candidate + random_polynomial(rng, base, max_terms=2, max_degree=1) * g
        expected = ideal_membership(candidate, Ideal(gens))
        got = in_submodule((candidate,), [(g,) for g in gens])
        agreement = agreement and (got == expected)
        positives += expected

    _report(
        "criterion 7 (eliminate yields exactly (y^2 - x^3); rank-1 module "
        "membership agrees with ideal membership on 50 seeded instances)",
        eliminate_exact and agreement and 0 < positives < 50,
    )


def test_criterion_8_exterior_algebra_property_suite():
    ring = PolynomialRing(["x", "y", "z"])
    rng = random.Random(2718)
    point = [1, -2, 3]

    dd_zero = True
    for _ in range(100):
        k = rng.randint(0, 2)
        w = (
            random_polynomial(rng, ring, max_terms=3, max_degree=3)
            if k == 0
            else random_form(rng, ring, k, max_terms=3)
        )
        if exterior_derivative(exterior_derivative(w)):
            dd_zero = False

    leibniz = True
    for _ in range(100):
        k = rng.randint(0, 2)
        l = rng.randint(0, 2)
        a = (
            random_polynomial(rng, ring, max_terms=2, max_degree=2)
            if k == 0
            else random_form(rng, ring, k)
        )
        b = (
            random_polynomial(rng, ring, max_terms=2, max_degree=2)
            if l == 0
            else random_form(rng, ring, l)
        )
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b)
        correction = wedge(a, exterior_derivative(b))
        rhs = rhs + correction if k % 2 == 0 else rhs - correction
        if lhs != rhs:
            leibniz = False

    anticommutative = True
    for _ in range(100):
        k = rng.randint(0, 2)
        l = rng.randint(0, 2)
        a = (
            random_polynomial(rng, ring, max_terms=2, max_degree=2)
            if k == 0
            else random_form(rng, ring, k)
        )
        b = (
            random_polynomial(rng, ring, max_terms=2, max_degree=2)
            if l == 0
            else random_form(rng, ring, l)
        )
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        if (k * l) % 2 == 1:
            rhs = -rhs
        if lhs != rhs:
            anticommutative = False

    multiplicative = True
    from conormal.forms import evaluate_form

    for _ in range(100):
        k = rng.randint(1, 2)
        l = rng.randint(1, 2)
        a = random_form(rng, ring, k)
        b = random_form(rng, ring, l)
        if evaluate_form(wedge(a, b), point) != wedge(
            evaluate_form(a, point), evaluate_form(b, point)
        ):
            multiplicative = False

    _report(
        "criterion 8 (exterior algebra: d∘d = 0, graded Leibniz, graded "
        "anticommutativity, evaluation multiplicativity; 100 cases each)",
        dd_zero and leibniz and anticommutative and multiplicative,
    )


def test_criterion_9_differential_ideal_closure():
    rng = random.Random(31415)
    ok = True
    corpus = [
        ("cusp3.germ", "omega2"),
        ("umbrella.germ", "omega1"),
        ("umbrella.germ", "omega2"),
        ("segre.germ", "omega3"),
    ]
    for name, form_name in corpus:
        gf = load_germ_file(name)
        germ = gf.germ
        [w] = gf.forms[form_name]
        if is_conormal(w, germ).status is not YES:
            ok = False
            continue
        if is_conormal(exterior_derivative(w), germ).status is not YES:
            ok = False
        for _ in range(10):
            eta = random_form(rng, germ.ring, 1, max_terms=2)
            product = wedge(eta, w)
            if product and is_conormal(product, germ).status is not YES:
                ok = False
            p = random_polynomial(rng, germ.ring, max_terms=2, max_degree=2)
            scaled = w.scale(p)
            if scaled and is_conormal(scaled, germ).status is not YES:
                ok = False

    _report(
        "criterion 9 (differential-ideal closure: d, wedge, and scaling keep "
        "corpus forms certified conormal)",
        ok,
    )


def test_criterion_7b_every_computed_basis_audited():
    # Runs last: re-verifies every basis the suite computed above.
    audited = 0
    clean = True
    for gens, order, basis in list(_collected_bases):
        for g in gens:
            if reduce(g, basis, order) if basis else g:
                clean = False
        for i in range(len(basis)):
            for j in range(i):
                if reduce(s_polynomial(basis[i], basis[j], order), basis, order):
                    clean = False
        audited += 1
    _report(
        f"criterion 7 continued ({audited} computed bases: generators and all "
        "S-polynomials reduce to 0)",
        clean and audited > 0,
    )
