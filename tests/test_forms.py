"""Exterior algebra: parsing, wedge, d, evaluation, the vector-field map,
and the radial potential."""

import random
import re
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conormal import _expr
from conormal import forms as forms_module
from conormal._expr import ParseError, mixed_mul, parse_mixed_text
from conormal.forms import (
    DifferentialForm,
    Hyperplane,
    NotClosedError,
    VectorField,
    evaluate_form,
    exterior_derivative,
    form_degree,
    form_to_vector_field,
    format_form,
    format_form_parts,
    parse_form,
    pullback,
    radial_potential,
    vector_field_to_form,
    volume_coefficient,
    wedge,
)
from conormal.germs import Germ, _trivial_module, is_trivial_form, trivial_form_generators
from conormal.poly import Polynomial, PolynomialRing, partial_derivative

from strategies import (
    assert_exact,
    assert_outcome,
    expressions,
    forms,
    polynomials,
    random_form,
    random_polynomial,
)

R = PolynomialRing(["x", "y", "z"])
X, Y, Z = R.gens()
R4 = PolynomialRing(["x", "y", "z", "t"])
R1 = PolynomialRing(["x"])


def form(text, ring=R):
    parts = parse_form(text, ring)
    assert len(parts) == 1
    return parts[0]


def count_polynomials(monkeypatch) -> list:
    """The list of every Polynomial built from now on in the test."""
    built = []
    init = Polynomial.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    return built


class TestConstructor:
    @pytest.mark.parametrize("index", [1.5, 0.0, "a"])
    def test_an_index_that_is_not_an_int_is_refused(self, index):
        with pytest.raises(ValueError, match="index tuple"):
            DifferentialForm(R, 1, {(index,): X})

    def test_no_polynomial_is_built_for_polynomial_coefficients(self, monkeypatch):
        # The form keeps the coefficients' term dicts, added into fresh ones.
        built = count_polynomials(monkeypatch)
        w = DifferentialForm(R, 1, {(0,): X, (1,): Y})
        assert built == []
        assert w == form("x*dx + y*dy")

    def test_no_polynomial_is_built_for_scalar_coefficients(self, monkeypatch):
        # A scalar is read straight into its normalized term dict; no
        # constant polynomial is built on the way.
        built = count_polynomials(monkeypatch)
        w = DifferentialForm(R, 1, {(0,): 3, (1,): Fraction(4, 2), (2,): 0})
        assert built == []
        assert w == form("3*dx + 2*dy")
        assert_exact(w.coefficient((1,)), normalized=True)

    def test_keys_that_are_the_same_tuple_add_up(self):
        assert DifferentialForm(R, 1, {(0,): X, range(0, 1): Y}) == form("(x + y)*dx")
        assert not DifferentialForm(R, 1, {(0,): X, range(0, 1): -X})


class TestParseForm:
    def test_two_form_coefficients(self):
        w = form("x*dy*dz + 3*z*dx*dy")
        assert w.degree == 2
        assert w.coefficient((1, 2)) == X
        assert w.coefficient((0, 1)) == 3 * Z

    def test_sign_normalization(self):
        assert form("y*dz*dx").coefficient((0, 2)) == -Y

    def test_repeated_differential_is_zero(self):
        assert parse_form("x*dx*dx", R) == []

    def test_mixed_degrees_split(self):
        parts = parse_form("x + y*dx + z*dx*dy", R)
        assert [0, 1, 2] == [
            0 if not isinstance(p, DifferentialForm) else p.degree for p in parts
        ]

    def test_power_of_differential_rejected(self):
        from conormal import ParseError

        with pytest.raises(ParseError):
            parse_form("dx^2", R)

    def test_print_parse_roundtrip(self):
        for text in [
            "y*z*dx + 2*x*z*dy - 2*x*y*dz",
            "y*dx*dz - z*dx*dy",
            "(x*dy - y*dx)*dz*dt",
        ]:
            ring = R4 if "dt" in text else R
            parts = parse_form(text, ring)
            printed = format_form(parts[0])
            assert parse_form(printed, ring) == parts
        # Mixed degrees print as one expression, with the sign of each part
        # carried into the join.
        for text in ["x - dy", "-1 - y*dx + x*dx*dy"]:
            parts = parse_form(text, R)
            printed = format_form_parts(parts)
            assert printed == text
            assert parse_form(printed, R) == parts

    @given(expressions(R))
    @settings(max_examples=200)
    def test_printed_parts_parse_back(self, case):
        parts = parse_form(case[0], R)
        assert parse_form(format_form_parts(parts), R) == parts


def _graded_sum(values) -> dict:
    out: dict = {}
    for v in values:
        k = form_degree(v)
        out[k] = out[k] + v if k in out else v
    return out


def reference_parse(tree, ring) -> dict:
    # The value of an expression tree from tests/strategies.py, computed
    # with Polynomial and wedge arithmetic only, as {degree: homogeneous part}.
    kind = tree[0]
    if kind == "num":
        return {0: ring.const(tree[1])}
    if kind == "var":
        return {0: ring.var(tree[1])}
    if kind == "d":
        return {1: DifferentialForm(ring, 1, {(tree[1],): ring.one})}
    if kind == "pow":
        return {0: reference_parse(tree[1], ring).get(0, ring.zero) ** tree[2]}
    if kind == "prod":
        value = {0: ring.one}
        for factor in tree[1]:
            rhs = reference_parse(factor, ring)
            value = _graded_sum(wedge(a, b) for a in value.values() for b in rhs.values())
        return value
    value = {}
    for negate, term in tree[1]:
        part = reference_parse(term, ring).values()
        value = _graded_sum([*value.values(), *(-p if negate else p for p in part)])
    return value


def _raw(graded: dict) -> dict:
    out = {}
    for k, v in graded.items():
        if k == 0:
            if v:
                out[()] = v._terms
        else:
            out.update((idx, c._terms) for idx, c in v.coefficients())
    return out


class TestParseAgainstReference:
    @given(expressions(R))
    @settings(max_examples=200)
    def test_same_terms_as_polynomial_and_wedge_arithmetic(self, case):
        text, tree = case
        mixed = parse_mixed_text(text, R, allow_differentials=True)
        assert mixed == _raw(reference_parse(tree, R))
        for terms in mixed.values():
            assert terms
            for c in terms.values():
                assert type(c) in (int, Fraction)
                assert type(c) is int or c.denominator != 1

    def test_one_polynomial_per_nonzero_coefficient(self, monkeypatch):
        # The parser works on raw term dicts: parse_form builds a Polynomial
        # for the degree-0 part alone, and coefficients() one per coefficient
        # of a form, when it is read.
        built = count_polynomials(monkeypatch)
        text = "x*dy*dz + 3*z*dx*dy - (x + 1/2*y)^2*dx*dz + 2*dx*dx + y^2 - 2*1/2*x + x"
        parts = parse_form(text, R)
        k = sum(1 if form_degree(p) == 0 else len(p.coefficients()) for p in parts)
        assert k == 4
        assert len(built) == k


def _boundaries(text: str) -> list:
    # The offsets between tokens: all but those inside a name, an integer
    # or a "p/q" literal.
    tokens = re.finditer(r"\d+\s*/\s*\d+|\w+", text)
    inside = {i for m in tokens for i in range(m.start() + 1, m.end())}
    return [i for i in range(len(text) + 1) if i not in inside]


@st.composite
def spaced_expressions(draw, ring):
    """(text, spaced): an expression and the same expression with runs of
    spaces and tabs put in at random token boundaries."""
    text, _ = draw(expressions(ring))
    spaced = text
    for i in sorted(set(draw(st.lists(st.sampled_from(_boundaries(text)), max_size=6))))[::-1]:
        spaced = spaced[:i] + draw(st.text(" \t", min_size=1, max_size=3)) + spaced[i:]
    return text, spaced


class TestParseWhitespace:
    """Token offsets are running sums of the scanned lengths; whitespace
    must shift them exactly and change nothing else."""

    @given(spaced_expressions(R))
    @settings(max_examples=200)
    def test_whitespace_between_tokens_changes_nothing(self, case):
        text, spaced = case
        assert parse_mixed_text(spaced, R, True) == parse_mixed_text(text, R, True)

    @given(spaced_expressions(R), st.data())
    @settings(max_examples=200)
    def test_stray_character_reported_at_its_offset(self, case, data):
        _, spaced = case
        i = data.draw(st.sampled_from(_boundaries(spaced)))
        with pytest.raises(ParseError) as err:
            parse_mixed_text(spaced[:i] + "$" + spaced[i:], R, True)
        assert str(err.value) == f"unexpected character '$' (at position {i})"
        assert err.value.position == i

    @given(spaced_expressions(R), st.data())
    @settings(max_examples=200)
    def test_unknown_name_reported_at_its_offset(self, case, data):
        # "w*" goes in where a factor may start: after the start, "(", "*"
        # or a sign, and before a name, a number or "(".  The text before
        # it parses, so the name is the first error the parser meets.
        _, spaced = case
        starts = [
            i for i in _boundaries(spaced)
            if spaced[:i].rstrip()[-1:] in ("", "(", "*", "+", "-")
            and re.match(r"\s*[\w(]", spaced[i:])
        ]
        i = data.draw(st.sampled_from(starts))
        with pytest.raises(ParseError) as err:
            parse_mixed_text(spaced[:i] + "w*" + spaced[i:], R, True)
        assert str(err.value) == f"unknown variable 'w' (at position {i})"
        assert err.value.position == i

    def test_trailing_whitespace_is_scanned_in_linear_time(self):
        start = time.perf_counter()
        parsed = parse_mixed_text("x*dy" + " \t" * 20000, R, True)
        assert time.perf_counter() - start < 2
        assert parsed == parse_mixed_text("x*dy", R, True)


class TestParseSign:
    def test_every_word_of_up_to_four_differentials(self):
        # The parser wedges the differentials of a term in order: the sign
        # of 2*dw_1*...*dw_k is the parity of the word's inversions, counted
        # here without the wedge code, and a repeated differential gives 0.
        names = R4.variables
        words = [w for k in range(5) for w in product(range(4), repeat=k)]
        assert len(words) == 341
        for word in words:
            text = "*".join(["2", *("d" + names[i] for i in word)])
            got = parse_mixed_text(text, R4, True)
            if len(set(word)) < len(word):
                assert got == {}, text
                continue
            inversions = sum(1 for a, b in combinations(word, 2) if a > b)
            assert got == {tuple(sorted(word)): {0: 2 * (-1) ** inversions}}, text


class TestWedgeTable:
    def test_every_pair_of_increasing_tuples_up_to_five(self, monkeypatch):
        # Two passes from an empty table: the first fills it, the second
        # reads it; both must give the shuffle sign and the sorted union.
        monkeypatch.setattr(_expr, "_WEDGE", {})
        tuples = [t for k in range(6) for t in combinations(range(5), k)]
        ring = PolynomialRing(["a", "b", "c", "d", "e"])
        p, q = {ring.pack((1, 0, 0, 0, 0)): 2}, {ring.pack((0, 0, 0, 0, 3)): Fraction(1, 3)}
        for _ in range(2):
            for s in tuples:
                for t in tuples:
                    got = mixed_mul({s: p}, {t: q}, ring.limit)
                    if set(s) & set(t):
                        assert got == {}
                        continue
                    u = s + t
                    inversions = sum(1 for i, j in combinations(range(len(u)), 2) if u[i] > u[j])
                    coeff = Fraction(2, 3) * (-1) ** inversions
                    assert got == {tuple(sorted(u)): {ring.pack((1, 0, 0, 0, 3)): coeff}}
        assert len(_expr._WEDGE) == len(tuples) ** 2


class TestWedge:
    def test_conormality_witness_of_isolated_singularity(self):
        # by hand: (x dy^dz + 3z dx^dy) ^ d(x^3 - yz) = 3(x^3 - yz) dx^dy^dz
        f = X**3 - Y * Z
        eta = wedge(form("x*dy*dz + 3*z*dx*dy"), exterior_derivative(f))
        assert volume_coefficient(eta) == 3 * f

    def test_conormality_witness_of_segre_cone(self):
        # (x dy - y dx)^dz^dt ^ d(xz - yt) = -(xz - yt) dx^dy^dz^dt
        x, y, z, t = R4.gens()
        f = x * z - y * t
        eta = wedge(form("(x*dy - y*dx)*dz*dt", R4), exterior_derivative(f))
        assert volume_coefficient(eta) == -f

    def test_square_of_one_form_vanishes(self):
        dx = form("dx")
        assert not wedge(dx, dx)

    def test_degree_zero_acts_by_multiplication(self):
        w = form("x*dy*dz + 3*z*dx*dy")
        assert wedge(X, w) == w.scale(X)
        assert wedge(X, Y) == X * Y

    def test_overfull_degree_is_zero_form(self):
        w = form("x*dy*dz + 3*z*dx*dy")
        top = wedge(w, w)
        assert top.degree == 4 and not top

    @given(forms(R, 1), forms(R, 1))
    def test_anticommutativity_degree_one(self, a, b):
        assert wedge(a, b) == -wedge(b, a)

    @given(forms(R, 1), forms(R, 2))
    def test_commutativity_odd_even(self, a, b):
        assert wedge(a, b) == wedge(b, a)

    @given(forms(R, 1), forms(R, 1), forms(R, 1))
    @settings(max_examples=20)
    def test_associativity(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def _snapshot(w) -> list:
    # Each raw coefficient of w: its term dict object and a copy of it.
    return [(idx, id(t), dict(t)) for idx, t in w._terms.items()]


class TestFormArithmetic:
    @given(forms(R, 2), forms(R, 2), polynomials(R, max_terms=3))
    @settings(max_examples=50)
    def test_operations_leave_their_operands_unchanged(self, a, b, p):
        # Sums add into term dicts in place; they must start from copies.
        before = _snapshot(a), _snapshot(b), dict(p._terms)
        results = [a + b, a - b, b - a, a - a, -a, a.scale(p), a.scale(-1)]
        assert (_snapshot(a), _snapshot(b), dict(p._terms)) == before
        assert not results[3]
        assert results[0] - b == a and results[4] == results[6]
        assert all(c for r in results for _, c in r.coefficients())


class TestRawRepresentation:
    """A form keeps its raw mixed form ``{index tuple: term dict}``; a
    coefficient becomes a Polynomial only when it is read, and a term dict
    that a form shares with a polynomial is never changed."""

    def test_polynomials_are_made_only_when_a_coefficient_is_read(self, monkeypatch):
        germ = Germ(R, [Z**2 - X * Y**2])
        omega, f, xy = form("y^2*dx + 2*x*y*dy - 2*z*dz"), X**2 * Y - Z, X * Y
        assert is_trivial_form(omega, germ)  # builds and keeps the degree-1 module
        built = count_polynomials(monkeypatch)
        a = DifferentialForm(R, 1, {(2,): Z, (0,): xy})
        b = wedge(a, form("z*dy - dx"))
        db, dd = exterior_derivative(b), exterior_derivative(exterior_derivative(wedge(f, a)))
        df = exterior_derivative(f)
        parts = parse_form("x*dy*dz - (y + 1/2)*dx*dz + dx", R)
        assert built == []
        assert [idx for idx, _ in a.coefficients()] == [(0,), (2,)]
        assert len(built) == 2
        assert len(b.coefficients()) + len(df.coefficients()) == len(built) - 2 == 6
        assert db == form("x*y*dx*dy*dz") and not dd and len(parts) == 2
        del built[:]
        assert is_trivial_form(omega, germ)
        assert [p.ring for p in built] == [_trivial_module(germ, 1)[1].position_ring]

    def test_shared_term_dicts_are_never_changed(self):
        germ = Germ(R, [Z**2 - X * Y**2])
        field = VectorField(R, [X * Y, R.zero, Z + 1])
        w = form("x*dy - z*dx + y*dz")
        read = [c for _, c in w.coefficients()]
        shared = [*trivial_form_generators(germ, 1), *trivial_form_generators(germ, 2),
                  vector_field_to_form(field), w]
        sources = [germ.generators[0], *field.components, *read]
        holders = {id(t) for x in shared for t in x._terms.values()}
        assert {id(p._terms) for p in sources if p} <= holders
        before = [dict(p._terms) for p in sources]
        images = [X + Y, Y * Z, Z]
        for x in shared:
            for y in shared:
                wedge(x, y)
                if x.degree == y.degree:
                    x + y, x - y, y + x
            exterior_derivative(x), pullback(x, images), x.scale(X), -x
            wedge(read[0], x), wedge(x, read[1])
        assert [dict(p._terms) for p in sources] == before


class TestExteriorDerivative:
    def test_derivative_of_function(self):
        f = X**3 - Y * Z
        assert exterior_derivative(f) == form("3*x^2*dx - z*dy - y*dz")

    def test_derivative_of_function_is_its_partials(self, monkeypatch):
        # d of a polynomial takes no wedge product with the unit form.
        calls = []
        monkeypatch.setattr(forms_module, "mixed_mul", lambda *a: calls.append(a))
        f = X**3 - Y * Z
        assert exterior_derivative(f) == DifferentialForm(
            R, 1, {(i,): partial_derivative(f, i) for i in range(3)}
        )
        assert not calls

    def test_derivative_of_constant(self):
        assert not exterior_derivative(R.const(5))

    def test_single_term(self):
        assert exterior_derivative(form("x*dy")) == form("dx*dy")

    @given(forms(R, 1))
    def test_dd_zero_degree_one(self, w):
        assert not exterior_derivative(exterior_derivative(w))

    @given(polynomials(R))
    def test_dd_zero_degree_zero(self, p):
        assert not exterior_derivative(exterior_derivative(p))

    @given(polynomials(R, max_terms=3), forms(R, 1))
    @settings(max_examples=20)
    def test_graded_leibniz(self, p, w):
        # degree 0 against degree 1
        assert exterior_derivative(wedge(p, w)) == wedge(exterior_derivative(p), w) + wedge(
            p, exterior_derivative(w)
        )

    @given(forms(R, 1), forms(R, 1))
    @settings(max_examples=20)
    def test_graded_leibniz_one_one(self, a, b):
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) - wedge(a, exterior_derivative(b))
        assert lhs == rhs


class TestEvaluateForm:
    def test_vanishes_along_singular_axis(self):
        w = form("y*z*dx + 2*x*z*dy - 2*x*y*dz")
        assert not evaluate_form(w, [5, 0, 0])

    def test_constant_coefficients(self):
        dx = form("dx")
        assert evaluate_form(dx, [9, 9, 9]) == dx

    def test_at_origin(self):
        assert not evaluate_form(form("x*dy"), [0, 0, 0])

    @given(forms(R, 1), forms(R, 1))
    @settings(max_examples=20)
    def test_evaluation_is_multiplicative(self, a, b):
        point = [Fraction(1, 2), Fraction(-1), Fraction(2)]
        assert evaluate_form(wedge(a, b), point) == wedge(
            evaluate_form(a, point), evaluate_form(b, point)
        )


class TestVectorFieldMap:
    def test_sign_rule(self):
        w = form("y*dx*dz - z*dx*dy")
        v = form_to_vector_field(w)
        assert v.components == (R.zero, -Y, -Z)
        f = Z**2 - X * Y**2
        assert v.contract(exterior_derivative(f)) == -2 * f

    def test_unit_case(self):
        w = DifferentialForm(R4, 3, {(0, 1, 2): R4.one})
        v = form_to_vector_field(w)
        assert v.components == (R4.zero, R4.zero, R4.zero, R4.one)

    def test_roundtrip(self):
        # In one variable an (n-1)-form is a bare polynomial.
        rng = random.Random(7)
        for ring in (R, R1):
            for _ in range(20):
                w = random_form(rng, ring, ring.nvars - 1)
                assert vector_field_to_form(form_to_vector_field(w)) == w

    def test_defining_identity(self):
        rng = random.Random(11)
        for ring in (R, R4, R1):
            for _ in range(25):
                w = random_form(rng, ring, ring.nvars - 1)
                g = random_polynomial(rng, ring, max_terms=3, max_degree=3)
                v = form_to_vector_field(w)
                dg = exterior_derivative(g)
                assert volume_coefficient(wedge(w, dg)) == v.contract(dg)

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            form_to_vector_field(form("dx"))


class TestRadialPotential:
    def test_recovers_polynomial(self):
        h = X**4 - X * Y * Z
        assert radial_potential(exterior_derivative(h)) == h

    def test_dx_integrates_to_x(self):
        assert radial_potential(form("dx")) == X

    def test_not_closed(self):
        with pytest.raises(NotClosedError):
            radial_potential(form("y*dx - x*dy"))

    @given(polynomials(R, max_terms=4, max_degree=4))
    def test_potential_inverts_d_on_functions_vanishing_at_zero(self, h):
        h = h - h.constant_coefficient()
        assert radial_potential(exterior_derivative(h)) == h


class TestHyperplane:
    def test_canonicalization(self):
        h = Hyperplane(R, [Fraction(-1, 2), 1, 0])
        assert h.normal == (1, -2, 0)
        assert h.linear_form() == X - 2 * Y
        assert all(type(c) is int for c in h.linear_form().terms.values())

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Hyperplane(R, [0, 0, 0])


class TestSmallMethods:
    """The display methods, comparisons and operator fallbacks of forms,
    vector fields and hyperplanes, each with its exact value or exception."""

    @pytest.mark.parametrize("make, want", [
        (lambda: str(form("x*dy - 2*dz")), "x*dy - 2*dz"),
        (lambda: repr(form("x*dy - 2*dz")), "<x*dy - 2*dz over (x, y, z)>"),
        (lambda: form("dx") + 1,
         TypeError("unsupported operand type(s) for +: 'DifferentialForm' and 'int'")),
        (lambda: form("x*dy - z*dz") == form("y*dy - z*dz"), False),
        (lambda: evaluate_form(X**2 * Y - Z, [2, 3, Fraction(1, 2)]), Fraction(23, 2)),
        (lambda: bool(VectorField(R, [R.zero, R.zero, R.zero])), False),
        (lambda: bool(VectorField(R, [R.zero, Y, R.zero])), True),
        (lambda: VectorField(R, [X, Y, Z]) == VectorField(R, [X, Y, Z]), True),
        (lambda: VectorField(R, [X, Y, Z]) == VectorField(R, [X, Y, -Z]), False),
        (lambda: VectorField(R, [X, Y, Z]) == (X, Y, Z), False),
        (lambda: len({Hyperplane(R, [2, 4, 0]), Hyperplane(R, [-1, -2, 0])}), 1),
    ], ids=["form-str", "form-repr", "form-add-int", "form-unequal", "evaluate-polynomial",
            "field-zero", "field-nonzero", "field-equal", "field-unequal", "field-tuple",
            "hyperplane-hash"])
    def test_value(self, make, want):
        assert_outcome(make, want)


class TestInputChecks:
    """Each input check of the form constructors and maps refuses with its
    own message."""

    @pytest.mark.parametrize("make, message", [
        (lambda: DifferentialForm(R, 0, {}), "degree-0 forms are represented by bare polynomials"),
        (lambda: DifferentialForm(R, 1.0, {(0,): X}), "degree 1.0 is not an int"),
        (lambda: DifferentialForm(R, "1", {}), "degree '1' is not an int"),
        (lambda: DifferentialForm(R, 1, {(3,): X}), r"index tuple \(3,\) out of range"),
        (lambda: form("dx") + form("dx*dy"), "cannot add forms of different degrees"),
        (lambda: pullback(DifferentialForm(R, 1, {}), [X, Y]), "one image per variable required"),
        (lambda: pullback(form("dz"), []), "one image per variable required"),
        (lambda: VectorField(R, [X, Y]), "one component per ring variable required"),
        (lambda: VectorField(R, [X, Y, Z]).contract(form("dx*dy")),
         "a vector field contracts with a 1-form"),
        (lambda: VectorField(R, [X, Y, Z]).contract(X), "a vector field contracts with a 1-form"),
        (lambda: volume_coefficient(form("dx*dy")), "volume coefficient needs a top-degree form"),
        (lambda: radial_potential(form("dx*dy")), "the radial potential is defined for 1-forms"),
        (lambda: evaluate_form(DifferentialForm(R, 1, {}), (0,)),
         "point has 1 coordinates, ring has 3"),
        (lambda: evaluate_form(form("x*dy"), (0,)), "point has 1 coordinates, ring has 3"),
        (lambda: Hyperplane(R, [1, 2]), "one normal coordinate per ring variable required"),
        # dy ^ dx is -dx ^ dy, so (1, 0) must not read as a zero coefficient
        (lambda: form("x*dx*dy").coefficient((1, 0)),
         r"index tuple \(1, 0\) is not 2 strictly increasing integers"),
        (lambda: form("x*dx*dy").coefficient((5,)),
         r"index tuple \(5,\) is not 2 strictly increasing integers"),
        (lambda: form("x*dx*dy").coefficient((0, 5)), r"index tuple \(0, 5\) out of range"),
        (lambda: DifferentialForm(R, 1, {}).coefficient((0, 1)),
         r"index tuple \(0, 1\) is not 1 strictly increasing integers"),
    ], ids=["degree", "degree-float", "degree-str", "index", "add", "pullback",
            "pullback-no-image", "vector-field", "contract", "contract-polynomial", "volume",
            "radial", "evaluate-zero-form", "evaluate", "hyperplane", "coefficient-unsorted",
            "coefficient-length", "coefficient-range", "coefficient-zero-form"])
    def test_refuses_with_its_message(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()
