"""Polynomial arithmetic, parsing, printing, derivatives, evaluation."""

import signal
import sys
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conormal import ParseError
from conormal._expr import _accumulate, parse_mixed_text
from conormal.forms import Hyperplane, exterior_derivative, radial_potential
from conormal.geometry import hyperplane_section
from conormal.germs import Germ
from conormal.groebner import buchberger, reduce
from conormal.poly import (
    GREVLEX,
    LEX,
    MAX_DEGREE,
    MAX_POWER_BITS,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    _add_into,
    _div,
    block_order,
    evaluate,
    parse_polynomial,
    partial_derivative,
)

from strategies import (
    assert_exact,
    assert_outcome,
    coefficients,
    monomials,
    nonzero_polynomials,
    polynomials,
    reference_substitute,
)

R = PolynomialRing(["x", "y", "z"])
X, Y, Z = R.gens()


class TestParse:
    def test_two_term_surface_equation(self):
        p = parse_polynomial("z^2 - x*y^2", R)
        assert p == Z**2 - X * Y**2
        assert len(p.terms) == 2

    def test_zero(self):
        p = parse_polynomial("0", R)
        assert not p
        assert p.total_degree() == -1

    def test_square_expansion(self):
        # hand oracle: (x+y)^2 = x^2 + 2xy + y^2
        assert parse_polynomial("(x+y)^2", R) == X**2 + 2 * X * Y + Y**2

    def test_rational_literal(self):
        assert parse_polynomial("3/4*x", R) == X.scale(Fraction(3, 4))

    def test_unknown_variable_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + w", R)
        assert err.value.position == 4

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_polynomial("x + * y", R)
        with pytest.raises(ParseError):
            parse_polynomial("x ^ y", R)
        with pytest.raises(ParseError):
            parse_polynomial("(x + y", R)

    def test_differential_rejected_in_polynomial_context(self):
        with pytest.raises(ParseError):
            parse_polynomial("x*dy", R)

    @pytest.mark.parametrize(
        "text, position", [("x^4/2", 2), ("x^2/1", 2), ("(x+y)^6/3", 6), ("x^4 / 2", 2)]
    )
    def test_rational_exponent_rejected(self, text, position):
        # The tokenizer reads 4/2 as one literal; it must not become x^2.
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, R)
        assert str(err.value) == f"exponent must be a positive integer (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, differentials, message, position",
        [
            ("x + $y", False, "unexpected character '$'", 4),
            ("x + 1 / 0", False, "zero denominator", 4),
            ("x + w", False, "unknown variable 'w'", 4),
            ("x*dy", False, "differential 'dy' is not allowed in a polynomial expression", 2),
            ("(x*dy)^2", True, "'^' applies only to polynomial factors", 7),
            ("x^0", False, "exponent must be a positive integer", 2),
            ("x y", False, "unexpected trailing input 'y'", 2),
            ("x 3 / 6", False, "unexpected trailing input 3 / 6", 2),
            ("(x + y", False, "expected ')'", 6),
            ("x +", False, "unexpected end of input", 3),
            ("x + * y", False, "unexpected token '*'", 4),
        ],
    )
    def test_error_message_and_position(self, text, differentials, message, position):
        with pytest.raises(ParseError) as err:
            parse_mixed_text(text, R, differentials)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, message, position",
        [
            # A stray character or a zero denominator anywhere in the text
            # is reported before an earlier syntax error.
            ("x + * y $", "unexpected character '$'", 8),
            ("(x + 1/0", "zero denominator", 5),
            # The end of input sits at len(text), past trailing whitespace.
            ("x + ", "unexpected end of input", 4),
            ("(x + y  ", "expected ')'", 8),
        ],
    )
    def test_error_precedence_and_position(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_mixed_text(text, R, True)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_roundtrip_canonical(self):
        for text in ["z^2 - x*y^2", "x^3 - y*z", "1/2*x - 7", "0", "-x + y - 1"]:
            p = parse_polynomial(text, R)
            assert parse_polynomial(str(p), R) == p
            assert str(parse_polynomial(str(p), R)) == str(p)


class TestHugeNumbers:
    """Number tokens are read and printed whatever Python's int-to-string
    limit (4300 digits by default) is; a literal, an exponent or a
    denominator past ``MAX_POWER_BITS`` bits is a :class:`ParseError` at its
    token."""

    REPUNIT = (10**5000 - 1) // 9  # 5000 ones

    def test_long_literal_parses_to_its_value(self):
        assert parse_polynomial("1" * 5000 + "*x", R) == self.REPUNIT * X
        assert parse_polynomial("x + 1/" + "1" * 5000, R) == X + Fraction(1, self.REPUNIT)

    @pytest.mark.parametrize("limit", [640, 0])
    def test_results_do_not_depend_on_the_int_string_limit(self, limit):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            p = parse_polynomial("1" * 5000 + "*x", R)
            text = str(p)
        finally:
            sys.set_int_max_str_digits(previous)
        assert p == self.REPUNIT * X and text == "1" * 5000 + "*x"

    @pytest.mark.parametrize("text, position", [
        ("x + " + "1" * 20000, 4),
        ("x^" + "1" * 20000, 2),
        ("x + 1/" + "1" * 20000, 4),
    ], ids=["literal", "exponent", "denominator"])
    def test_number_past_the_bit_limit_is_refused_at_its_token(self, text, position):
        with under_a_second(), pytest.raises(ParseError, match="past the limit") as err:
            parse_polynomial(text, R)
        assert err.value.position == position

    def test_bit_limit_is_exact(self):
        # 2^MAX_POWER_BITS - 1 and 2^MAX_POWER_BITS have the same number of
        # digits, and only the second has more than MAX_POWER_BITS bits.
        with localcontext() as context:
            context.prec = 20000
            within, past = (str(Decimal(2) ** MAX_POWER_BITS - d) for d in (1, 0))
        assert parse_polynomial(within, R) == 2**MAX_POWER_BITS - 1
        with pytest.raises(ParseError, match="past the limit") as err:
            parse_polynomial("x + " + past, R)
        assert err.value.position == 4

    def test_long_exponent_is_a_degree_error_at_its_name(self):
        with pytest.raises(ParseError, match="past the limit") as err:
            parse_polynomial("y*x^" + "1" * 5000, R)
        degree = "1" * 4999 + "2"  # of y*x^k: the repunit k plus 1
        assert str(err.value) == f"total degree {degree} is past the limit {MAX_DEGREE} (at position 2)"

    @pytest.mark.parametrize("c", [2**60000, -(2**60000), Fraction(1, 3**12000)],
                             ids=["2^60000", "-2^60000", "1/3^12000"])
    def test_huge_coefficient_prints_and_parses_back(self, c):
        p = c * X - Y
        assert parse_polynomial(str(p), R) == p


class TestDerivative:
    def test_power_rule(self):
        assert partial_derivative(X**3 - Y * Z, 0) == 3 * X**2
        assert partial_derivative(Z**2 - X * Y**2, 2) == 2 * Z

    def test_constant(self):
        assert not partial_derivative(R.const(7), 0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            partial_derivative(X, 3)


class TestEvaluate:
    def test_point_on_surface(self):
        assert evaluate(Z**2 - X * Y**2, [1, 1, 1]) == 0

    def test_origin(self):
        assert evaluate(X**3 - Y * Z, [0, 0, 0]) == 0

    def test_generic_point(self):
        assert evaluate(X**3 - Y * Z, (1, 1, 2)) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(X, [1, 2])


class TestRingAxioms:
    @given(polynomials(R), polynomials(R), polynomials(R))
    def test_add_mul_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert not (p - p)

    @given(polynomials(R), polynomials(R))
    def test_evaluate_is_ring_homomorphism(self, p, q):
        point = [Fraction(1, 2), Fraction(-2), Fraction(3)]
        assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
        assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)

    @given(polynomials(R))
    def test_partials_commute(self, p):
        for i in range(3):
            for j in range(i):
                assert partial_derivative(partial_derivative(p, i), j) == partial_derivative(
                    partial_derivative(p, j), i
                )

    @given(polynomials(R), polynomials(R), st.integers(0, 2))
    def test_leibniz(self, p, q, i):
        assert partial_derivative(p * q, i) == partial_derivative(p, i) * q + p * partial_derivative(q, i)

    @given(polynomials(R))
    def test_print_parse_stability(self, p):
        assert str(parse_polynomial(str(p), R)) == str(p)


S = PolynomialRing(["u", "v"])
U, V = S.gens()


class TestSubstitute:
    @given(polynomials(R), polynomials(R), st.lists(polynomials(S, 3, 2), min_size=3, max_size=3))
    def test_ring_map(self, p, q, images):
        sub = p.substitute(S, images)
        assert sub == reference_substitute(p, S, images)
        assert (p * q).substitute(S, images) == sub * q.substitute(S, images)
        assert (p + q).substitute(S, images) == sub + q.substitute(S, images)
        point = [Fraction(1, 2), Fraction(-3)]
        assert evaluate(sub, point) == evaluate(p, [evaluate(g, point) for g in images])
        assert_exact(sub, normalized=True)

    @pytest.mark.parametrize(
        "p, images, expected",
        [
            # A rational one-term image: 1/2 * (2*u) is the int 1 times u.
            (Fraction(1, 2) * X, [2 * U, V, U], U),
            (X * Y**2, [Fraction(1, 2) * U, 2 * V, U], 2 * U * V**2),
            (Fraction(3, 2) * X**2 * Z, [Fraction(2, 3) * U * V, V, Fraction(3, 2) * U], U**3 * V**2),
            # The zero polynomial, and a zero image.
            (R.zero, [U, V, U + V], S.zero),
            (R.zero, [Fraction(1, 3) * U + V, S.zero, S.zero], S.zero),
            (X + Y * Z, [U, S.zero, V], U),
            # A rational image of two terms, raised as its integer multiple:
            # the v^2 terms 1/4 and 3/4 add up to the int 1.
            (
                X**2 + Z,
                [Fraction(1, 2) * (U + V), V, Fraction(3, 4) * V**2],
                Fraction(1, 4) * U**2 + Fraction(1, 2) * U * V + V**2,
            ),
        ],
    )
    def test_exact_and_normalized(self, p, images, expected):
        sub = p.substitute(S, images)
        assert sub == reference_substitute(p, S, images) == expected
        assert_exact(sub, normalized=True)

    def test_degree_limit_through_one_term_images(self):
        # A one-term image moves the word without a product, and the limit
        # still holds.
        assert (X * Y).substitute(S, [U ** (MAX_DEGREE - 1), U, V]) == U**MAX_DEGREE
        for p, images in [(X**200, [U**200, V, U]), (X**2 * Y, [U ** (MAX_DEGREE - 1), U**2, V])]:
            with pytest.raises(ValueError, match="past the limit"):
                p.substitute(S, images)

    def test_image_from_another_ring_raises(self):
        # x^2 does not involve y, but y's image must still live in the target.
        ring = PolynomialRing(["x", "y"])
        target = PolynomialRing(["u"])
        other = PolynomialRing(["a", "b", "c"])
        p = parse_polynomial("x^2", ring)
        with pytest.raises(ValueError):
            p.substitute(target, [target.var(0), other.var(2)])
        with pytest.raises(ValueError):
            p.substitute(target, [other.var(0), other.var(1)])
        with pytest.raises(ValueError):
            p.substitute(target, [target.var(0)])
        assert p.substitute(target, [target.var(0), target.zero]) == parse_polynomial("u^2", target)


class TestCoefficientTypes:
    @given(polynomials(R), nonzero_polynomials(R, max_degree=2), coefficients())
    def test_never_a_float(self, p, q, c):
        assert_exact(p, True)  # Polynomial(R, terms) with Fraction coefficients
        assert_exact(p.scale(c), True)
        assert_exact(p.scale(Fraction(4, 2)), True)
        assert_exact(parse_polynomial(str(p), R), True)
        for result in (p + q, p - q, p * q, reduce(p, [q], GREVLEX)):
            assert_exact(result)
        for g in buchberger([q, p + X * q], GREVLEX):
            assert_exact(g)
        assert_exact(radial_potential(exterior_derivative(p)))

    @given(nonzero_polynomials(R), coefficients(), st.sampled_from([GREVLEX, LEX, block_order(1)]))
    def test_divisor_record_is_the_primitive_integer_associate(self, p, c, order):
        # Integer coefficients with gcd 1 and a positive lead, a multiple of
        # p, and the same for every nonzero multiple of p.
        lm, a, tail, reach = p.divisor(order)
        coeffs = [a] + [v for _, v in tail]
        assert all(type(v) is int for v in coeffs) and a > 0 and gcd(*coeffs) == 1
        assert lm == max(p._terms, key=order.key(R))
        assert reach == max([m for m, _ in tail], default=0)
        associate = p.primitive(order)
        assert associate.scale(Fraction(p.leading(order)[1], a)) == p
        assert associate.primitive(order) is associate
        assert p.scale(c).divisor(order) == p.divisor(order)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: R.const(0.1),
            lambda: X.scale(0.1),
            lambda: Polynomial(R, {(1, 0, 0): 0.1}),
            lambda: Hyperplane(R, [0.1, 0.3, 0]),
            lambda: evaluate(X, [0.5, 0, 0]),
        ],
        ids=["const", "scale", "Polynomial", "Hyperplane", "evaluate"],
    )
    def test_float_raises_like_multiplication(self, entry):
        # 0.1 is stored in binary as 3602879701896397/36028797018963968;
        # an exact library must refuse it, not keep that value.
        with pytest.raises(TypeError):
            X * 0.1
        with pytest.raises(TypeError):
            entry()

    def test_parser_normalizes_integral_results(self):
        p = parse_polynomial("2*1/2*x + 1/3*y + 2/3*y + 4/2", R)
        assert p == X + Y + 2
        assert_exact(p, True)

    @given(
        nonzero_polynomials(R, max_degree=3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any),
    )
    def test_hyperplane_section_never_a_float(self, f, normal):
        f = f - f.constant_coefficient()
        assume(f)
        germ = Germ(R, [f])
        try:
            section = hyperplane_section(germ, Hyperplane(R, normal))
        except ValueError:
            assume(False)  # the hyperplane lies in the germ
        assert_exact(section.generators[0])


class TestSupportMask:
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[monomials(n)] * 3)))
    def test_mask_facts(self, abc):
        # The support facts the Groebner code relies on, on packed words:
        # divisibility keeps the support, the lcm's support is the union,
        # and the lcm is the product exactly when the supports are disjoint.
        a, b, c = abc
        ring = PolynomialRing([f"x{i}" for i in range(len(a))])

        def mask(word):
            return sum(1 << i for i, e in enumerate(ring.unpack(word)) if e)

        wa, wb, wc = ring.pack(a), ring.pack(b), ring.pack(c)
        ma, mb = mask(wa), mask(wb)
        assert ma == sum(1 << i for i, e in enumerate(a) if e)
        for u, v in ((wa, wb), (wa, wa + wc)):  # the second pair divides
            if ring.divides(u, v):
                assert mask(u) & ~mask(v) == 0
        assert ring.divides(wa, wa + wc)
        lcm = ring.lcm(wa, wb)
        assert mask(lcm) == ma | mb
        assert (lcm == wa + wb) == (ma & mb == 0)


def key(order, exps, ring=R):
    """The order's key of the word of an exponent tuple."""
    return order.key(ring)(ring.pack(exps))


class TestOrders:
    def test_grevlex_examples(self):
        # x > y > z, and degree dominates
        assert key(GREVLEX, (1, 0, 0)) > key(GREVLEX, (0, 1, 0)) > key(GREVLEX, (0, 0, 1))
        assert key(GREVLEX, (0, 3, 0)) > key(GREVLEX, (2, 0, 0))
        # classic grevlex tie-break: x*y^3 > x^2*y*z
        assert key(GREVLEX, (1, 3, 0)) > key(GREVLEX, (2, 1, 1))

    def test_lex_examples(self):
        assert key(LEX, (1, 0, 0)) > key(LEX, (0, 9, 9))

    def test_block_order_elimination_property(self):
        order = block_order(1)
        # any monomial containing the first variable beats any without it
        assert key(order, (1, 0, 0)) > key(order, (0, 9, 9))
        assert key(order, (0, 1, 0)) > key(order, (0, 0, 1))

    def test_one_is_minimal(self):
        one = (0, 0, 0)
        for order in (LEX, GREVLEX, block_order(1)):
            for m in [(1, 0, 0), (0, 1, 0), (2, 1, 3)]:
                assert key(order, m) > key(order, one)


def reference_key(kind, split, e):
    # The order keys by their definitions, with grevlex written out.
    def grevlex(f):
        return (sum(f), tuple(-x for x in reversed(f)))

    if kind == "lex":
        return e
    if kind == "grevlex":
        return grevlex(e)
    if kind == "top":
        return (grevlex(e[split:]), e[:split])
    if kind == "pot":
        return (e[:split], grevlex(e[split:]))
    return (grevlex(e[:split]), grevlex(e[split:]))


@st.composite
def module_terms(draw, split, nvars):
    """Exponent tuples of module terms x^a*e_i: one of the first ``split``
    fields, the position, is 1, the others 0, and the rest are free."""
    position = draw(st.integers(0, split - 1))
    return tuple(int(i == position) for i in range(split)) + draw(monomials(nvars - split))


@st.composite
def order_cases(draw):
    """(kind, split, distinct exponent tuples of 4 variables).  ``top`` and
    ``pot`` are defined on module terms, so their split is at least 1 and
    their tuples are module terms; the other kinds take any monomials."""
    kind = draw(st.sampled_from(["lex", "grevlex", "block", "top", "pot"]))
    module = kind in ("top", "pot")
    split = draw(st.integers(1 if module else 0, 4))
    terms = module_terms(split, 4) if module else monomials(4)
    return kind, split, draw(st.lists(terms, min_size=2, max_size=12, unique=True))


def scalars():
    return st.integers(-50, 50) | st.fractions(min_value=-20, max_value=20, max_denominator=12)


def term_dicts():
    # Few words and small coefficients, so that sums often cancel.
    coefficient = st.integers(-2, 2).filter(bool) | coefficients()
    return st.dictionaries(st.integers(0, 5), coefficient, max_size=5)


def reference_sum(a: dict, b: dict, sign: int) -> dict:
    """a + sign*b as a term dict without zero coefficients."""
    return {m: s for m in a.keys() | b.keys() if (s := a.get(m, 0) + sign * b.get(m, 0))}


class TestKernels:
    """The hot-path kernels equal their definitions."""

    @given(term_dicts(), term_dicts(), st.booleans())
    def test_add_into_is_the_sum(self, out, terms, negate):
        sign = -1 if negate else 1
        expected, before = reference_sum(out, terms, sign), dict(terms)
        assert _add_into(out, terms, negate) is out
        assert out == expected and terms == before
        # The first insert into an empty dict copies terms: adding into the
        # result again, here or through _accumulate, leaves terms unchanged.
        fresh = _add_into({}, terms, negate)
        _add_into(fresh, terms, not negate)
        mixed: dict = {}
        _accumulate(mixed, (), terms, negate)
        _accumulate(mixed, (), terms, not negate)
        assert terms == before and fresh == {} and mixed == {}

    @given(polynomials(R), polynomials(R))
    def test_sums_leave_their_operands_unchanged(self, p, q):
        # Polynomial sums add into a copy of the first operand's terms.
        before = dict(p._terms), dict(q._terms)
        results = [p + q, p - q, q - p, p - p, q + p]
        assert (dict(p._terms), dict(q._terms)) == before
        assert not any(r._terms is t for r in results for t in (p._terms, q._terms))
        assert results[0]._terms == reference_sum(p._terms, q._terms, 1)
        assert results[1]._terms == reference_sum(p._terms, q._terms, -1)

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(*[monomials(n, MAX_DEGREE // 14)] * 2)))
    def test_monomial_helpers(self, ab):
        # The word kernels against their definitions on exponent tuples, up
        # to exponents whose sum nears the degree limit in 7 variables.
        a, b = ab
        ring = PolynomialRing([f"x{i}" for i in range(len(a))])
        wa, wb = ring.pack(a), ring.pack(b)
        assert ring.unpack(wa) == a and ring.degree(wa) == sum(a)
        assert ring.unpack(wa + wb) == tuple(x + y for x, y in zip(a, b))
        assert ring.pack(tuple(map(max, a, b))) == ring.lcm(wa, wb)
        assert ring.divides(wa, wb) == all(x <= y for x, y in zip(a, b))
        assert ring.divides(wa, wa + wb) and ring.divides(wb, wa + wb)
        assert ring.unpack(wa + wb - wb) == a
        if ring.divides(wa, wb):
            assert ring.unpack(wb - wa) == tuple(y - x for x, y in zip(a, b))
        coprime = not any(x and y for x, y in zip(a, b))
        assert (ring.lcm(wa, wb) == wa + wb) == coprime

    @given(polynomials(R))
    def test_terms_round_trip(self, p):
        assert Polynomial(R, p.terms) == p

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_largest_degree_accepted_and_one_more_refused(self, n):
        ring = PolynomialRing([f"x{i}" for i in range(n)])
        x, last = ring.var(0), ring.var(n - 1)
        top = (0,) * (n - 1) + (MAX_DEGREE,)
        p = Polynomial(ring, {top: 1})
        assert p.total_degree() == MAX_DEGREE
        assert parse_polynomial(f"x{n - 1}^{MAX_DEGREE}", ring) == p == last ** MAX_DEGREE
        assert ring.unpack(next(iter(p._terms))) == top
        with pytest.raises(ValueError, match="limit"):
            Polynomial(ring, {(0,) * (n - 1) + (MAX_DEGREE + 1,): 1})
        with pytest.raises(ParseError, match="limit"):
            parse_polynomial(f"x{n - 1}^{MAX_DEGREE + 1}", ring)
        with pytest.raises(ParseError, match="limit"):
            parse_polynomial(f"x0*(x{n - 1}^{MAX_DEGREE} + 1)", ring)
        with pytest.raises(ValueError, match="limit"):
            p * x
        # Under lex a division step can raise the degree: x0 -> x_last^2.
        f = x * last ** (MAX_DEGREE - 1)
        assert reduce(f, [x - last], LEX) == p
        with pytest.raises(ValueError, match="limit"):
            reduce(f, [x - last**2], LEX)

    @given(scalars(), scalars().filter(bool))
    def test_div_is_the_normalized_quotient(self, a, b):
        q = Fraction(a) / b
        assert _div(a, b) == q
        assert type(_div(a, b)) is (int if q.denominator == 1 else Fraction)

    @pytest.mark.parametrize(
        "a, b, q", [(6, -2, -3), (-7, 2, Fraction(-7, 2)), (7, -2, Fraction(-7, 2)), (0, -3, 0)]
    )
    def test_div_signs_and_zero_numerator(self, a, b, q):
        assert _div(a, b) == q
        assert type(_div(a, b)) is type(q)

    @pytest.mark.parametrize("a", [0, 3, Fraction(1, 2)])
    def test_div_by_zero_raises(self, a):
        with pytest.raises(ZeroDivisionError):
            _div(a, 0)

    @given(order_cases())
    @settings(max_examples=300)
    def test_order_keys(self, case):
        # The word keys order every pair of the monomials as the
        # definitions do: both sorts agree, and distinct keys stay distinct.
        kind, split, exps = case
        ring = PolynomialRing(["a", "b", "c", "d"])
        key = MonomialOrder(kind, split).key(ring)
        by_words = sorted(exps, key=lambda e: key(ring.pack(e)))
        assert by_words == sorted(exps, key=lambda e: reference_key(kind, split, e))
        assert len({key(ring.pack(e)) for e in exps}) == len(exps)

    def test_orders_compare_by_identity(self):
        # An equal but distinct order keeps its own divisor records.
        other = MonomialOrder("grevlex")
        assert other != GREVLEX and other == other
        p = X**2 - Y * Z
        assert p.divisor(other) == p.divisor(GREVLEX)
        assert set(p._lead) == {other, GREVLEX}

    @given(polynomials(R), st.tuples(scalars(), scalars(), scalars()))
    def test_evaluate_is_int_when_integral(self, p, point):
        value = evaluate(p, point)
        exact = sum(
            (Fraction(c) * Fraction(point[0]) ** i * Fraction(point[1]) ** j * Fraction(point[2]) ** k
             for (i, j, k), c in p.terms.items()),
            Fraction(0),
        )
        assert value == exact
        assert type(value) is (int if exact.denominator == 1 else Fraction)


@contextmanager
def under_a_second():
    """Fail the block unless it ends within 1 s; stop it after 5 s."""

    def stop(*_):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 5)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1


class TestPowers:
    """One power kernel serves ``Polynomial.__pow__`` and the parser's
    ``(e)^k`` and ``c^k``: the degree of a power is checked before any
    product, and a constant is raised in one step, once the size of the
    result is checked against ``MAX_POWER_BITS``."""

    X1 = PolynomialRing(["x"])

    @pytest.mark.parametrize("text", ["(x+1)^40000", "(x)^40000"])
    def test_parsed_power_past_the_limit_raises_at_once(self, text):
        with under_a_second(), pytest.raises(ParseError, match="past the limit") as err:
            parse_polynomial(text, self.X1)
        assert err.value.position == text.index("^") + 1

    def test_power_past_the_limit_raises_at_once(self):
        x = self.X1.var(0)
        with under_a_second(), pytest.raises(ValueError, match="past the limit"):
            (x + 1) ** 40000
        with pytest.raises(ValueError, match="past the limit"):
            (x + 1) ** (MAX_DEGREE + 1)
        # The refusal prints a long negative base whole.
        literal = "9" * 700
        with pytest.raises(ParseError, match=rf"coefficient \(-{literal}\)\^200 of"):
            parse_polynomial(f"(-{literal})^200*x", self.X1)

    @pytest.mark.parametrize("text", ["7^10000000*x", "(7)^10000000"])
    def test_constant_power_past_the_bit_limit_raises_at_once(self, text):
        with under_a_second(), pytest.raises(ParseError, match="past the limit") as err:
            parse_polynomial(text, self.X1)
        assert err.value.position == text.index("^") + 1
        with under_a_second(), pytest.raises(ValueError, match="past the limit"):
            (7 * self.X1.one) ** 10**7

    def test_constant_powers_take_one_step(self):
        with under_a_second():
            assert parse_polynomial("(1)^1000000", self.X1) == 1
            assert parse_polynomial("(-1)^1000001", self.X1) == -1
            assert parse_polynomial("2^65536", self.X1) == 2**65536
            assert self.X1.one ** 10**6 == 1

    def test_small_powers(self):
        x = self.X1.var(0)
        assert parse_polynomial("(2)^3*x", self.X1) == 8 * x
        assert parse_polynomial("(0)^1", self.X1) == 0
        assert parse_polynomial("(1/2)^3", self.X1) == Fraction(1, 8)
        assert self.X1.zero ** 0 == 1 and self.X1.zero ** 3 == 0
        assert (x + 1) ** 0 == 1 and (x + 1) ** 1 == x + 1

    @given(polynomials(R), st.integers(0, 4))
    @settings(max_examples=50)
    def test_power_is_repeated_product(self, p, k):
        product = R.one
        for _ in range(k):
            product = product * p
        assert p**k == product
        if k:
            assert parse_polynomial(f"({p})^{k}", R) == product


class TestRing:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            PolynomialRing(["x", "x"])

    @pytest.mark.parametrize("names", [["x", "dx"], ["dx", "x"], ["x", "y", "dy"]])
    def test_differential_name_rejected(self, names):
        # dx beside x would print d(x) as "dx", which parses back as the variable.
        with pytest.raises(ValueError, match="differential"):
            PolynomialRing(names)

    @pytest.mark.parametrize("names", [["dx"], ["d", "x"], ["x", "ddx"]])
    def test_unambiguous_d_names_accepted(self, names):
        assert PolynomialRing(names).variables == tuple(names)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolynomialRing([])

    def test_ring_mismatch_raises(self):
        other = PolynomialRing(["a", "b"])
        with pytest.raises(ValueError):
            X + other.var(0)

    def test_degree_of_zero_is_minus_one(self):
        assert R.zero.total_degree() == -1
        assert R.one.total_degree() == 0


class TestSmallMethods:
    """The display methods of rings and orders and the operator fallbacks
    of polynomials, each with its exact value or exception."""

    @pytest.mark.parametrize("make, want", [
        (lambda: repr(R), "PolynomialRing(x, y, z)"),
        (lambda: str(GREVLEX), "grevlex"),
        (lambda: str(LEX), "lex"),
        (lambda: str(block_order(2)), "block(2)"),
        (lambda: str(MonomialOrder("top", 2)), "top(2)"),
        (lambda: X - "a", TypeError("unsupported operand type(s) for -: 'Polynomial' and 'str'")),
        (lambda: "a" - X, TypeError("unsupported operand type(s) for -: 'str' and 'Polynomial'")),
    ], ids=["ring-repr", "grevlex", "lex", "block", "top", "sub-str", "rsub-str"])
    def test_value(self, make, want):
        assert_outcome(make, want)


class TestInputChecks:
    """Each input check of the ring, its orders and its polynomials refuses
    with its own message."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: block_order(-1), ValueError, "block split must be non-negative"),
        (lambda: MonomialOrder("grlex"), ValueError,
         "unknown order 'grlex': use lex, grevlex, block, top or pot"),
        (lambda: PolynomialRing(["x", "1y"]), ValueError, "invalid variable name '1y'"),
        (lambda: R.pack((1, 2)), ValueError, r"bad exponent tuple \(1, 2\)"),
        (lambda: R.pack((1, -1, 0)), ValueError, r"bad exponent tuple \(1, -1, 0\)"),
        (lambda: R.var(3), ValueError, "variable index 3 out of range"),
        (lambda: X ** -1, ValueError, "polynomial powers must be non-negative integers"),
        (lambda: X + "a", TypeError, "unsupported operand"),
    ], ids=["block", "order-kind", "name", "pack-length", "pack-negative", "var", "power",
            "add-str"])
    def test_refuses_with_its_message(self, make, error, message):
        with pytest.raises(error, match=message):
            make()
