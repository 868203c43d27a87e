"""Hypothesis strategies and seeded random generators for algebra objects,
the coefficient check ``assert_exact``, the outcome check
``assert_outcome``, the reference ring map
``reference_substitute`` and the reference divisions ``reference_reduce``
and ``reference_is_trivial``."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from conormal.forms import DifferentialForm, form_degree
from conormal.germs import Germ, _trivial_module
from conormal.poly import Polynomial, PolynomialRing, parse_polynomial


def assert_exact(p, normalized=False):
    """Every coefficient is an ``int`` or a ``Fraction``, never a float; if
    ``normalized``, no ``Fraction`` is integral."""
    for c in p.terms.values():
        assert type(c) in (int, Fraction), (p, c)
        if normalized:
            assert type(c) is int or c.denominator != 1, (p, c)


def assert_outcome(make, want):
    """``make()`` has the value and the type of ``want``; if ``want`` is an
    exception, ``make()`` raises one of its type with exactly its message."""
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            make()
        assert str(info.value) == str(want)
    else:
        got = make()
        assert (type(got), got) == (type(want), want)


def reference_substitute(p, ring, images):
    """The ring map written out in ``Polynomial`` arithmetic."""
    out = ring.zero
    for exps, c in p.terms.items():
        term = ring.const(c)
        for image, e in zip(images, exps):
            term = term * image**e
        out = out + term
    return out


def reference_reduce(f, basis, order):
    """The textbook division loop on exponent tuples: take the leading term
    of what is left, cancel it with the first basis element whose lead
    divides it, else move it to the remainder.  Every element is tested,
    whatever its position under a module order."""
    unpack = f.ring.unpack
    divisors = [(g, unpack(g.leading(order)[0]), g.leading(order)[1]) for g in basis if g]
    rest, remainder = f, f.ring.zero
    while rest:
        m, c = rest.leading(order)
        m = unpack(m)
        term = Polynomial(f.ring, {m: c})
        for g, lm, lc in divisors:
            if all(x <= y for x, y in zip(lm, m)):
                quotient = tuple(y - x for x, y in zip(lm, m))
                rest = rest - Polynomial(f.ring, {quotient: Fraction(c) / lc}) * g
                break
        else:
            remainder, rest = remainder + term, rest - term
    return remainder


def reference_is_trivial(omega, germ: Germ) -> bool:
    """Whether a form of degree k <= n is trivial on the germ, by
    ``reference_reduce`` against the basis the germ caches for degree k:
    that of the germ ideal for k = 0, else that of the module of trivial
    k-forms, which divides the form encoded as a module vector."""
    k = form_degree(omega)
    if k == 0:
        ideal, f = germ.ideal, omega
    else:
        positions, module = _trivial_module(germ, k)
        ideal = module.ideal
        f = module.encode((positions[S], t) for S, t in omega._terms.items())
    return not reference_reduce(f, ideal.groebner_basis(), ideal.order)


def coefficients():
    return st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def monomials(nvars: int, max_degree: int = 3):
    return st.tuples(*[st.integers(0, max_degree) for _ in range(nvars)])


@st.composite
def polynomials(draw, ring: PolynomialRing, max_terms: int = 4, max_degree: int = 3):
    terms = draw(
        st.dictionaries(monomials(ring.nvars, max_degree), coefficients(), max_size=max_terms)
    )
    return Polynomial(ring, terms)


def nonzero_polynomials(ring: PolynomialRing, max_terms: int = 4, max_degree: int = 3):
    return polynomials(ring, max_terms, max_degree).filter(bool)


@st.composite
def forms(draw, ring: PolynomialRing, degree: int, max_terms: int = 3, max_degree: int = 2):
    tuples = list(combinations(range(ring.nvars), degree))
    coeffs = draw(
        st.dictionaries(
            st.sampled_from(tuples),
            polynomials(ring, max_terms=2, max_degree=max_degree),
            max_size=max_terms,
        )
    )
    return DifferentialForm(ring, degree, coeffs)


# Hypersurface germs (variables, equation) whose sections by the hyperplanes
# with normals in {-1, 0, 1}^n reach every diagnostic of bertini_check.
SECTION_GERMS = (
    ("x y z", "z^2 - x^2*y^2"),
    ("x y z", "z^2 - x*y^2"),
    ("x y z", "z - x^2 - y^2"),
    ("x y z", "x^2 + y^2 - z^2"),
    ("x y z", "x^2 + y^3 + z^4"),
    ("x y z t", "x*t - y*z"),
)


def section_germ(variables: str, equation: str) -> Germ:
    ring = PolynomialRing(variables.split())
    return Germ(ring, [parse_polynomial(equation, ring)])


def random_polynomial(
    rng: random.Random,
    ring: PolynomialRing,
    max_terms: int = 3,
    max_degree: int = 3,
    nonzero: bool = False,
) -> Polynomial:
    """Seeded random polynomial for deterministic 'N randomized cases' loops."""
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            exps = [0] * ring.nvars
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(ring.nvars)] += 1
            c = rng.randint(-4, 4)
            if c:
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
        p = Polynomial(ring, {m: Fraction(c) for m, c in terms.items() if c})
        if p or not nonzero:
            return p


def random_form(
    rng: random.Random,
    ring: PolynomialRing,
    degree: int,
    max_terms: int = 2,
    max_coeff_degree: int = 2,
) -> DifferentialForm | Polynomial:
    tuples = list(combinations(range(ring.nvars), degree))
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        idx = tuples[rng.randrange(len(tuples))]
        p = random_polynomial(rng, ring, max_terms=2, max_degree=max_coeff_degree)
        if p:
            coeffs[idx] = coeffs.get(idx, ring.zero) + p
    coeffs = {i: c for i, c in coeffs.items() if c}
    if degree == 0:  # a bare polynomial, as forms.py keeps degree 0
        return coeffs.get((), ring.zero)
    return DifferentialForm(ring, degree, coeffs)


# Expressions of the parser's grammar, drawn as (text, tree).  A tree is
# ("num", Fraction), ("var", i), ("d", i), ("pow", tree, k), ("prod", [tree])
# or ("sum", [(negate, tree)]); parentheses leave the tree unchanged.


def _literal(draw):
    p = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return str(p), ("num", Fraction(p))
    q = draw(st.integers(1, 4))
    slash = draw(st.sampled_from(["/", " / "]))
    return f"{p}{slash}{q}", ("num", Fraction(p, q))


def _atom(draw, ring, depth, differentials):
    kinds = ["num", "var"] + ["d"] * differentials + ["group"] * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "num":
        return _literal(draw)
    if kind == "group":
        text, tree = _expression(draw, ring, depth - 1, differentials)
        return f"({text})", tree
    i = draw(st.integers(0, ring.nvars - 1))
    if kind == "var":
        return ring.variables[i], ("var", i)
    repeat = draw(st.integers(1, 2))  # dx*dx is a zero factor
    return "*".join(["d" + ring.variables[i]] * repeat), ("prod", [("d", i)] * repeat)


def _factor(draw, ring, depth, differentials):
    if draw(st.integers(0, 3)) == 0:
        text, tree = _atom(draw, ring, depth, False)
        k = draw(st.integers(1, 3))
        return f"{text}^{k}", ("pow", tree, k)
    return _atom(draw, ring, depth, differentials)


def _expression(draw, ring, depth, differentials):
    chunks, parts = [], []
    for j in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["", "+", "-"] if j == 0 else ["+", "-"]))
        factors = [_factor(draw, ring, depth, differentials) for _ in range(draw(st.integers(1, 3)))]
        text = "*".join(t for t, _ in factors)
        chunks.append(f"{sign}{text}" if j == 0 else f" {sign} {text}")
        parts.append((sign == "-", ("prod", [tree for _, tree in factors])))
    return "".join(chunks), ("sum", parts)


@st.composite
def expressions(draw, ring: PolynomialRing, depth: int = 2):
    """(text, tree) for a random form expression over ``ring``: nested
    parentheses, unary signs, integer and ``p/q`` literals, integer powers
    of polynomial factors, differentials and repeated differentials."""
    return _expression(draw, ring, depth, True)
