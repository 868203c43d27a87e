"""An independent oracle for the Groebner bases: sympy's ``groebner``.

A reduced Groebner basis is unique per (ideal, order) once its elements are
monic, so equality with sympy's, after making both sides monic, checks a
basis with code that shares nothing with ``conormal.groebner``.  sympy keeps
integer content (it may return twice our element), hence the monic step.

A submodule M of R^r is compared as the ideal M + (e_i*e_j : i <= j) of the
position ring, under grevlex in the same variable order: ``top`` is grevlex
on module terms, and the basis elements of degree 1 in the e_i are the
module basis.

The reduced germ of a hypersurface V(f) is checked against sympy's
``sqf_part``: its generator is a constant multiple of the squarefree part.
``intersection`` and ``quotient`` are checked against the ideal operations
of sympy's ``QQ.old_poly_ring``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conormal.cli import corpus_names, load_germ_file
from conormal.forms import Hyperplane
from conormal.geometry import bertini_check, random_hyperplane
from conormal.germs import Germ, _trivial_module
from conormal.groebner import (
    Ideal,
    buchberger,
    eliminate,
    ideal_membership,
    intersection,
    quotient,
)
from conormal.poly import GREVLEX, LEX, Polynomial, PolynomialRing, block_order, parse_polynomial

from strategies import nonzero_polynomials, polynomials, random_polynomial

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex, monomial_key  # noqa: E402


def sympy_order(order):
    """sympy's monomial order for ``order``: a key on exponent tuples."""
    if order.kind == "block":
        k = order.split
        return ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))
    return monomial_key(order.kind)


def to_sympy(p, symbols):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *symbols, domain=sympy.QQ)


def monic_set(polys):
    """Each polynomial as the frozenset of its (exponents, Fraction) terms."""
    return {frozenset((e, Fraction(c)) for e, c in p.items()) for p in polys}


def sympy_basis(gens, order, keep=lambda e: True):
    """sympy's reduced basis of ``gens``, monic, as a set; only the elements
    whose every exponent tuple passes ``keep``."""
    symbols = sympy.symbols(gens[0].ring.variables)
    return sympy_set([to_sympy(g, symbols) for g in gens], symbols, sympy_order(order), keep)


def sympy_set(polys, symbols, key, keep=lambda e: True):
    """sympy's reduced basis of the sympy ``polys`` under the monomial key
    ``key``, as :func:`sympy_basis` gives it."""
    basis = sympy.groebner(polys, *symbols, order=key)
    out = []
    for g in basis.polys:
        terms = {e: Fraction(int(c.p), int(c.q)) for e, c in g.as_dict().items()}
        lc = terms[max(terms, key=key)]
        if all(keep(e) for e in terms):
            out.append({e: c / lc for e, c in terms.items()})
    return monic_set(out)


def our_set(basis):
    return monic_set(g.terms for g in basis)


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_ideal_bases_match_sympy(name):
    germ = load_germ_file(name).germ
    for ideal in (germ.ideal, germ.jacobian):
        basis = ideal.groebner_basis()
        assert our_set(basis) == sympy_basis(list(ideal.generators), GREVLEX), name


@pytest.mark.parametrize("name", corpus_names())
def test_warm_membership_matches_sympy(name):
    # Seeded polynomials, half of them combinations of the generators,
    # against the germ ideal, whose table of normal forms fills as they
    # run; sympy divides each by its own basis.
    germ = load_germ_file(name).germ
    ring, gens = germ.ring, germ.ideal.generators
    symbols = sympy.symbols(ring.variables)
    basis = sympy.groebner([to_sympy(g, symbols) for g in gens], *symbols, order="grevlex")
    rng = random.Random(50)
    answers = []
    for _ in range(40):
        f = random_polynomial(rng, ring, max_terms=4, max_degree=4)
        if rng.random() < 0.5:
            f = f * gens[0] + sum((random_polynomial(rng, ring, 2, 2) * g for g in gens[1:]),
                                  ring.zero)
        answers.append(ideal_membership(f, germ.ideal))
        assert answers[-1] == basis.contains(to_sympy(f, symbols).as_expr()), (name, f)
    assert germ.ideal._normal and 0 < sum(answers) < len(answers)


TRIVIAL_MODULES = [
    ("segre.germ", 1), ("segre.germ", 2), ("segre.germ", 3),
    ("umbrella.germ", 1), ("umbrella.germ", 2),
    ("cusp3.germ", 1), ("cusp3.germ", 2),
]


@pytest.mark.parametrize("name, k", TRIVIAL_MODULES)
def test_trivial_module_bases_match_sympy(name, k):
    module = _trivial_module(load_germ_file(name).germ, k)[1]
    ring, r = module.position_ring, module.rank
    e = ring.gens()[:r]
    squares = [e[i] * e[j] for i in range(r) for j in range(i, r)]
    expected = sympy_basis(list(module.ideal.generators) + squares, GREVLEX,
                           keep=lambda exps: sum(exps[:r]) == 1)
    assert our_set(module.ideal.groebner_basis()) == expected


R2 = PolynomialRing(["x", "y"])
R3 = PolynomialRing(["x", "y", "z"])

SECTION_CASES = [
    # the geometry work gates, and a section with rational coefficients of
    # the z^6 + y^5 + x^4 surface the section benchmark cuts
    ("z^2 - x*y^2", [1, -1, 0]),
    ("z^2 - x*y^2", random_hyperplane(R3, 7).normal),
    ("x^2 + y^3 + z^4", [1, 2, 3]),
    ("z^6 + y^5 + x^4", [7, 9, -9]),
    # H holds one of the two lines of Sing X, so its Rabinowitsch step
    # answers no
    ("z^2 - x^2*y^2", [0, 1, 0]),
]


@pytest.mark.parametrize("equation, normal", SECTION_CASES)
def test_section_bases_match_sympy(basis_log, equation, normal):
    # Every basis one Bertini check computes: the Jacobian ideals of the
    # germ and of the section.  A Rabinowitsch step computes no basis; its
    # answers are checked below.
    bertini_check(Germ(R3, [parse_polynomial(equation, R3)]), Hyperplane(R3, normal))
    assert basis_log
    for gens, order, basis in basis_log:
        assert our_set(basis) == sympy_basis(gens, order)


def sympy_rabinowitsch(g, gens):
    """Whether sympy's reduced basis of (gens) + (1 - t*g), t a fresh
    symbol, is [1]: g lies in the radical of (gens)."""
    symbols = sympy.symbols(g.ring.variables)
    t = sympy.Symbol("t_rabinowitsch")
    polys = [to_sympy(p, symbols).as_expr() for p in gens]
    relation = 1 - t * to_sympy(g, symbols).as_expr()
    return sympy.groebner(polys + [relation], *symbols, t, order="grevlex").exprs == [1]


def section_radical_answers(monkeypatch, equation, normal):
    """The (g, generators, answer) of every Rabinowitsch step of one Bertini
    check of V(equation) on the hyperplane with ``normal``."""
    import conormal.groebner as groebner

    answers, rabinowitsch = [], groebner._rabinowitsch

    def recording(g, ideal):
        answer = rabinowitsch(g, ideal)
        answers.append((g, ideal.generators, answer))
        return answer

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_rabinowitsch", recording)
        bertini_check(Germ(R3, [parse_polynomial(equation, R3)]), Hyperplane(R3, normal))
    return answers


@pytest.mark.parametrize("equation, normal", SECTION_CASES)
def test_section_radical_answers_match_sympy(monkeypatch, equation, normal):
    # Every Rabinowitsch answer of one Bertini check, against sympy's.
    for g, gens, answer in section_radical_answers(monkeypatch, equation, normal):
        assert answer == sympy_rabinowitsch(g, list(gens)), (str(g), [str(p) for p in gens])


def test_section_cases_reach_both_radical_answers(monkeypatch):
    # The comparison above is not vacuous: the section cases take both
    # answers of the Rabinowitsch step.
    seen = {answer for case in SECTION_CASES
            for _, _, answer in section_radical_answers(monkeypatch, *case)}
    assert seen == {True, False}


@given(
    st.sampled_from([R2, R3]).flatmap(
        lambda ring: st.lists(nonzero_polynomials(ring, max_terms=3, max_degree=3),
                              min_size=1, max_size=3)
    ),
    st.sampled_from([GREVLEX, LEX, block_order(1)]),
)
@settings(max_examples=60)
def test_random_bases_match_sympy(gens, order):
    assert our_set(buchberger(gens, order)) == sympy_basis(gens, order)


@pytest.mark.parametrize("gens", [
    ["x - t^2", "y - t^3", "z - t^4"],
    ["x - s*t", "y - s^2", "z - t^2 + s"],
])
def test_elimination_matches_a_sympy_lex_basis(gens):
    # The elements of sympy's lex basis free of s and t generate the
    # elimination ideal; its reduced grevlex basis is what ``eliminate``
    # returns, whose block order is grevlex on the kept variables.
    ring = PolynomialRing(["s", "t", "x", "y", "z"])
    polys = [parse_polynomial(g, ring) for g in gens]
    result = eliminate(Ideal(polys), [0, 1])
    symbols = sympy.symbols(ring.variables)
    lex = sympy.groebner([to_sympy(g, symbols) for g in polys], *symbols, order="lex")
    kept = [
        Polynomial(result.ring, {e[2:]: Fraction(int(c.p), int(c.q)) for e, c in g.as_dict().items()})
        for g in lex.polys if g.degree(symbols[0]) == g.degree(symbols[1]) == 0
    ]
    assert our_set(result.generators) == sympy_basis(kept, GREVLEX)


def test_colon_matches_sympy_intersect_and_quotient():
    # intersection(I, J) and quotient(I, g) are reduced grevlex bases of the
    # ideals that sympy's old_poly_ring gives with a syzygy computation of
    # its own.
    rng = random.Random(43)
    symbols = sympy.symbols(R3.variables)
    key, old = sympy_order(GREVLEX), sympy.QQ.old_poly_ring(*symbols)

    def ideal(gens):
        return old.ideal(*(to_sympy(g, symbols).as_expr() for g in gens))

    def expected(result):
        return sympy_set([sympy.Poly(old.to_sympy(g), *symbols) for g in result.gens], symbols, key)

    for _ in range(30):
        # Generators that are multiples of g make (I : g) larger than I.
        g = random_polynomial(rng, R3, 2, 2, nonzero=True)
        a, b = ([random_polynomial(rng, R3, terms, 2, nonzero=True) * rng.choice([g, R3.one])
                 for _ in range(rng.randint(1, count))] for terms, count in [(2, 3), (3, 2)])
        sym_a = ideal(a)
        assert our_set(intersection(Ideal(a), Ideal(b)).generators) == expected(
            sym_a.intersect(ideal(b))), (a, b)
        assert our_set(quotient(Ideal(a), g).generators) == expected(sym_a.quotient(ideal([g]))), (a, g)


def assert_sqf_part(f):
    """The generator of the reduced germ of V(f) is a constant multiple of
    sympy's squarefree part of f."""
    [g] = Germ(f.ring, [f]).reduced.generators
    symbols = sympy.symbols(f.ring.variables)
    sqf = to_sympy(f, symbols).sqf_part().as_dict()
    assert set(sqf) == set(g.terms), (f, g)
    m = next(iter(sqf))
    scale = Fraction(int(sqf[m].p), int(sqf[m].q)) / g.terms[m]
    assert all(Fraction(int(c.p), int(c.q)) == scale * g.terms[e] for e, c in sqf.items()), (f, g)


@pytest.mark.parametrize("text", [
    "x^2", "x^2*y", "(z^2 - x*y^2)^2", "x^2*(x^2 + y^3 - z^5)", "(x*y - z^2)^3*(x + y)",
])
def test_reduced_generator_is_the_sympy_squarefree_part(text):
    assert_sqf_part(parse_polynomial(text, R3))


@given(
    st.sampled_from([R2, R3]).flatmap(lambda ring: st.tuples(
        nonzero_polynomials(ring, max_terms=3, max_degree=2)
        .map(lambda p: p - p.terms.get((0,) * ring.nvars, 0))
        .filter(lambda p: not p.is_constant()),
        polynomials(ring, max_terms=2, max_degree=2).filter(bool),
    )),
    st.integers(2, 3),
)
@settings(max_examples=25)
def test_reduced_generator_of_random_products_is_the_squarefree_part(pair, a):
    g, h = pair
    assert_sqf_part(g**a * h)
