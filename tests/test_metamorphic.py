"""Metamorphic invariance of the verdicts on the corpus germs.

A verdict is a claim about the germ at 0, so it must not move when germ,
forms and fields are transformed together by an automorphism phi of
(C^n, 0), when a generator f_i is replaced by f_i + h*f_j, or when a form
is scaled by a nonzero constant (Chen et al., "Metamorphic Testing: A
Review of Challenges and Opportunities", ACM Comput. Surv. 51(1), 2018).

The maps phi are integer linear changes of determinant +-1 and triangular
maps x_i -> +-x_i + p_i(x_{i+1}, ..., x_n); both are polynomial
automorphisms fixing 0, with Jacobian determinant +-1.  The germ V(f)
becomes V(f o phi), a form omega becomes its pullback, and a field V becomes
form_to_vector_field(pullback(vector_field_to_form(V), phi)), which is
+-phi*V.

Two relations of a verdict at 0 do not hold yet, because membership is
decided in the polynomial ring: multiplying a generator by a unit
1 + (higher terms), and adding a component that misses 0.  They belong with
the local decision procedure, not here.
"""

from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conormal.cli import _resolve_form, corpus_names, load_germ_file
from conormal.forms import (
    VectorField,
    form_degree,
    form_to_vector_field,
    pullback,
    vector_field_to_form,
)
from conormal.geometry import regular_in_codimension
from conormal.germs import Germ, is_conormal, is_tangential, is_trivial_form
from conormal.poly import Polynomial, parse_polynomial

from strategies import coefficients, polynomials

CORPUS = corpus_names()


@lru_cache(maxsize=None)
def corpus_case(name):
    """(germ, forms, fields) of a corpus file: its named forms, the forms of
    its expect lines, the fields of its tangent lines and the field of each
    (n-1)-form among those forms."""
    gf = load_germ_file(name)
    ring = gf.germ.ring
    forms = [part for parts in gf.forms.values() for part in parts]
    fields = []
    for kind, argument, _ in gf.expects:
        if kind == "tangent":
            comps = [parse_polynomial(c, ring) for c in argument.split(",")]
            fields.append(VectorField(ring, comps))
        elif kind != "regular":
            forms += [p for p in _resolve_form(gf, argument) if p not in forms]
    fields += [form_to_vector_field(w) for w in forms if form_degree(w) == ring.nvars - 1]
    return gf.germ, tuple(forms), tuple(fields)


def verdicts(germ, forms, fields):
    """Everything the relations must keep: conormality and tangency
    statuses, triviality and the regularity table."""
    return (
        [is_conormal(w, germ).status for w in forms],
        [is_trivial_form(w, germ) for w in forms],
        [is_tangential(v, germ).status for v in fields],
        [regular_in_codimension(germ, k) for k in range(germ.dimension + 1)],
    )


@lru_cache(maxsize=None)
def corpus_verdicts(name):
    return verdicts(*corpus_case(name))


@st.composite
def linear_changes(draw, ring):
    """x -> M*x for an integer matrix M of determinant +-1, built from
    elementary row operations (swap, negate, add a multiple of a row)."""
    rows = list(ring.gens())
    n = ring.nvars
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["swap", "negate", "add"]))
        if kind == "negate" or i == j:
            rows[i] = -rows[i]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = rows[i] + draw(st.integers(-2, 2).filter(bool)) * rows[j]
    return rows


@st.composite
def triangular_maps(draw, ring):
    """x_i -> +-x_i + p_i(x_{i+1}, ..., x_n), each p_i with at most two
    terms of degree 1 or 2 and no constant term."""
    n = ring.nvars
    images = []
    for i, x in enumerate(ring.gens()):
        monomials = []
        for degree in (1, 2):
            for factors in combinations_with_replacement(range(i + 1, n), degree):
                monomials.append(tuple(factors.count(k) for k in range(n)))
        terms = {}
        if monomials:
            chosen = draw(st.lists(st.sampled_from(monomials), max_size=2, unique=True))
            terms = {m: draw(st.integers(-2, 2).filter(bool)) for m in chosen}
        sign = draw(st.sampled_from([1, -1]))
        images.append(sign * x + Polynomial(ring, terms))
    return images


def automorphisms(ring):
    return linear_changes(ring) | triangular_maps(ring)


def transformed(name, phi):
    germ, forms, fields = corpus_case(name)
    ring = germ.ring
    moved = Germ(ring, [g.substitute(ring, phi) for g in germ.generators])
    return (
        moved,
        [pullback(w, phi) for w in forms],
        [form_to_vector_field(pullback(vector_field_to_form(v), phi)) for v in fields],
    )


@pytest.mark.parametrize("name", CORPUS)
@given(data=st.data())
def test_invariant_under_automorphisms(name, data):
    ring = corpus_case(name)[0].ring
    phi = data.draw(automorphisms(ring), label="phi")
    assert verdicts(*transformed(name, phi)) == corpus_verdicts(name)


@pytest.mark.parametrize("name", [n for n in CORPUS if len(corpus_case(n)[0].generators) > 1])
@given(data=st.data())
def test_invariant_under_generator_changes(name, data):
    germ, forms, fields = corpus_case(name)
    gens = list(germ.generators)
    i, j = data.draw(st.permutations(range(len(gens))), label="i, j")[:2]
    h = data.draw(polynomials(germ.ring, max_terms=2, max_degree=2), label="h")
    gens[i] = gens[i] + h * gens[j]
    assert verdicts(Germ(germ.ring, gens), forms, fields) == corpus_verdicts(name)


@pytest.mark.parametrize("name", CORPUS)
@given(c=coefficients())
@settings(max_examples=5)
def test_invariant_under_scaling_forms(name, c):
    germ, forms, fields = corpus_case(name)
    scaled = [w.scale(c) for w in forms]
    assert verdicts(germ, scaled, fields) == corpus_verdicts(name)


def test_relations_reach_every_corpus_verdict_kind():
    # The suite is only as strong as what it compares: every corpus germ
    # contributes forms, and the statuses seen include both answers.
    statuses = set()
    for name in CORPUS:
        germ, forms, fields = corpus_case(name)
        assert forms
        conormal, trivial, tangent, regular = corpus_verdicts(name)
        statuses.update(s.value for s in conormal + tangent)
        statuses.update(trivial + regular)
    assert {"CertifiedYes", "CertifiedNo", True, False} <= statuses
