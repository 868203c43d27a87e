"""Exterior algebra of polynomial differential forms.

A homogeneous k-form is its raw mixed form ``{index tuple: term dict}``:
strictly increasing index tuples (i_1 < ... < i_k, 0-based into the ring
variables) map to the nonzero term dicts ``{word: coefficient}`` of
:mod:`conormal.poly`, and signs are absorbed during canonicalization.  A
:class:`DifferentialForm` keeps it in ``_terms``, as a ``Polynomial`` keeps
its term dict, and a coefficient becomes a ``Polynomial`` only when it is
read (``coefficients()``, ``coefficient(idx)``); equality, hashing and
truth read the raw dicts.  Degree-0 forms are bare
:class:`~conormal.poly.Polynomial` values, and mixed-degree input is
represented as a list of homogeneous parts (see :func:`parse_form`).

Besides wedge, exterior derivative, pullback and pointwise evaluation, the
module implements the degree-(n-1) correspondence with vector fields given
by the volume form dx_1 ^ ... ^ dx_n |-> 1, and the radial homotopy that
produces a polynomial potential for a closed 1-form.

Every sign comes from one rule, the sign of dx_S ^ dx_T that
``_expr.wedge_index_tuples`` gives: wedge and d multiply raw forms through
``_expr.mixed_mul``, which reads it, and the vector-field correspondence
reads it for dx_{[n] minus i} ^ dx_i.

Forms compute on their raw mixed forms with the two kernels of
:mod:`conormal.poly`: ``mixed_mul`` multiplies coefficients with
``poly._mul_terms``, the one product kernel, and forms add through
``_expr._accumulate``, which adds each coefficient with ``poly._add_into``,
the one sum kernel; the checked constructor and the radial potential call
them too.  ``scale`` and negation are wedges with a degree-0 form.
:func:`_raw` is the one way in, the raw mixed form of a form or of a bare
polynomial, and :func:`_form` the one way out, a form or, in degree 0, a
polynomial.  Outside the two kernels six fast paths add by hand, each
with its reason in :mod:`conormal.poly`: ``groebner._remainder``,
``groebner._s_terms``, the parser's one-monomial add in ``_expr._sum``,
the sum of c*NF(m) in ``groebner.ideal_membership`` and the two
code-keyed sums of ``germs._Table``.

Aliasing rule: forms and polynomials share term dicts.  A form built as
``{S: f._terms}`` holds the term dict of the polynomial f, and the
polynomials that ``coefficients()`` and ``coefficient(idx)`` return hold
the form's.  So no code may mutate a term dict it did not create:
``_accumulate`` adds a new key's terms into a fresh dict, and ``mixed_mul``
writes only dicts it makes.
"""

from __future__ import annotations

from typing import Sequence, Union

from ._expr import _accumulate, mixed_mul, parse_mixed_text, wedge_index_tuples
from .poly import (
    Polynomial,
    PolynomialRing,
    Scalar,
    _add_into,
    _check_degree,
    _div,
    _join_chunks,
    _mul_terms,
    _partial_terms,
    _primitive_terms,
    _rational,
    _scalar_terms,
    _term_chunks,
    evaluate,
    format_polynomial,
    same_ring,
)


class NotClosedError(ValueError):
    """Raised when a potential is requested for a non-closed form."""


FormLike = Union[Polynomial, "DifferentialForm"]


class DifferentialForm:
    """A homogeneous differential form of degree >= 1 with polynomial coefficients.

    ``_terms`` is its raw mixed form: sorted index tuples only, and no zero
    coefficient.  ``_clean=True`` takes a raw mixed form as it is.  Forms of
    degree above the ring dimension are necessarily zero and are allowed as
    transient results of wedge and d.
    """

    __slots__ = ("ring", "degree", "_terms")

    def __init__(self, ring: PolynomialRing, degree: int, coefficients, *, _clean: bool = False):
        if not isinstance(degree, int):
            raise ValueError(f"degree {degree!r} is not an int")
        if degree < 1:
            raise ValueError("degree-0 forms are represented by bare polynomials")
        self.ring = ring
        self.degree = degree
        if _clean:
            self._terms = coefficients
            return
        raw: dict = {}
        for idx, coeff in coefficients.items():
            idx = _index(idx, degree, ring)
            if isinstance(coeff, Polynomial):
                same_ring(self, coeff)
                terms = coeff._terms
            else:
                terms = _scalar_terms(coeff)
            _accumulate(raw, idx, terms)
        self._terms = raw

    def coefficients(self) -> list:
        """Deterministic iteration: (index tuple, coefficient) sorted by
        tuple, each coefficient a ``Polynomial`` made on this read."""
        ring, terms = self.ring, self._terms
        return [(idx, Polynomial(ring, terms[idx], _clean=True)) for idx in sorted(terms)]

    def coefficient(self, idx) -> Polynomial:
        """The coefficient of dx_idx; an index tuple the form does not store
        must be one the constructor accepts, and reads 0."""
        terms = self._terms.get(tuple(idx))
        if terms is None:
            _index(idx, self.degree, self.ring)
            terms = {}
        return Polynomial(self.ring, terms, _clean=True)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DifferentialForm)
            and self.ring == other.ring
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        raw = frozenset((idx, frozenset(t.items())) for idx, t in self._terms.items())
        return hash((self.ring, self.degree, raw))

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        ring = same_ring(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        # _accumulate copies a term dict it inserts, so neither summand changes.
        out: dict = {}
        for x in (self, other):
            for idx, terms in x._terms.items():
                _accumulate(out, idx, terms)
        return _form(ring, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return self.scale(-1)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def scale(self, factor) -> "DifferentialForm":
        """Multiply by a polynomial or scalar: the wedge with a degree-0 form."""
        if not isinstance(factor, Polynomial):
            factor = self.ring.const(factor)
        return wedge(factor, self)

    def __str__(self) -> str:
        return format_form(self)

    def __repr__(self) -> str:
        return f"<{format_form(self)} over {self.ring}>"


def form_degree(x: FormLike) -> int:
    return 0 if isinstance(x, Polynomial) else x.degree


def _index(idx, degree: int, ring: PolynomialRing) -> tuple:
    """``idx`` as a tuple, refused unless it is ``degree`` strictly
    increasing indices of the ring's variables."""
    idx = tuple(idx)
    ints = all(isinstance(i, int) for i in idx)
    if len(idx) != degree or not ints or list(idx) != sorted(set(idx)):
        raise ValueError(f"index tuple {idx} is not {degree} strictly increasing integers")
    if idx and (idx[0] < 0 or idx[-1] >= ring.nvars):
        raise ValueError(f"index tuple {idx} out of range for {ring}")
    return idx


def _raw(x: FormLike) -> dict:
    """The raw mixed form ``{index tuple: term dict}`` of ``x``, whose term
    dicts are those of ``x``."""
    if isinstance(x, Polynomial):
        return {(): x._terms} if x else {}
    return x._terms


def _form(ring: PolynomialRing, degree: int, raw: dict) -> FormLike:
    """The form of ``degree`` whose raw mixed form is ``raw``, which it
    keeps as it is; in degree 0 a bare polynomial."""
    if degree == 0:
        return Polynomial(ring, raw[()], _clean=True) if raw else ring.zero
    return DifferentialForm(ring, degree, raw, _clean=True)


def wedge(a: FormLike, b: FormLike) -> FormLike:
    """Exterior product; bilinear, associative, and sign-correct.

    Degree-0 factors act by multiplication; if the degrees add up past the
    ring dimension the result is the zero form of that degree.
    """
    ring = same_ring(a, b)
    return _form(ring, form_degree(a) + form_degree(b), mixed_mul(_raw(a), _raw(b), ring.limit))


def exterior_derivative(x: FormLike) -> DifferentialForm:
    """The exterior derivative d(sum_I c_I dx_I) = sum_I dc_I ^ dx_I, with
    dc = sum_i (dc/dx_i) dx_i; linear, with d(d(x)) = 0."""
    ring = x.ring
    out: dict = {}
    for idx, coeff in _raw(x).items():
        dc = {(i,): t for i in range(ring.nvars) if (t := _partial_terms(ring, coeff, i))}
        # The d of a polynomial is its partials: no product with dx_() = 1.
        for key, terms in (mixed_mul(dc, {idx: {0: 1}}, ring.limit) if idx else dc).items():
            _accumulate(out, key, terms)
    return _form(ring, form_degree(x) + 1, out)


def pullback(x: FormLike, images: Sequence[Polynomial]) -> FormLike:
    """The pullback of a form along the polynomial map whose j-th component
    is ``images[j]``: x_j <- images[j] and dx_j <- d(images[j]).

    The result has the degree of ``x`` and lives in the ring of the images.
    Pullback commutes with d and with wedge.
    """
    if len(images) != x.ring.nvars:
        raise ValueError("one image per variable required")
    ring = same_ring(*images)
    diffs = [_raw(exterior_derivative(p)) for p in images]
    out: dict = {}
    for idx, coeff in _raw(x).items():
        term = {(): Polynomial(x.ring, coeff, _clean=True).substitute(ring, images)._terms}
        for j in idx:
            term = mixed_mul(term, diffs[j], ring.limit)
        for key, terms in term.items():
            _accumulate(out, key, terms)
    return _form(ring, form_degree(x), out)


def evaluate_form(x: FormLike, point: Sequence[Scalar]):
    """Coefficient-wise evaluation at a rational point.

    Returns a form of the same degree with constant coefficients (a plain
    scalar for degree 0); the form vanishes at the point iff the result
    is zero.
    """
    if isinstance(x, Polynomial):
        return evaluate(x, point)
    ring = x.ring
    if len(point) != ring.nvars:
        raise ValueError(f"point has {len(point)} coordinates, ring has {ring.nvars}")
    values = [(idx, evaluate(Polynomial(ring, t, _clean=True), point))
              for idx, t in x._terms.items()]
    return _form(ring, x.degree, {idx: {0: v} for idx, v in values if v})


class VectorField:
    """A polynomial vector field sum_i components[i] * d/dx_i."""

    __slots__ = ("ring", "components")

    def __init__(self, ring: PolynomialRing, components: Sequence[Polynomial]):
        comps = tuple(components)
        if len(comps) != ring.nvars:
            raise ValueError("one component per ring variable required")
        self.ring = ring
        same_ring(self, *comps)
        self.components = comps

    def contract(self, alpha: "DifferentialForm") -> Polynomial:
        """The interior product of a 1-form alpha = sum_i a_i dx_i with the
        field, sum_i V_i * a_i, added up in one term dict; V(g) for dg."""
        ring = same_ring(self, alpha)
        if form_degree(alpha) != 1:
            raise ValueError("a vector field contracts with a 1-form")
        out: dict = {}
        for (i,), a in alpha._terms.items():
            _mul_terms(self.components[i]._terms, a, ring.limit, out)
        return Polynomial(ring, out, _clean=True)

    def __bool__(self) -> bool:
        return any(self.components)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorField)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self) -> int:
        # A Verdict keeps the field it decided, and stays hashable.
        return hash((self.ring, self.components))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    __repr__ = __str__


def volume_coefficient(x: FormLike) -> Polynomial:
    """The image of a top-degree form under dx_1 ^ ... ^ dx_n |-> 1."""
    ring = x.ring
    if form_degree(x) != ring.nvars:
        raise ValueError("volume coefficient needs a top-degree form")
    return x.coefficient(tuple(range(ring.nvars)))


def form_to_vector_field(omega: FormLike) -> VectorField:
    """The degree-(n-1) correspondence with vector fields.

    Writing omega = sum_i a_i dx_1 ^ ... (omit dx_i) ... ^ dx_n, the image V
    has V_i = s_i a_i, where s_i is the sign of the wedge of those
    differentials with dx_i, (-1)^(n-1-i) for a 0-based i: the unique field
    with volume_coefficient(omega ^ dg) = V(g) for all g.  In one variable
    omega is a bare polynomial.
    """
    ring = omega.ring
    n = ring.nvars
    if form_degree(omega) != n - 1:
        raise ValueError("expected a form of degree n-1")
    comps = [ring.zero] * n
    everything = set(range(n))
    for idx, terms in _raw(omega).items():
        i = (everything - set(idx)).pop()
        sign, _ = wedge_index_tuples(idx, (i,))
        comps[i] = Polynomial(ring, _add_into({}, terms, sign < 0), _clean=True)
    return VectorField(ring, comps)


def vector_field_to_form(field: VectorField) -> FormLike:
    """Inverse of :func:`form_to_vector_field`."""
    ring = field.ring
    n = ring.nvars
    out = {}
    for i, v in enumerate(field.components):
        if v:
            idx = tuple(j for j in range(n) if j != i)
            sign, _ = wedge_index_tuples(idx, (i,))
            out[idx] = v._terms if sign > 0 else (-v)._terms
    return _form(ring, n - 1, out)


def radial_potential(omega: FormLike) -> Polynomial:
    """Polynomial g with g(0) = 0 and dg = omega, for a closed 1-form.

    Uses the radial homotopy: a monomial m of total degree d in the i-th
    coefficient contributes x_i * m / (d + 1).  Raises NotClosedError when
    d(omega) is nonzero.
    """
    if form_degree(omega) != 1:
        raise ValueError("the radial potential is defined for 1-forms")
    if exterior_derivative(omega):
        raise NotClosedError("the form is not closed: d(form) != 0")
    ring = omega.ring
    out: dict = {}
    for (i,), terms in omega._terms.items():
        unit = ring.units[i]
        _check_degree(max(terms) + unit, ring.limit)
        _add_into(out, {m + unit: _div(c, ring.degree(m + unit)) for m, c in terms.items()})
    return Polynomial(ring, out, _clean=True)


class Hyperplane:
    """A hyperplane through the origin, {sum_i normal[i] * x_i = 0}.

    The normal is canonicalized to integers with content 1 and a positive
    first nonzero entry.
    """

    __slots__ = ("ring", "normal")

    def __init__(self, ring: PolynomialRing, normal: Sequence[Scalar]):
        vec = [_rational(v) for v in normal]
        if len(vec) != ring.nvars:
            raise ValueError("one normal coordinate per ring variable required")
        if not any(vec):
            raise ValueError("the zero vector is not a hyperplane normal")
        entries = {i: v for i, v in enumerate(vec) if v}
        ints = _primitive_terms(entries, next(iter(entries.values())))
        self.ring = ring
        self.normal = tuple(ints.get(i, 0) for i in range(len(vec)))

    def linear_form(self) -> Polynomial:
        units = self.ring.units
        terms = {units[i]: h for i, h in enumerate(self.normal) if h}
        return Polynomial(self.ring, terms, _clean=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hyperplane)
            and self.ring == other.ring
            and self.normal == other.normal
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.normal))

    def __str__(self) -> str:
        return f"{self.linear_form()} = 0"

    __repr__ = __str__


def parse_form(text: str, ring: PolynomialRing) -> list:
    """Parse a form expression into homogeneous parts, ascending by degree.

    Differentials are written ``d<var>`` and combined with ``*``; a repeated
    differential makes the term zero.  The degree-0 part, when present, is a
    bare polynomial.  The zero form parses to an empty list.
    """
    by_degree: dict = {}
    for idx, terms in parse_mixed_text(text, ring, allow_differentials=True).items():
        by_degree.setdefault(len(idx), {})[idx] = terms
    return [_form(ring, k, by_degree[k]) for k in sorted(by_degree)]


def _differentials(ring: PolynomialRing, idx) -> str:
    """The label ``dx*dy`` of an index tuple."""
    return "*".join("d" + ring.variables[i] for i in idx)


def _form_chunks(x: FormLike) -> list:
    """(sign, body) of each term of ``x``: a coefficient with one term
    multiplies its differentials, a longer one is parenthesized."""
    if isinstance(x, Polynomial):
        return _term_chunks(x)
    chunks = []
    for idx, coeff in x.coefficients():
        differentials = _differentials(x.ring, idx)
        if len(coeff) == 1:
            ((sign, body),) = _term_chunks(coeff)
            chunks.append((sign, differentials if body == "1" else f"{body}*{differentials}"))
        else:
            chunks.append(("+", f"({format_polynomial(coeff)})*{differentials}"))
    return chunks


def format_form(x: FormLike) -> str:
    """Canonical rendering in the input grammar (round-trips through parse)."""
    return _join_chunks(_form_chunks(x))


def format_form_parts(parts: Sequence[FormLike]) -> str:
    """Render a list of homogeneous parts as one expression, which parses
    back to the same parts."""
    return _join_chunks([chunk for part in parts for chunk in _form_chunks(part)])
