"""Decision procedures for differential forms on embedded affine germs.

A :class:`Germ` is a polynomial model of an analytic germ at the origin:
an ambient ring and generators that all vanish at 0.  Whether it is a
hypersurface or a complete intersection is derived from the generators,
never declared.  What the tests below need of the germ itself -- the
differentials of its generators and their wedge product, its Jacobian ideal
and its dimension, its radicality and the modules of its trivial forms --
the germ computes on first use and keeps (see :class:`Germ`).
Because membership is decided in the polynomial ring rather than the local
analytic ring, germ-level claims come back as a :class:`Verdict`: the claim,
the germ it was decided on and the key of the polynomial that decided it,
from which the record of what was tested and the witness text are made only
when read, with one of two statuses:

* ``CertifiedYes`` -- established by an exact ideal-membership certificate,
  or, for a polynomial (a degree-0 claim), by radical membership;
* ``CertifiedNo``  -- refuted even up to radical (the defect survives on
  the reduced zero set, hence at some regular point).

The paper's germs are reduced, so every claim is decided on the reduced
germ.  Radicality is derived, not assumed: ``Germ.radical`` holds for a
complete intersection whose singular locus has smaller dimension than the
germ.  Such an ideal is unmixed (Macaulay) and generically reduced (Jacobian
criterion), hence radical: the germ is its own reduced germ, a failed
membership is already a CertifiedNo and no radical test runs.  On another
germ a failed membership runs the radical test.  A polynomial outside the
radical refutes the claim, and one inside it settles a degree-0 claim as
CertifiedYes.  A claim in positive degree that survives it is decided on
``Germ.reduced``, the germ of the squarefree part of a hypersurface's
generator; on other germs it is refused with a :class:`Refusal`, a
``ValueError`` that gives the reason.

A form is conormal when every coefficient of its wedge with df_1 ^ ... ^
df_m (``Germ.jacobian_form``) lies in the generator ideal; this criterion
needs a complete intersection (dim V(f_1, ..., f_m) = n - m); for other
germs :func:`decide` asks the independent parametrization oracle.  A field
V is tangent when every V(f_j) lies in the ideal.  Both tests are Q-linear
in the claim once normal forms are taken, because the normal form modulo a
Groebner basis is unique (Cox-Little-O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 2 section 6).  So a germ keeps one table of rows per test
(see :class:`_Table`), the exact normal forms of m*dx_idx ^ df_1 ^ ... ^ df_m
and of m*d_j f_i per word m, and a test adds c*row over the terms of the
claim into one flat sum.  A polynomial, a degree-0 claim, is conormal when
it vanishes on X, so its row is the identity's: the normal form of m.
The images come from the package's own kernels, the wedge from the one
product of raw mixed forms ``_expr.mixed_mul`` and the normal form of each
word from ``groebner._normal_form``, the one reader of the ideal's table.
A warm test makes no wedge and no contraction, and no polynomial but the
normal form that a non-radical germ hands to its Rabinowitsch step: the
nonzero entries of the sum are the normal forms of the coefficients
outside the ideal, from which ``_classify`` decides.
:func:`decide` is the one decision of
every claim: conormal, tangent, trivial, vanishes on Sing X, or pulled back
to zero by the oracle.  It asks each part of the claim and aggregates the
answers into one :class:`Decision`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, partial
from itertools import combinations
from typing import Optional, Sequence

from ._expr import mixed_mul
from .forms import (
    DifferentialForm,
    FormLike,
    VectorField,
    _differentials,
    _form,
    _raw,
    exterior_derivative,
    form_degree,
    format_form,
    pullback,
    wedge,
)
from .groebner import (
    Ideal,
    Submodule,
    _colon,
    _normal_form,
    _rabinowitsch,
    ideal_membership,
    implicitization,
    krull_dimension,
    radical_membership,
)
from .poly import GREVLEX, Polynomial, PolynomialRing, _check_degree, same_ring


class VerdictStatus(Enum):
    CERTIFIED_YES = "CertifiedYes"
    CERTIFIED_NO = "CertifiedNo"


class Refusal(ValueError):
    """A claim in positive degree that the generators leave open on a germ
    whose reduced germ is not computed; the message gives the reason."""


# (status, whether the radical test decided) -> witness of a degree-0 claim
_DEGREE_ZERO = {
    (VerdictStatus.CERTIFIED_YES, False): "normal form 0 modulo the generator ideal",
    (VerdictStatus.CERTIFIED_YES, True):
        "vanishes on the zero set (in the radical of the generator ideal)",
    (VerdictStatus.CERTIFIED_NO, True): "does not vanish on the zero set (radical test fails)",
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of a germ-level claim checked in the polynomial ring.

    A verdict keeps the ``claim`` (a polynomial, a form of positive degree
    or a vector field), the ``germ`` it was decided on and the ``key`` of
    the polynomial that decided it, or None.  ``reduced`` is the generator
    of ``Germ.reduced`` when the claim was decided on it, not on the given
    generator.  Deciding makes no more: the record below is made from these
    fields when it is read, as the witness is.

    * ``wedge``: omega ^ ``Germ.jacobian_form`` for a form; None otherwise;
    * ``tested``: the (key, polynomial) pairs the claim was reduced to, each
      claimed to lie in the generator ideal.  A key is ``()`` for a degree-0
      claim, an index tuple for a coefficient of ``wedge`` (a conormality
      claim in positive degree; when the wedge is the zero form, ``tested``
      is empty), or the generator g for the derivative V(g) of a tangency
      claim;
    * ``offender``: the pair that decided a CertifiedNo, or the polynomial
      of a degree-0 CertifiedYes that the radical test decided.

    The field ``key`` is that pair's key, or for a tangency claim the
    position of its generator.  ``witness`` renders the record as text;
    labels such as ``dx*dy`` and ``V(g)`` come from the keys and are never
    stored.
    """

    status: VerdictStatus
    claim: object
    germ: Germ
    key: object = None
    reduced: Optional[Polynomial] = None

    @cached_property
    def wedge(self) -> Optional[DifferentialForm]:
        if isinstance(self.claim, DifferentialForm):
            return wedge(self.claim, self.germ.jacobian_form)
        return None

    @cached_property
    def tested(self) -> tuple:
        claim, germ = self.claim, self.germ
        if isinstance(claim, VectorField):
            pairs = zip(germ.generators, germ.differentials)
            return tuple((g, claim.contract(dg)) for g, dg in pairs)
        if self.wedge is None:
            return (((), claim),)
        return tuple(self.wedge.coefficients())

    @property
    def offender(self) -> Optional[tuple]:
        key = self.key
        if key is None:
            return None
        if isinstance(self.claim, VectorField):
            return self.tested[key]
        if self.wedge is None:
            return (), self.claim
        return key, self.wedge.coefficient(key)

    @property
    def witness(self) -> str:
        if self.reduced is None:
            return self._claim()
        return f"on the reduced germ V({self.reduced}): {self._claim()}"

    def _claim(self) -> str:
        if isinstance(self.claim, Polynomial):
            return _DEGREE_ZERO[self.status, self.key is not None]
        field = isinstance(self.claim, VectorField)
        if self.key is None:
            if field:
                shown = "; ".join(f"V({g}) = {p}" for g, p in self.tested)
                return f"{shown}; all in the generator ideal"
            return (
                f"wedge with generator differentials = {format_form(self.wedge)}; "
                "every coefficient is in the generator ideal"
            )
        key, p = self.offender
        claim = f"V({key}) = {p}" if field else f"coefficient {p} on {_differentials(p.ring, key)}"
        return f"{claim} is not in the radical of the ideal"

    def __str__(self) -> str:
        return f"{self.status.value}: {self.witness}"


class _Table:
    """The rows of one Q-linear map of a germ's claims into exact normal
    forms modulo its generator ideal, filled on first use and kept.

    A claim is a sum of terms c*m at positions ``prefix``: an index tuple
    idx for m*dx_idx (the empty tuple for a polynomial), or a variable j
    for m*d/dx_j.  ``images`` maps each position to the (key, term dict)
    pairs that the term 1 there maps to, and the row of (prefix, m) is the
    normal form of the sum of m*terms on each key, read word by word
    through ``groebner._normal_form``, the one reader of the ideal's table
    (see :class:`~conormal.groebner.Ideal`).  ``rows[prefix]`` maps m to
    the row, stored flat as ``((code, value), ...)`` with one int code per
    (key, word): ``codes[key]`` maps the word to its code, assigned in fill
    order, and ``keys`` maps the code back.  The two sums, in ``_fill`` and
    :meth:`normal_forms`, keep loops of their own: they add scaled values
    into dicts keyed by codes, not by words, which the sum kernel
    ``poly._add_into`` neither scales nor takes as tuples.  The normal form
    modulo a Groebner basis is unique, so a row never goes stale; it holds
    for its germ alone, and no table is shared."""

    __slots__ = ("ideal", "images", "rows", "codes", "keys")

    def __init__(self, ideal: Ideal, images: dict):
        self.ideal, self.images = ideal, images
        self.rows = {prefix: {} for prefix in images}
        self.codes, self.keys = {}, []

    def _fill(self, prefix, m: int) -> tuple:
        ideal, limit, keys, acc = self.ideal, self.ideal.ring.limit, self.keys, {}
        for key, terms in self.images[prefix]:
            _check_degree(m + max(terms), limit)
            codes = self.codes.setdefault(key, {})
            for w, c in terms.items():
                for t, v in _normal_form(m + w, ideal):
                    code = codes.get(t)
                    if code is None:
                        code = codes[t] = len(keys)
                        keys.append((key, t))
                    acc[code] = acc.get(code, 0) + c * v
        row = self.rows[prefix][m] = tuple([(code, v) for code, v in acc.items() if v])
        return row

    def normal_forms(self, parts) -> list:
        """The sum of c*row over the terms c*m of a claim, given as
        (prefix, term dict) pairs: the (key, term dict) pairs, sorted by
        key, of its nonzero normal forms."""
        rows, total = self.rows, {}
        for prefix, terms in parts:
            filled = rows[prefix]
            for m, c in terms.items():
                row = filled.get(m)
                if row is None:
                    row = self._fill(prefix, m)
                for code, v in row:
                    total[code] = total.get(code, 0) + c * v
        keys, out = self.keys, {}
        for code, v in total.items():
            if v:
                key, word = keys[code]
                out.setdefault(key, {})[word] = v
        return sorted(out.items())


class Germ:
    """An embedded affine germ at the origin, X = V(f_1, ..., f_m) in C^n.

    Plain attributes, set at construction:

    * ``ring``, ``generators``;
    * ``ideal``: the generator ideal, which caches its grevlex basis for
      membership tests;
    * ``hypersurface``: m == 1;
    * ``dimension``: dim X; n - 1 for a hypersurface (Krull's principal ideal
      theorem), otherwise from the generator ideal's basis;
    * ``complete_intersection``: dim X == n - m.

    Derived facts, each computed on first use and kept (``cached_property``):

    * ``differentials``: the exterior derivatives df_1, ..., df_m;
    * ``jacobian_form``: df_1 ^ ... ^ df_m, whose coefficients are the m x m
      minors of the Jacobian matrix;
    * ``jacobian``: the ideal of Sing X for a complete intersection, the
      generators plus the nonzero coefficients of ``jacobian_form``; it
      raises on every access for other germs;
    * ``singular_dimension``: dim Sing X = dim V(jacobian), which the
      radicality test, the regularity table and the section harness read;
    * ``radical``: the generator ideal is provably radical, i.e. the germ is a
      complete intersection (so its ideal is unmixed) and regular in
      codimension 0, ``singular_dimension`` < dim X;
    * ``reduced``: the reduced germ, ``self`` when ``radical`` holds.  For
      another hypersurface V(f) it is V(g), g the primitive generator of the
      one colon (f*R^k : (d_i f)_i) over the k nonzero partials (see
      ``groebner._colon``), which is (f) : (d_1 f, ..., d_k f), the
      squarefree part of f; the given generator stays for display.  Other
      germs raise a :class:`Refusal` on every access;
    * ``_conormal_table`` and ``_tangent_table``: the :class:`_Table` rows,
      under grevlex, of the two linear maps the tests read.  The row of
      (idx, m) is the normal form of m*dx_idx ^ ``jacobian_form``, by index
      tuple, its image the product ``_expr.mixed_mul`` of dx_idx and
      ``jacobian_form``; the row of ((), m), for a polynomial, is the normal
      form of m, by the key ().  The row of (j, m) is that of m*d_j f_i, by
      generator position i.  Each gains its rows as claims reach them.

    ``_trivial`` maps a degree k to (positions of the k-index tuples,
    :class:`Submodule` of the degree-k trivial forms), which
    :func:`is_trivial_form` builds on its first test in that degree.
    """

    def __init__(self, ring: PolynomialRing, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("a germ needs at least one generator")
        self.ring = ring
        same_ring(self, *gens)
        for g in gens:
            if not g:
                raise ValueError("zero generators are not allowed")
            if g.constant_coefficient() != 0:
                raise ValueError(f"generator {g} does not vanish at the origin")
        self.generators = gens
        self.ideal = Ideal(gens)
        self.hypersurface = len(gens) == 1
        # A nonzero generator vanishing at 0 is not constant: Krull's
        # principal ideal theorem gives a hypersurface dimension n - 1.
        self.dimension = ring.nvars - 1 if self.hypersurface else krull_dimension(self.ideal)
        self.complete_intersection = self.dimension == ring.nvars - len(gens)
        self._trivial = {}

    @cached_property
    def jacobian(self) -> Ideal:
        if not self.complete_intersection:
            raise ValueError(
                "the germ is not a complete intersection, which the jacobian ideal needs"
            )
        minors = [c for _, c in self.jacobian_form.coefficients()]
        return Ideal(list(self.generators) + minors)

    @cached_property
    def singular_dimension(self) -> int:
        return krull_dimension(self.jacobian)

    @cached_property
    def radical(self) -> bool:
        return self.complete_intersection and self.singular_dimension < self.dimension

    @cached_property
    def reduced(self) -> "Germ":
        if self.radical:
            return self
        if not self.hypersurface:
            # A complete intersection is radical iff it passes ``radical``.
            known = "is not" if self.complete_intersection else "may not be"
            raise Refusal(
                f"the germ {known} reduced, and a reduced germ is computed only for a "
                "hypersurface"
            )
        [f], partials = self.generators, [p for _, p in self.differentials[0].coefficients()]
        k = len(partials)
        [g] = _colon(self.ring, k, ([(i, f._terms)] for i in range(k)), partials).generators
        return Germ(self.ring, [g.primitive(GREVLEX)])

    @cached_property
    def differentials(self) -> tuple:
        return tuple(exterior_derivative(g) for g in self.generators)

    @cached_property
    def jacobian_form(self) -> DifferentialForm:
        form = self.differentials[0]
        for dg in self.differentials[1:]:
            form = wedge(form, dg)
        return form

    @cached_property
    def _conormal_table(self) -> _Table:
        ring, eta = self.ring, self.jacobian_form._terms
        images = {(): [((), {0: 1})]}
        for k in range(1, ring.nvars + 1):
            for idx in combinations(range(ring.nvars), k):
                images[idx] = list(mixed_mul({idx: {0: 1}}, eta, ring.limit).items())
        return _Table(self.ideal, images)

    @cached_property
    def _tangent_table(self) -> _Table:
        images = {j: [(i, dg._terms[j,]) for i, dg in enumerate(self.differentials)
                         if (j,) in dg._terms] for j in range(self.ring.nvars)}
        return _Table(self.ideal, images)

    def __str__(self) -> str:
        return "V(" + ", ".join(str(g) for g in self.generators) + f") in {self.ring}"

    __repr__ = __str__


class Parametrization:
    """A polynomial map (C^d, 0) -> (C^n, 0) landing in the germ.

    Substituting the components into every germ generator must give the zero
    polynomial; this is checked at construction, making the parametrization
    a trustworthy independent oracle for tangent-space computations on the
    image.  ``covers``, computed on first use and kept, says whether the
    image is dense in X, so that the oracle speaks for all of X.
    """

    def __init__(self, germ: Germ, ring: PolynomialRing, components: Sequence[Polynomial]):
        comps = tuple(components)
        if len(comps) != germ.ring.nvars:
            raise ValueError("one component per ambient variable required")
        self.ring = ring
        same_ring(self, *comps)
        for p in comps:
            if p.constant_coefficient() != 0:
                raise ValueError("parametrization must send 0 to 0")
        for g in germ.generators:
            if g.substitute(ring, comps):
                raise ValueError(f"parametrization does not satisfy generator {g}")
        self.germ = germ
        self.components = comps

    @cached_property
    def covers(self) -> bool:
        # V(I) lies in V(J), the closure of the image, iff J lies in rad(I).
        image = implicitization(self.germ.ring, self.components)
        return all(radical_membership(g, self.germ.ideal) for g in image.generators)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.components) + ")"


def _require_parametrization_of(germ: Germ, parametrization: Optional[Parametrization]):
    if parametrization is not None and parametrization.germ.generators != germ.generators:
        raise ValueError("the parametrization is of a germ with other generators")


def _classify(claim, germ: Germ, pairs) -> Optional[Verdict]:
    """The verdict on whether every polynomial a claim was reduced to lies
    in the generator ideal of a germ, up to radical for a degree-0 claim;
    None for a claim in positive degree that the generators leave open,
    which the caller decides on ``germ.reduced``.  ``pairs`` are the (key,
    term dict) pairs, sorted by key, of the nonzero normal forms of those
    polynomials modulo the ideal's basis: the ones outside the ideal.

    The offender is the first key outside the radical of the ideal.  On a
    radical germ a polynomial outside the ideal is outside its radical, so
    the first pair decides; only other germs run the Rabinowitsch step, on
    the normal form, which is congruent to the polynomial modulo the ideal
    and so lies in its radical iff the polynomial does.  A pair inside the
    radical leaves the claim open, unless it is a degree-0 claim, which
    radical membership decides.
    """
    inside = None  # the key of the first pair in the radical but not in the ideal
    for key, terms in pairs:
        if germ.radical or not _rabinowitsch(Polynomial(germ.ring, terms, _clean=True), germ.ideal):
            return Verdict(VerdictStatus.CERTIFIED_NO, claim, germ, key)
        if inside is None:
            inside = key
    if inside is None or inside == ():
        return Verdict(VerdictStatus.CERTIFIED_YES, claim, germ, inside)
    return None


def _on_reduced(test, claim, germ: Germ) -> Verdict:
    """``test`` of a claim the given generators leave open, on the reduced
    germ; a germ without one raises its :class:`Refusal`."""
    reduced = germ.reduced
    return replace(test(claim, reduced), reduced=reduced.generators[0])


def _require_complete_intersection(germ: Germ):
    if not germ.complete_intersection:
        raise ValueError(
            "the germ is not a complete intersection, which the conormality "
            "criterion needs; use the parametrization oracle for other germs"
        )


def is_conormal(omega: FormLike, germ: Germ) -> Verdict:
    """Decide whether a homogeneous form vanishes on the tangent spaces of
    the germ at its regular points.

    For a complete intersection the form is conormal iff its wedge with
    ``germ.jacobian_form`` = df_1 ^ ... ^ df_m vanishes on the reduced germ;
    vanishing is checked coefficient-wise as ideal membership, by the normal
    forms of the coefficients that ``germ._conormal_table`` adds up, and a
    coefficient outside the radical refutes the claim.  A claim that no
    coefficient refutes but one leaves outside the ideal is decided on
    ``germ.reduced`` (never reached when ``germ.radical`` holds).  Every
    degree takes the one path: a polynomial reads the table's identity row,
    so its normal form goes on to radical membership, which decides it.
    """
    _require_complete_intersection(germ)
    same_ring(omega, germ)
    pairs = germ._conormal_table.normal_forms(_raw(omega).items())
    return _classify(omega, germ, pairs) or _on_reduced(is_conormal, omega, germ)


def is_tangential(field: VectorField, germ: Germ) -> Verdict:
    """Decide whether a vector field is tangent to the reduced germ: V(f_j)
    must vanish on the germ for every generator f_j.  The normal forms of
    the V(f_j) = sum_i V_i * d_i f_j are added up from
    ``germ._tangent_table``.  As for conormality, a claim the generators
    leave open is decided on ``germ.reduced``."""
    same_ring(field, germ)
    parts = enumerate(c._terms for c in field.components)
    pairs = germ._tangent_table.normal_forms(parts)
    return _classify(field, germ, pairs) or _on_reduced(is_tangential, field, germ)


def trivial_form_generators(germ: Germ, k: int) -> list:
    """Generators of the degree-k piece of the differential ideal generated
    by the germ ideal: all f_j * dx_S and all df_j ^ dx_T."""
    ring = germ.ring
    n = ring.nvars
    if not 1 <= k <= n:
        raise ValueError(f"degree must be between 1 and {n}")
    out = []
    seen = set()
    for f in germ.generators:
        for S in combinations(range(n), k):
            form = _form(ring, k, {S: f._terms})
            if form not in seen:
                seen.add(form)
                out.append(form)
    for df in germ.differentials:
        for T in combinations(range(n), k - 1):
            form = wedge(df, _form(ring, k - 1, {T: {0: 1}}))
            if form and form not in seen:
                seen.add(form)
                out.append(form)
    return out


def _trivial_module(germ: Germ, k: int) -> tuple:
    # (positions, submodule) for the degree-k trivial forms, built on first
    # use and kept on the germ.
    cached = germ._trivial.get(k)
    if cached is None:
        positions = {S: p for p, S in enumerate(combinations(range(germ.ring.nvars), k))}
        gens = (
            ((positions[S], t) for S, t in g._terms.items())
            for g in trivial_form_generators(germ, k)
        )
        cached = germ._trivial[k] = (positions, Submodule(germ.ring, len(positions), gens))
    return cached


def is_trivial_form(omega: FormLike, germ: Germ) -> bool:
    """Whether a homogeneous form lies in the differential ideal generated
    by the germ ideal.  In degree 0 that is membership in the germ ideal.
    In degree k >= 1 it is membership in the submodule generated by the
    trivial k-forms, over the basis of k-index tuples in lexicographic
    order, whose Groebner basis the germ computes once per degree and
    keeps."""
    same_ring(omega, germ.generators[0])
    k = form_degree(omega)
    if k == 0:
        return ideal_membership(omega, germ.ideal)
    if k > germ.ring.nvars:
        return True  # only the zero form
    positions, module = _trivial_module(germ, k)
    return module.contains((positions[S], t) for S, t in omega._terms.items())


def vanishes_on_singular_locus(omega: FormLike, germ: Germ) -> bool:
    """Whether every coefficient of the form vanishes on the singular locus
    of a hypersurface germ (radical membership in the Jacobian ideal)."""
    if not germ.hypersurface:
        raise ValueError("the germ is not a hypersurface, which the singular-locus test needs")
    same_ring(omega, germ.generators[0])
    coeffs = (Polynomial(germ.ring, t, _clean=True) for t in _raw(omega).values())
    return all(radical_membership(c, germ.jacobian) for c in coeffs)


def oracle_conormal_on_parametrization(omega: FormLike, par: Parametrization) -> bool:
    """Independent tangent-space oracle: the form is conormal on the
    parametrized locus iff its pullback along the parametrization
    (x_j <- p_j, dx_j <- dp_j) vanishes identically in the parameters."""
    same_ring(omega, par.germ.generators[0])
    return not pullback(omega, par.components)


@dataclass(frozen=True)
class Decision:
    """What :func:`decide` found on a ``question``, and what decided it.

    ``source`` is ``"criterion"`` (``verdicts`` holds the question's
    primitive's answer on each part: a :class:`Verdict` for conormal and
    tangent, a ``bool`` for trivial and vanishes, None for a part it
    refuses; the zero form has no part), ``"oracle"`` (the parametrization
    oracle: CertifiedYes iff every part pulls back to zero, else
    CertifiedNo; it keeps no answer per part) or ``"refused"`` (``status``
    None, for ``reason``)."""

    status: Optional[VerdictStatus]
    source: str
    verdicts: tuple = ()
    reason: Optional[str] = None
    question: str = "conormal"


# question -> the primitive that answers it on one part of a claim
_CRITERIA = {
    "conormal": is_conormal,
    "tangent": is_tangential,
    "trivial": is_trivial_form,
    "vanishes": vanishes_on_singular_locus,
}


def _oracle(part: FormLike, parametrization: Optional[Parametrization], covering: bool) -> bool:
    """The parametrization oracle on one part; ``covering``, for a
    conormality claim, refuses unless the parametrization covers X."""
    if parametrization is None:
        if covering:
            raise Refusal("germ is not a complete intersection and has no parametrization")
        raise ValueError("the oracle needs a parametrization")
    if covering and not parametrization.covers:
        raise Refusal("the parametrization covers only part of X")
    return oracle_conormal_on_parametrization(part, parametrization)


def decide(
    parts: Sequence,
    germ: Germ,
    parametrization: Optional[Parametrization] = None,
    question: str = "conormal",
) -> Decision:
    """The answer to ``question`` for the claim with ``parts`` on the germ.

    ``question`` is ``"conormal"``, ``"tangent"`` (the parts are vector
    fields), ``"trivial"``, ``"vanishes"`` (on Sing X) or ``"oracle"`` (the
    parts pull back to zero along the parametrization); any other question
    raises ``ValueError``.  Each part is asked by the question's primitive;
    a conormality claim on a germ that is not a complete intersection asks
    the parametrization oracle instead, which it trusts only when the
    parametrization covers X.  One refuted part
    refutes the claim, even if another part is refused; otherwise a
    :class:`Refusal` of a part refuses the claim with its reason; otherwise
    the claim is certified.  Any other ``ValueError`` is raised.
    """
    if question != "oracle" and question not in _CRITERIA:
        raise ValueError(f"unknown question {question!r}: ask 'conormal', 'tangent', "
                         "'trivial', 'vanishes' or 'oracle'")
    _require_parametrization_of(germ, parametrization)
    oracle = question == "oracle" or (
        question == "conormal" and bool(parts) and not germ.complete_intersection
    )
    if oracle:
        test = partial(_oracle, parametrization=parametrization, covering=question == "conormal")
    else:
        test = partial(_CRITERIA[question], germ=germ)
    answers, reason = [], None
    for part in parts:
        try:
            answers.append(test(part))
        except Refusal as e:
            answers.append(None)
            reason = reason or str(e)
    source, kept = ("oracle", ()) if oracle else ("criterion", tuple(answers))
    if any(a is False or isinstance(a, Verdict) and a.status is VerdictStatus.CERTIFIED_NO
           for a in answers):
        return Decision(VerdictStatus.CERTIFIED_NO, source, kept, question=question)
    if reason is not None:
        return Decision(None, "refused", kept, reason, question)
    return Decision(VerdictStatus.CERTIFIED_YES, source, kept, question=question)
