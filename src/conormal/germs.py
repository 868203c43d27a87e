"""Decision procedures for differential forms on embedded affine germs.

A :class:`Germ` is a polynomial model of an analytic germ at the origin:
an ambient ring and generators that all vanish at 0.  Whether it is a
hypersurface or a complete intersection is derived from the generators,
never declared.  What the tests below need of the germ itself -- the
differentials of its generators and their wedge product, its Jacobian ideal
and its dimension, its radicality and the modules of its trivial forms --
the germ computes on first use and keeps (see :class:`Germ`).
Because membership is decided in the polynomial ring rather than the local
analytic ring, germ-level claims come back as a :class:`Verdict`: a record
of the polynomials the claim was reduced to and the one that decided it,
whose witness text is rendered only when read, with one of two statuses:

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

The conormality test wedges the candidate form with df_1 ^ ... ^ df_m
(``Germ.jacobian_form``) and checks that every coefficient of the product
lies in the generator ideal; this criterion needs a complete intersection
(dim V(f_1, ..., f_m) = n - m); for other germs :func:`decide` asks the
independent parametrization oracle.  :func:`decide` is the one decision of
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
    _rabinowitsch,
    ideal_membership,
    implicitization,
    krull_dimension,
    radical_membership,
)
from .poly import GREVLEX, Polynomial, PolynomialRing, same_ring


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

    ``tested`` holds the (key, polynomial) pairs the claim was reduced to,
    each claimed to lie in the generator ideal.  A key is ``()`` for a
    degree-0 claim, an index tuple for a coefficient of ``wedge`` = omega ^
    ``Germ.jacobian_form`` (a conormality claim in positive degree; when the
    wedge is the zero form, ``tested`` is empty), or the generator g for the
    derivative V(g) of a tangency claim.  ``offender`` is the pair that
    decided a CertifiedNo, or the polynomial of a degree-0 CertifiedYes that
    the radical test decided.  ``reduced`` is the generator of
    ``Germ.reduced`` when the claim was decided on it, not on the given
    generator.  ``witness`` renders the record as text when it is read;
    labels such as ``dx*dy`` and ``V(g)`` come from the keys and are never
    stored.
    """

    status: VerdictStatus
    tested: tuple
    offender: Optional[tuple] = None
    wedge: Optional[DifferentialForm] = None
    reduced: Optional[Polynomial] = None

    @property
    def is_certified_yes(self) -> bool:
        return self.status is VerdictStatus.CERTIFIED_YES

    @property
    def is_certified_no(self) -> bool:
        return self.status is VerdictStatus.CERTIFIED_NO

    @property
    def witness(self) -> str:
        if self.reduced is None:
            return self._claim()
        return f"on the reduced germ V({self.reduced}): {self._claim()}"

    def _claim(self) -> str:
        if self.wedge is None and self.tested[0][0] == ():
            return _DEGREE_ZERO[self.status, self.offender is not None]
        if self.offender is None:
            if self.wedge is not None:
                return (
                    f"wedge with generator differentials = {format_form(self.wedge)}; "
                    "every coefficient is in the generator ideal"
                )
            shown = "; ".join(f"V({g}) = {p}" for g, p in self.tested)
            return f"{shown}; all in the generator ideal"
        key, p = self.offender
        if self.wedge is None:
            claim = f"V({key}) = {p}"
        else:
            claim = f"coefficient {p} on {_differentials(p.ring, key)}"
        return f"{claim} is not in the radical of the ideal"

    def __str__(self) -> str:
        return f"{self.status.value}: {self.witness}"


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
      minors of the Jacobian matrix and which the conormality test wedges
      every candidate form with;
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
      germs raise a :class:`Refusal` on every access.

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


def _classify(tested, germ: Germ, wedge: Optional[DifferentialForm] = None) -> Optional[Verdict]:
    """The verdict on whether every polynomial of the (key, polynomial)
    pairs ``tested`` lies in the generator ideal of a germ, up to radical
    for a degree-0 claim; None for a claim in positive degree that the
    generators leave open, which the caller decides on ``germ.reduced``.

    The offender is the first pair outside the radical of the ideal.  On a
    radical germ a polynomial outside the ideal is outside its radical, so
    the first failure decides; only other germs run the radical test, and
    only its Rabinowitsch step on a failure, whose plain membership has
    already been reduced.  A failure inside the radical leaves the claim
    open, unless it is a degree-0 claim, which radical membership decides.
    """
    tested = tuple(tested)
    ideal = germ.ideal
    inside = None  # the first pair in the radical but not in the ideal
    for pair in tested:
        if not ideal_membership(pair[1], ideal):
            if germ.radical or not _rabinowitsch(pair[1], ideal):
                return Verdict(VerdictStatus.CERTIFIED_NO, tested, pair, wedge)
            inside = inside or pair
    if inside is None or inside[0] == ():
        return Verdict(VerdictStatus.CERTIFIED_YES, tested, inside, wedge)
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
    vanishing is checked coefficient-wise as ideal membership, and a
    coefficient outside the radical refutes the claim.  A claim that no
    coefficient refutes but one leaves outside the ideal is decided on
    ``germ.reduced`` (never reached when ``germ.radical`` holds).  The
    degree-0 case is radical membership.
    """
    _require_complete_intersection(germ)
    if form_degree(omega) == 0:
        return _classify([((), omega)], germ)
    eta = wedge(omega, germ.jacobian_form)
    return _classify(eta.coefficients(), germ, eta) or _on_reduced(is_conormal, omega, germ)


def is_tangential(field: VectorField, germ: Germ) -> Verdict:
    """Decide whether a vector field is tangent to the reduced germ: V(f_j)
    must vanish on the germ for every generator f_j.  V(f_j) is the field
    contracted with the kept differential df_j.  As for conormality, a
    claim the generators leave open is decided on ``germ.reduced``."""
    pairs = zip(germ.generators, germ.differentials)
    tested = [(g, field.contract(dg)) for g, dg in pairs]
    return _classify(tested, germ) or _on_reduced(is_tangential, field, germ)


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
    if any(a is False or isinstance(a, Verdict) and a.is_certified_no for a in answers):
        return Decision(VerdictStatus.CERTIFIED_NO, source, kept, question=question)
    if reason is not None:
        return Decision(None, "refused", kept, reason, question)
    return Decision(VerdictStatus.CERTIFIED_YES, source, kept, question=question)
