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
whose witness text is rendered only when read, with one of three statuses:

* ``CertifiedYes``   -- established by an exact ideal-membership certificate;
* ``CertifiedNo``    -- refuted even up to radical (the defect survives on
  the reduced zero set, hence at some regular point);
* ``NoCertificate``  -- the claim holds on the reduced zero set but has no
  certificate in the given generator ideal (non-radical generators).

For generators that define a radical ideal CertifiedYes/CertifiedNo match
the analytic truth for polynomial data, and NoCertificate cannot occur.
Radicality is derived, not assumed: ``Germ.radical`` holds for a complete
intersection whose singular locus has smaller dimension than the germ.
Such an ideal is unmixed (Macaulay) and generically reduced (Jacobian
criterion), hence radical, so a failed membership is already a CertifiedNo
and no radical test runs.

The conormality test wedges the candidate form with df_1 ^ ... ^ df_m
(``Germ.jacobian_form``) and checks that every coefficient of the product
lies in the generator ideal; this criterion needs a complete intersection
(dim V(f_1, ..., f_m) = n - m).  Other germs only get the independent
parametrization oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .forms import (
    DifferentialForm,
    FormLike,
    VectorField,
    _term_dict,
    exterior_derivative,
    form_degree,
    format_form,
    pullback,
    wedge,
)
from .groebner import (
    Ideal,
    Submodule,
    ideal_membership,
    implicitization,
    krull_dimension,
    radical_membership,
)
from .poly import Polynomial, PolynomialRing, evaluate, same_ring


class VerdictStatus(Enum):
    CERTIFIED_YES = "CertifiedYes"
    CERTIFIED_NO = "CertifiedNo"
    NO_CERTIFICATE = "NoCertificate"


_DEGREE_ZERO = {
    VerdictStatus.CERTIFIED_YES: "normal form 0 modulo the generator ideal",
    VerdictStatus.CERTIFIED_NO: "does not vanish on the zero set (radical test fails)",
    VerdictStatus.NO_CERTIFICATE: "vanishes on the zero set but is not in the generator ideal",
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
    decided a CertifiedNo or NoCertificate.  ``witness`` renders the record
    as text when it is read; labels such as ``dx*dy`` and ``V(g)`` come from
    the keys and are never stored.
    """

    status: VerdictStatus
    tested: tuple
    offender: Optional[tuple] = None
    wedge: Optional[DifferentialForm] = None

    @property
    def is_certified_yes(self) -> bool:
        return self.status is VerdictStatus.CERTIFIED_YES

    @property
    def is_certified_no(self) -> bool:
        return self.status is VerdictStatus.CERTIFIED_NO

    @property
    def witness(self) -> str:
        if self.wedge is None and self.tested[0][0] == ():
            return _DEGREE_ZERO[self.status]
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
            claim = f"coefficient {p} on " + "*".join("d" + p.ring.variables[i] for i in key)
        if self.is_certified_no:
            return f"{claim} is not in the radical of the ideal"
        return f"{claim} is in the radical but not in the ideal"

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
      codimension 0, ``singular_dimension`` < dim X.

    ``_trivial`` maps a degree k to (positions of the k-index tuples,
    :class:`Submodule` of the degree-k trivial forms), which
    :func:`is_trivial_form` builds on its first test in that degree.
    """

    def __init__(self, ring: PolynomialRing, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("a germ needs at least one generator")
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator ring mismatch")
            if not g:
                raise ValueError("zero generators are not allowed")
            if evaluate(g, (0,) * ring.nvars) != 0:
                raise ValueError(f"generator {g} does not vanish at the origin")
        self.ring = ring
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
        for p in comps:
            if p.ring != ring:
                raise ValueError("component ring mismatch")
            if evaluate(p, (0,) * ring.nvars) != 0:
                raise ValueError("parametrization must send 0 to 0")
        for g in germ.generators:
            if g.substitute(ring, comps):
                raise ValueError(f"parametrization does not satisfy generator {g}")
        self.germ = germ
        self.ring = ring
        self.components = comps

    @cached_property
    def covers(self) -> bool:
        # V(I) lies in V(J), the closure of the image, iff J lies in rad(I).
        image = implicitization(self.germ.ring, self.components)
        return all(radical_membership(g, self.germ.ideal) for g in image.generators)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.components) + ")"


def _classify(tested, germ: Germ, wedge: Optional[DifferentialForm] = None) -> Verdict:
    """The verdict on whether every polynomial of the (key, polynomial)
    pairs ``tested`` lies in the generator ideal of a germ.

    The offender is the first pair failing the strongest test that decides
    the status.  On a radical germ a polynomial outside the ideal is outside
    its radical, so the first failure decides; only other germs run the
    radical test, and only on the failures.
    """
    tested = tuple(tested)
    ideal = germ.ideal
    failures = []
    for pair in tested:
        if not ideal_membership(pair[1], ideal):
            if germ.radical:
                return Verdict(VerdictStatus.CERTIFIED_NO, tested, pair, wedge)
            failures.append(pair)
    for pair in failures:
        if not radical_membership(pair[1], ideal):
            return Verdict(VerdictStatus.CERTIFIED_NO, tested, pair, wedge)
    if failures:
        return Verdict(VerdictStatus.NO_CERTIFICATE, tested, failures[0], wedge)
    return Verdict(VerdictStatus.CERTIFIED_YES, tested, None, wedge)


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
    ``germ.jacobian_form`` = df_1 ^ ... ^ df_m vanishes on the germ; vanishing
    is checked coefficient-wise as ideal membership, with radical membership
    as the fallback that separates CertifiedNo from NoCertificate (not
    needed when ``germ.radical`` holds).  The degree-0 case is plain
    (radical) ideal membership.
    """
    _require_complete_intersection(germ)
    same_ring(omega, germ.generators[0])
    if form_degree(omega) == 0:
        return _classify([((), omega)], germ)
    eta = wedge(omega, germ.jacobian_form)
    return _classify(eta.coefficients(), germ, eta)


def is_tangential(field: VectorField, germ: Germ) -> Verdict:
    """Decide whether a vector field is tangent to the germ: V(f_j) must
    vanish on the germ for every generator f_j."""
    same_ring(field, germ.generators[0])
    return _classify([(g, field.apply(g)) for g in germ.generators], germ)


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
            form = DifferentialForm(ring, k, {S: f}, _clean=True)
            if form not in seen:
                seen.add(form)
                out.append(form)
    for df in germ.differentials:
        for T in combinations(range(n), k - 1):
            basis_form = (
                ring.one if not T else DifferentialForm(ring, k - 1, {T: ring.one}, _clean=True)
            )
            form = wedge(df, basis_form)
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
            ((positions[S], c) for S, c in g.coefficients())
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
    return module.contains((positions[S], c) for S, c in omega.coefficients())


def vanishes_on_singular_locus(omega: FormLike, germ: Germ) -> bool:
    """Whether every coefficient of the form vanishes on the singular locus
    of a hypersurface germ (radical membership in the Jacobian ideal)."""
    if not germ.hypersurface:
        raise ValueError("the germ is not a hypersurface, which the singular-locus test needs")
    same_ring(omega, germ.generators[0])
    return all(radical_membership(c, germ.jacobian) for c in _term_dict(omega).values())


def oracle_conormal_on_parametrization(omega: FormLike, par: Parametrization) -> bool:
    """Independent tangent-space oracle: the form is conormal on the
    parametrized locus iff its pullback along the parametrization
    (x_j <- p_j, dx_j <- dp_j) vanishes identically in the parameters."""
    same_ring(omega, par.germ.generators[0])
    return not pullback(omega, par.components)
