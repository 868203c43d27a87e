"""Singular loci, regularity in codimension k, hyperplane sections, and the
randomized hyperplane-section harness.

The harness cuts a hypersurface germ with hyperplanes through the origin
and compares the singular locus of the section with the sliced singular
locus.  Generic sections confirm the expected behaviour (section reduced,
loci equal as point sets); degenerate hyperplanes are classified after the
fact by diagnostics instead of deciding transversality up front:

* the section is non-reduced,
* the hyperplane contains (a component of) the singular locus (Sing X on H
  has the section's singular dimension unless H is tangent),
* the hyperplane is tangent to the hypersurface at a regular point of the
  intersection (decided exactly in the section ring: the sliced Jacobian
  ideal is the section's Jacobian ideal plus the pivot partial restricted to
  H, and H is tangent iff that partial is not zero on all of Sing(X cap H)),
* for a tangent H only, an exactly checked witness: the first sampled point
  of a supplied parametrization on H where df is a nonzero multiple of dl.

A report has two outcomes: ``ConfirmsTheorem`` when the section is reduced
and the loci are equal, ``TransversalityFails`` otherwise, and then a
diagnostic always says why, since a non-reduced section and a tangent H
(the only way the loci differ) each add one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Optional

from .forms import Hyperplane
from .germs import Germ, Parametrization, _require_parametrization_of
from .groebner import Ideal, krull_dimension, radical_membership
from .poly import Polynomial, PolynomialRing, _div, evaluate


class BertiniVerdict(Enum):
    CONFIRMS_THEOREM = "ConfirmsTheorem"
    TRANSVERSALITY_FAILS = "TransversalityFails"


@dataclass(frozen=True)
class BertiniReport:
    """Outcome of one hyperplane-section check.  The verdict is derived:
    the loci differ only where H is tangent, and that adds a diagnostic, as
    a non-reduced section does, so a failing report always says why."""

    hyperplane: Hyperplane
    section: Optional[Germ]
    section_reduced: bool
    singular_loci_equal: bool
    diagnostics: tuple

    @property
    def verdict(self) -> BertiniVerdict:
        if self.section_reduced and self.singular_loci_equal:
            return BertiniVerdict.CONFIRMS_THEOREM
        return BertiniVerdict.TRANSVERSALITY_FAILS


def jacobian_ideal(germ: Germ) -> Ideal:
    """Ideal whose zero set is the singular locus of a complete intersection
    with m generators: the generators plus the nonzero coefficients of
    ``germ.jacobian_form`` = df_1 ^ ... ^ df_m, i.e. the m x m minors of the
    Jacobian matrix (for a hypersurface, its nonzero partials).  This is
    ``germ.jacobian``, built on first use and kept on the germ together with
    the bases it caches; it raises for a germ that is not a complete
    intersection.
    """
    return germ.jacobian


def regular_in_codimension(germ: Germ, k: int) -> bool:
    """Whether the singular locus has codimension greater than k inside the
    germ: dim Sing X < dim X - k."""
    dim = germ.dimension
    if not 0 <= k <= dim:
        raise ValueError(f"codimension must be between 0 and dim X = {dim}")
    return germ.singular_dimension < dim - k


def hyperplane_section(germ: Germ, hyperplane: Hyperplane) -> Germ:
    """Cut a hypersurface germ (n >= 3) with a hyperplane through 0.

    The hyperplane is solved for its pivot variable and substituted into the
    defining equation; the remaining variables keep their names and order.
    Raises if the hyperplane is contained in the germ (zero section).
    """
    _require_section_input(germ, hyperplane)
    return _cut(germ, hyperplane)[0]


def _require_section_input(germ: Germ, hyperplane: Hyperplane):
    if germ.ring.nvars < 3:
        raise ValueError("the section harness needs an ambient dimension of at least 3")
    if not germ.hypersurface:
        raise ValueError("the section harness is defined for hypersurface germs")
    if hyperplane.ring != germ.ring:
        raise ValueError("hyperplane ring mismatch")


def _cut(germ: Germ, hyperplane: Hyperplane):
    """The section germ, the pivot p (the first variable with a nonzero
    normal entry) and the images of the ambient variables on H; raises if
    the hyperplane is contained in the germ.

    The section ring keeps the other variables y_i, in their order.  The
    pivot maps to the solution -sum_i (h_i/h_p)*y_i of the hyperplane and
    every other variable to itself; the section's generator is the germ's
    through that ring map, :meth:`Polynomial.substitute`.
    """
    normal, pivot = hyperplane.normal, _pivot(hyperplane)
    section_ring = PolynomialRing([v for i, v in enumerate(germ.ring.variables) if i != pivot])
    others = [h for i, h in enumerate(normal) if i != pivot]
    solved = {section_ring.units[k]: _div(-h, normal[pivot]) for k, h in enumerate(others) if h}
    images = list(section_ring.gens())
    images.insert(pivot, Polynomial(section_ring, solved, _clean=True))
    g = germ.generators[0].substitute(section_ring, images)
    if not g:
        raise ValueError("the hyperplane is contained in the germ")
    return Germ(section_ring, [g]), pivot, images


def _pivot(hyperplane: Hyperplane) -> int:
    return next(i for i, h in enumerate(hyperplane.normal) if h)


def _witness_notes(germ: Germ, hyperplane: Hyperplane, par: Parametrization) -> list:
    """A point witness for a tangent H: the first sampled point p = par(s)
    with l(p) = 0 and df(p) nonzero and parallel to the normal, i.e.
    (df ^ dl)(p) = 0, read from the germ's kept df."""
    samples = [0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2]
    normal, pivot = hyperplane.normal, _pivot(hyperplane)
    partials = [germ.differentials[0].coefficient((i,)) for i in range(len(normal))]
    for values in product(samples, repeat=par.ring.nvars):
        point = [evaluate(p, values) for p in par.components]
        if sum(h * x for h, x in zip(normal, point)):
            continue
        grad = [evaluate(d, point) for d in partials]
        if grad[pivot] and all(g * normal[pivot] == grad[pivot] * h for g, h in zip(grad, normal)):
            return [f"H is tangent to X at the parametrized point ({', '.join(map(str, point))})"]
    return []


def bertini_check(
    germ: Germ, hyperplane: Hyperplane, parametrization: Optional[Parametrization] = None
) -> BertiniReport:
    """Compare the singular locus of the hyperplane section with the sliced
    singular locus, classifying any disagreement with diagnostics.

    Both loci live in the section ring C[x]/(l), into which the images
    :func:`_cut` builds carry a polynomial by solving l for the pivot p.
    With g the restriction of f and phi that of d_p f, the chain rule gives
    the restriction of d_k f as dg/dy_k + (h_k/h_p) phi, so the sliced
    Jacobian ideal is the section's Jacobian ideal plus (phi).  The loci are
    equal as point sets iff phi is in the radical of the section's Jacobian
    ideal, one radical membership; then the sliced locus has the section's
    singular dimension, and only a tangent H needs a dimension of its own.
    """
    _require_section_input(germ, hyperplane)
    _require_parametrization_of(germ, parametrization)
    try:
        section, pivot, images = _cut(germ, hyperplane)
    except ValueError:
        return BertiniReport(hyperplane, None, False, False, ("H is contained in X",))
    diagnostics = []

    section_jac = jacobian_ideal(section)
    reduced = section.radical
    if not reduced:
        diagnostics.append("section is non-reduced (H is tangent to X along a locus)")

    phi = germ.differentials[0].coefficient((pivot,)).substitute(section.ring, images)
    tangent = not radical_membership(phi, section_jac)

    dim_sing = germ.singular_dimension
    if dim_sing >= 1:
        dim_cut = (
            krull_dimension(Ideal(section_jac.generators + (phi,)))
            if tangent else section.singular_dimension
        )
        # Sing X inside H forces dim (Sing X on H) = dim Sing X.
        if dim_cut >= dim_sing:
            whole = radical_membership(hyperplane.linear_form(), jacobian_ideal(germ))
            held = "Sing X" if whole else "a positive-dimensional component of Sing X"
            diagnostics.append(f"H contains {held}")

    if tangent:
        diagnostics.append("H is tangent to X at a regular point of X on H")
        if parametrization is not None:
            diagnostics.extend(_witness_notes(germ, hyperplane, parametrization))

    return BertiniReport(hyperplane, section, reduced, not tangent, tuple(diagnostics))


def random_hyperplane(ring: PolynomialRing, seed: int, bound: int = 10) -> Hyperplane:
    """Deterministic seeded hyperplane: integer normal entries uniform in
    [-bound, bound], rejecting the zero vector, canonicalized."""
    if bound < 1:
        raise ValueError("bound must be positive")
    rng = random.Random(seed)
    while True:
        normal = [rng.randint(-bound, bound) for _ in range(ring.nvars)]
        if any(normal):
            return Hyperplane(ring, normal)
