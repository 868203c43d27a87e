"""Singular loci, regularity in codimension k, hyperplane sections, and the
randomized hyperplane-section harness.

The harness cuts a hypersurface germ with hyperplanes through the origin
and compares the singular locus of the section with the sliced singular
locus.  Generic sections confirm the expected behaviour (section reduced,
loci equal as point sets); degenerate hyperplanes are classified after the
fact by diagnostics instead of deciding transversality up front:

* the section is non-reduced,
* the hyperplane contains (a component of) the singular locus,
* the hyperplane is tangent to the hypersurface at a regular point of the
  intersection (decided exactly: the tangency locus is cut out by f, the
  linear form l and the coefficients of df ^ dl, the Jacobian ideal of
  V(f, l)),
* tangency witnessed at sampled points of a supplied parametrization.

The tangency locus of a hyperplane section is exactly the singular locus of
the section minus the sliced singular locus, so on valid inputs a report can
never end up in the ``Violation`` state: the diagnostics are complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Optional

from .forms import Hyperplane, evaluate_form, exterior_derivative, pullback, wedge
from .germs import Germ, Parametrization
from .groebner import Ideal, krull_dimension, radical_membership
from .poly import PolynomialRing, _div, evaluate


class BertiniVerdict(Enum):
    CONFIRMS_THEOREM = "ConfirmsTheorem"
    TRANSVERSALITY_FAILS = "TransversalityFails"
    VIOLATION = "Violation"


@dataclass(frozen=True)
class BertiniReport:
    """Outcome of one hyperplane-section check.

    ``Violation`` would mean: section reduced, loci different, and no
    transversality diagnostic fired -- this must never happen on valid
    inputs.
    """

    hyperplane: Hyperplane
    section: Optional[Germ]
    section_reduced: bool
    singular_loci_equal: bool
    diagnostics: tuple
    verdict: BertiniVerdict


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
    """The section germ and the images of the ambient variables in its ring;
    raises if the hyperplane is contained in the germ.

    The hyperplane is solved for its first variable with a nonzero normal
    entry, whose image is that solution; every other variable maps to itself.
    """
    ring, normal = germ.ring, hyperplane.normal
    pivot = next(i for i, h in enumerate(normal) if h)
    keep = [i for i in range(ring.nvars) if i != pivot]
    section_ring = PolynomialRing([ring.variables[i] for i in keep])
    solved = section_ring.zero
    for new_pos, old in enumerate(keep):
        if normal[old]:
            solved = solved - section_ring.var(new_pos).scale(_div(normal[old], normal[pivot]))
    images = [
        solved if old == pivot else section_ring.var(keep.index(old))
        for old in range(ring.nvars)
    ]
    g = germ.generators[0].substitute(section_ring, images)
    if not g:
        raise ValueError("the hyperplane is contained in the germ")
    return Germ(section_ring, [g]), images


def _sampled_tangency_notes(hyperplane: Hyperplane, par: Parametrization, jac: Ideal) -> list:
    """Point witnesses: sampled parametrized points of the germ lying on the
    hyperplane where every tangent direction of the parametrization stays
    inside the hyperplane, i.e. where the pullback of dl vanishes."""
    samples = [0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2]
    normal = hyperplane.normal
    dl = pullback(exterior_derivative(hyperplane.linear_form()), par.components)
    notes = []
    for values in product(samples, repeat=par.ring.nvars):
        point = [evaluate(p, values) for p in par.components]
        if sum(h * x for h, x in zip(normal, point)) != 0:
            continue
        if all(evaluate(g, point) == 0 for g in jac.generators):
            continue  # singular point of the germ
        if not evaluate_form(dl, values):
            shown = "(" + ", ".join(str(x) for x in point) + ")"
            notes.append(f"H is tangent to X at the parametrized point {shown}")
            break
    return notes


def bertini_check(
    germ: Germ, hyperplane: Hyperplane, parametrization: Optional[Parametrization] = None
) -> BertiniReport:
    """Compare the singular locus of the hyperplane section with the sliced
    singular locus, classifying any disagreement with diagnostics.

    Locus equality is equality of radicals (the claim is about point sets),
    checked by mutual radical membership of generators.
    """
    _require_section_input(germ, hyperplane)
    diagnostics = []
    jac = jacobian_ideal(germ)
    ell = hyperplane.linear_form()

    try:
        section, images = _cut(germ, hyperplane)
    except ValueError:
        diagnostics.append("H is contained in X")
        return BertiniReport(
            hyperplane, None, False, False, tuple(diagnostics),
            BertiniVerdict.TRANSVERSALITY_FAILS,
        )

    section_jac = jacobian_ideal(section)
    reduced = section.radical
    if not reduced:
        diagnostics.append("section is non-reduced (H is tangent to X along a locus)")

    sliced = [g.substitute(section.ring, images) for g in jac.generators]
    sliced = [g for g in sliced if g]
    sliced_ideal = Ideal(sliced or [section.ring.zero])
    loci_equal = all(
        radical_membership(a, sliced_ideal) for a in section_jac.generators
    ) and all(radical_membership(b, section_jac) for b in sliced_ideal.generators)

    dim_sing = germ.singular_dimension
    if dim_sing >= 1:
        if radical_membership(ell, jac):
            diagnostics.append("H contains Sing X")
        elif krull_dimension(Ideal(list(jac.generators) + [ell])) >= dim_sing:
            diagnostics.append("H contains a positive-dimensional component of Sing X")

    # Exact smooth-tangency test: on X intersect H, df is parallel to dl
    # exactly where df ^ dl vanishes, so the tangency locus V(T) is the
    # singular locus of V(f, l); transversality on the regular part holds iff
    # V(T) stays inside Sing X.
    df_dl = wedge(germ.jacobian_form, exterior_derivative(ell))
    tangency = Ideal([germ.generators[0], ell] + [c for _, c in df_dl.coefficients()])
    if not all(radical_membership(g, tangency) for g in jac.generators):
        diagnostics.append("H is tangent to X at a regular point of X on H")

    if parametrization is not None:
        diagnostics.extend(_sampled_tangency_notes(hyperplane, parametrization, jac))

    if reduced and loci_equal:
        verdict = BertiniVerdict.CONFIRMS_THEOREM
    elif diagnostics:
        verdict = BertiniVerdict.TRANSVERSALITY_FAILS
    else:
        verdict = BertiniVerdict.VIOLATION
    return BertiniReport(
        hyperplane, section, reduced, loci_equal, tuple(diagnostics), verdict
    )


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
