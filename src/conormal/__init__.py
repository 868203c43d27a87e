"""Exact computer algebra for conormal differential forms of affine germs.

The package decides, with exact rational arithmetic, whether a polynomial
differential form vanishes on the tangent spaces of an embedded affine germ
at its regular points, classifies such forms as trivial or not, relates
degree-(n-1) forms to tangential vector fields, and checks singular loci of
hyperplane sections on concrete examples.
"""

from .poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    block_order,
    evaluate,
    parse_polynomial,
    partial_derivative,
)
from ._expr import ParseError
from .groebner import (
    Ideal,
    buchberger,
    eliminate,
    ideal_membership,
    intersection,
    krull_dimension,
    module_membership,
    quotient,
    radical_membership,
    reduce,
    s_polynomial,
)
from .forms import (
    DifferentialForm,
    Hyperplane,
    NotClosedError,
    VectorField,
    evaluate_form,
    exterior_derivative,
    form_to_vector_field,
    format_form,
    parse_form,
    pullback,
    radial_potential,
    vector_field_to_form,
    volume_coefficient,
    wedge,
)
from .germs import (
    Decision,
    Germ,
    Parametrization,
    Refusal,
    Verdict,
    VerdictStatus,
    decide,
    is_conormal,
    is_tangential,
    is_trivial_form,
    oracle_conormal_on_parametrization,
    trivial_form_generators,
    vanishes_on_singular_locus,
)
from .geometry import (
    BertiniReport,
    BertiniVerdict,
    bertini_check,
    hyperplane_section,
    jacobian_ideal,
    random_hyperplane,
    regular_in_codimension,
)

__version__ = "0.1.0"
